//! Process-level readings from `/proc/self`: CPU time, context switches,
//! thread count and peak resident set. Linux only, like the transport's
//! reference box; a missing file reads as zero rather than failing the run.

use std::fs;

/// On-CPU nanoseconds of every live thread of this process, summed
/// (`/proc/self/task/*/schedstat`, first field). Nanosecond resolution,
/// unlike the 10 ms ticks of `/proc/self/stat`.
///
/// Threads that exited are not counted, so callers take deltas only across
/// spans in which no thread of the process ends (the paced phase).
pub fn process_cpu_ns() -> u64 {
    task_dirs()
        .iter()
        .map(|dir| schedstat_ns(&format!("{dir}/schedstat")))
        .sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Voluntary + involuntary context switches of every live thread, summed.
pub fn context_switches() -> u64 {
    task_dirs()
        .iter()
        .filter_map(|dir| fs::read_to_string(format!("{dir}/status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Live threads of this process.
pub fn thread_count() -> u64 {
    task_dirs().len() as u64
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

/// Resident set (`VmRSS`) in MiB once the allocator has handed its free
/// pages back to the kernel: what the process *holds*, not what its heap
/// happened to touch on the way. `VmHWM` and a bare `VmRSS` both carry the
/// allocator's free lists, whose size depends on which of ~20 threads
/// shared which arena and how deep the queues ran in one unlucky moment
/// (a quarter of the median between runs of the same code on the workload
/// with 2 000 subscriptions).
pub fn settled_rss_mb() -> f64 {
    release_free_heap();
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmRSS:") as f64 / 1024.0
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes the arena locks itself and may be
    // called from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

fn task_dirs() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// The first integer after `key` in a `/proc/*/status` rendering.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM:"), 20480);
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), 12);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches:"), 3);
        assert_eq!(status_field(status, "Missing:"), 0);
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(thread_count() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() >= before);
        assert!(process_cpu_ns() > 0);
    }
}
