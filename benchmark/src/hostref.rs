//! The host-speed reference: what the shared box costs right now.
//!
//! The reference box is a few vCPUs of a shared host, and each vCPU on its
//! own is slowed by up to 2.5× for seconds to minutes at a time while its
//! neighbours on the physical core are busy (README, "The host moves");
//! ordinary code — the kernel's socket path and the stack's user code
//! alike — slows with it, so two runs of the same code minutes apart
//! disagree by tens of percent on every raw time.
//!
//! A *sample* is a fixed piece of work that belongs to the benchmark, not
//! to the stack under test, and feels the same slow-downs. It has a kernel
//! half (round trips over a loopback TCP connection, written and read back
//! by the sampling thread: no wake-up, no second thread) and a user half
//! (fill a hash map, look every key up again), sized to cost about the
//! same. [`HostSampler`] runs one sampling thread pinned to each CPU the
//! process may use, every 50 ms (≈0.4 % of that CPU, not counted as the
//! system's CPU time). The live driver reads it at every paced-window
//! boundary and scales the window's times by [`NOMINAL_NS`] ÷ the reading,
//! so the gated figures are times *at the reference host speed*. The raw
//! medians and the readings themselves are printed beside them and
//! reported per layer.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::procfs;

/// Cost of one sample on the reference box in its usual state under the
/// benchmark's load; scaled times equal raw times when the host reads this.
pub const NOMINAL_NS: f64 = 200_000.0;
/// Pause between two samples on one CPU.
const EVERY: Duration = Duration::from_millis(50);
/// Untimed round trips that open a sample: the sampling thread wakes on a
/// CPU whose caches the stack under test has just used, and the reading
/// should be of the host, not of that.
const WARM_UP: u32 = 4;
/// Timed round trips of the kernel half.
const ROUND_TRIPS: u32 = 16;
/// Keys of the user half.
const KEYS: u64 = 1_024;
/// Most CPUs sampled (the reference box has 2).
const MAX_CPUS: usize = 16;

/// One loopback connection to sample with.
struct Probe {
    client: TcpStream,
    server: TcpStream,
}

impl Probe {
    fn new() -> io::Result<Probe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        client.set_nodelay(true)?;
        Ok(Probe { client, server })
    }

    /// Nanoseconds one sample took.
    fn sample(&mut self) -> f64 {
        let mut buf = [0x5au8; 64];
        let mut started = Instant::now();
        for trip in 0..WARM_UP + ROUND_TRIPS {
            if trip == WARM_UP {
                started = Instant::now();
            }
            // A loopback connection inside one process does not fail short
            // of fd exhaustion; a failed sample reads as nominal speed.
            if self.client.write_all(&buf).is_err() || self.server.read_exact(&mut buf).is_err() {
                return NOMINAL_NS;
            }
        }
        let mut map: HashMap<u64, u64> = HashMap::new();
        for key in 0..KEYS {
            map.insert(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), key);
        }
        let mut sum = 0u64;
        for key in 0..KEYS {
            sum = sum.wrapping_add(map[&key.wrapping_mul(0x9E37_79B9_7F4A_7C15)]);
        }
        black_box(sum);
        started.elapsed().as_nanos() as f64
    }
}

/// CPUs the calling thread may run on, and pinning it to one of them.
/// Linux only, like the transport's reference box; elsewhere there is one
/// unpinned sampling thread.
#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0 is
        // the calling thread. A refusal leaves the thread unpinned, which
        // only makes its readings less specific.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin(_cpu: usize) {}
}

/// What one CPU's sampling thread shares with the reader.
#[derive(Default)]
struct PerCpu {
    /// Samples since the reader last took them.
    readings: Mutex<Vec<f64>>,
    /// On-CPU nanoseconds of the sampling thread so far.
    cpu_ns: AtomicU64,
}

/// The sampling threads, one per CPU.
pub struct HostSampler {
    stop: Arc<AtomicBool>,
    shared: Vec<Arc<PerCpu>>,
    threads: Vec<JoinHandle<()>>,
}

impl HostSampler {
    pub fn start() -> io::Result<HostSampler> {
        let mut cpus: Vec<Option<usize>> = affinity::allowed().into_iter().map(Some).collect();
        cpus.truncate(MAX_CPUS);
        if cpus.is_empty() {
            cpus.push(None);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut shared = Vec::new();
        let mut threads = Vec::new();
        for cpu in cpus {
            let mut probe = Probe::new()?;
            let mine = Arc::new(PerCpu::default());
            shared.push(Arc::clone(&mine));
            let stop = Arc::clone(&stop);
            let thread = std::thread::Builder::new()
                .name("psc-bench-host".to_string())
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        affinity::pin(cpu);
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(EVERY);
                        let reading = probe.sample();
                        mine.readings
                            .lock()
                            .expect("readings poisoned")
                            .push(reading);
                        mine.cpu_ns
                            .store(procfs::thread_cpu_ns(), Ordering::Relaxed);
                    }
                })?;
            threads.push(thread);
        }
        Ok(HostSampler {
            stop,
            shared,
            threads,
        })
    }

    /// The host's reading since the last call: per CPU the mean of its
    /// samples without the slowest tenth (a sample that was itself
    /// preempted), then the mean over the CPUs — the stack's threads run on
    /// all of them. `None` when no CPU produced a sample.
    pub fn take(&self) -> Option<f64> {
        let per_cpu: Vec<f64> = self
            .shared
            .iter()
            .filter_map(|cpu| {
                let mut readings =
                    std::mem::take(&mut *cpu.readings.lock().expect("readings poisoned"));
                trimmed_mean(&mut readings)
            })
            .collect();
        if per_cpu.is_empty() {
            None
        } else {
            Some(per_cpu.iter().sum::<f64>() / per_cpu.len() as f64)
        }
    }

    /// On-CPU nanoseconds of the sampling threads so far.
    pub fn cpu_ns(&self) -> u64 {
        self.shared
            .iter()
            .map(|cpu| cpu.cpu_ns.load(Ordering::Relaxed))
            .sum()
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Mean of `readings` without its largest tenth.
fn trimmed_mean(readings: &mut [f64]) -> Option<f64> {
    if readings.is_empty() {
        return None;
    }
    readings.sort_by(f64::total_cmp);
    let keep = readings.len() - readings.len() / 10;
    Some(readings[..keep].iter().sum::<f64>() / keep as f64)
}

/// `raw` as it would read at the reference host speed, given the host's
/// reading `reference_ns` while `raw` was measured.
pub fn at_reference_speed(raw: f64, reference_ns: f64) -> f64 {
    if reference_ns > 0.0 {
        raw * NOMINAL_NS / reference_ns
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_a_plausible_reading() {
        let mut probe = Probe::new().expect("loopback connection");
        let ns = probe.sample();
        // Between 10 µs and 100 ms on anything that runs this.
        assert!((10_000.0..100_000_000.0).contains(&ns), "{ns}");
    }

    #[test]
    fn the_sampler_reads_every_cpu_and_stops() {
        let sampler = HostSampler::start().expect("sampler");
        std::thread::sleep(EVERY * 4);
        let reading = sampler.take().expect("a reading after four periods");
        assert!((10_000.0..100_000_000.0).contains(&reading), "{reading}");
        assert!(sampler.cpu_ns() > 0);
        sampler.stop();
    }

    #[test]
    fn trimmed_mean_drops_the_slowest_tenth() {
        let mut readings: Vec<f64> = (1..=20).map(f64::from).collect();
        readings[19] = 10_000.0; // a preempted sample
        readings[18] = 9_000.0;
        // 18 kept: 1..=18.
        assert_eq!(trimmed_mean(&mut readings), Some(9.5));
        assert_eq!(trimmed_mean(&mut []), None);
        assert_eq!(trimmed_mean(&mut [7.0]), Some(7.0));
    }

    #[test]
    fn scaling_is_a_plain_ratio() {
        assert_eq!(at_reference_speed(300.0, NOMINAL_NS), 300.0);
        assert_eq!(at_reference_speed(300.0, 1.5 * NOMINAL_NS), 200.0);
        assert_eq!(at_reference_speed(300.0, 0.0), 300.0);
    }
}
