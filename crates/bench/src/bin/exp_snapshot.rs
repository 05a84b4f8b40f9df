//! E15 report — consistent cluster snapshots: capture cost, wave latency
//! under loss, and byte stability of the rendered cluster image.
//!
//! Three claims, one section each:
//!
//! 1. **capture** — a 3-node cluster delivers a 256-publish certified
//!    burst; the snapshot wave is initiated while the tail of the burst
//!    is still in flight. The row reports the wall cost of the initiate
//!    call (local fragment capture + marker flood — the only part that
//!    runs on the caller), the virtual time until the cut assembles, the
//!    deterministic marker count, and how many in-flight obvents the cut
//!    recorded.
//! 2. **byte stability** — the capture row runs its workload twice and
//!    diffs the rendered cluster images; `byte-stable` must read 1 (the
//!    rendering is the determinism oracle, same as the harness uses).
//! 3. **loss** — the same wave with the chaos window kept lossy through
//!    marker delivery, swept over drop probabilities. Liveness comes from
//!    the `SnapRetry` re-floods; the row reports the virtual completion
//!    time and the retry/force-close counts, all deterministic for the
//!    fixed seed (`tests/experiment_counts.rs` pins them).
//!
//! Run with `cargo run --release -p psc-bench --bin exp_snapshot`.

use psc_bench::snapshot::run_wave;
use psc_bench::{fmt_f, Table};

fn main() {
    println!("E15: consistent cluster snapshots — capture cost, wave latency, byte stability\n");

    let mut capture_table = Table::new(&[
        "capture ms",
        "wave virt ms",
        "complete",
        "byte-stable",
        "markers",
        "inflight rec",
    ]);
    let first = run_wave(0.0);
    let replay = run_wave(0.0);
    capture_table.row(&[
        fmt_f(first.capture_wall_ms),
        first.wave_virtual_ms.to_string(),
        u64::from(first.completed).to_string(),
        u64::from(first.render == replay.render).to_string(),
        first.markers_sent.to_string(),
        first.inflight_recorded.to_string(),
    ]);
    capture_table.print();
    println!();

    let mut loss_table = Table::new(&[
        "loss %",
        "wave virt ms",
        "complete",
        "retries",
        "forced",
        "markers",
    ]);
    for &loss in &[0.0f64, 0.1, 0.3] {
        let first = run_wave(loss);
        loss_table.row(&[
            format!("{:.0}", loss * 100.0),
            first.wave_virtual_ms.to_string(),
            u64::from(first.completed).to_string(),
            first.retries.to_string(),
            u64::from(first.forced > 0).to_string(),
            first.markers_sent.to_string(),
        ]);
    }
    loss_table.print();

    println!(
        "\nexpected shape: the capture call costs well under a millisecond and the wave\n\
         assembles within a few virtual round trips at loss 0; every row is complete\n\
         and byte-stable across replays (the render is the determinism oracle); under\n\
         loss the SnapRetry re-floods keep the wave live at a bounded retry count."
    );
}
