//! E6 report — pub/sub vs sequential RMI for 1→N notification (§5.4).
//!
//! Wall-clock time to notify N receivers of one quote: a single publish on
//! the bus versus N blocking remote invocations, plus what each side costs
//! the codec. Run with `cargo run --release -p psc-bench --bin exp_fanout`.

use psc_bench::fanout::{pubsub, rmi};
use psc_bench::{fmt_f, Table};

fn main() {
    // The codec's encode counters live in the process-global registry.
    psc_telemetry::set_global_enabled(true);
    println!("E6: 1-to-N notification — one publish vs N sequential remote invocations\n");
    let rounds = 200usize;
    let mut table = Table::new(&[
        "receivers",
        "pubsub us/round",
        "rmi us/round",
        "rmi/pubsub",
        "pubsub encodes/round",
        "rmi encodes/call",
    ]);
    // The sequential-RMI side spawns one runtime thread per receiver, so the
    // list stops at 128; the 512-way fan-out point is measured on the DACE
    // publish path by `exp_serialize_once` (E8), where serialize-once applies.
    for n in [1usize, 4, 16, 64, 128] {
        let ps = pubsub(n, rounds);
        let rpc = rmi(n, rounds);
        table.row(&[
            n.to_string(),
            fmt_f(ps.us_per_round),
            fmt_f(rpc.us_per_round),
            format!("{:.1}x", rpc.us_per_round / ps.us_per_round),
            fmt_f(ps.encodes as f64 / rounds as f64),
            fmt_f(rpc.encodes as f64 / (rounds * n) as f64),
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: RMI cost grows linearly in N (one synchronous round-trip per\n\
         receiver); pub/sub grows far more slowly (single publish, fabric fan-out) —\n\
         the decoupling argument for disseminating quotes via pub/sub. A publish\n\
         encodes once whatever N is; every remote call pays its own encodes."
    );
}
