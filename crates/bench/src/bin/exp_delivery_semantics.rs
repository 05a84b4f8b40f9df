//! E3 report — the §3.1.2 delivery-semantics ladder: message overhead,
//! delivery ratio and latency per protocol, with and without loss, plus
//! certified's behaviour across a subscriber crash.
//!
//! Run with `cargo run --release -p psc-bench --bin exp_delivery_semantics`.

use psc_bench::delivery::{self, BROADCASTS, PROTOCOLS};
use psc_bench::{fmt_f, Table};

fn main() {
    println!(
        "E3: delivery semantics — overhead, completeness, latency ({BROADCASTS} broadcasts)\n"
    );
    let mut table = Table::new(&[
        "nodes",
        "protocol",
        "loss",
        "msgs/bcast",
        "bytes/bcast",
        "delivery ratio",
        "p50 µs",
        "p90 µs",
        "p99 µs",
    ]);
    // 8 nodes across the loss range, then 3 nodes at 20 %: relay
    // redundancy shrinks with the group, origin retransmission does not.
    for (nodes, loss) in [(8, 0.0), (8, 0.05), (8, 0.20), (3, 0.20)] {
        for (name, make) in PROTOCOLS {
            let point = delivery::run(name, make, nodes, loss);
            table.row(&[
                nodes.to_string(),
                name.to_string(),
                format!("{:.0}%", loss * 100.0),
                fmt_f(point.sent as f64 / BROADCASTS as f64),
                fmt_f(point.bytes as f64 / BROADCASTS as f64),
                format!(
                    "{:.3}",
                    point.delivered as f64 / (BROADCASTS * nodes) as f64
                ),
                point.latency.percentile(0.50).to_string(),
                point.latency.percentile(0.90).to_string(),
                point.latency.percentile(0.99).to_string(),
            ]);
        }
    }
    table.print();

    println!("\ncrash/recovery: subscriber down during broadcast; publisher then crashes");
    println!("(volatile retransmission state dies with the publisher; certified persists)");
    let mut table = Table::new(&[
        "protocol",
        "live node delivered",
        "crashed node after recovery",
    ]);
    for (name, make) in [PROTOCOLS[1], PROTOCOLS[5]] {
        let (during, recovered) = delivery::crash_recovery_run(make);
        table.row(&[name.to_string(), during.to_string(), recovered.to_string()]);
    }
    table.print();
    println!(
        "\nexpected shape: overhead rises up the ladder; only certified delivers to the\n\
         crashed subscriber after both recoveries (reliable retransmission state is\n\
         volatile and died with the publisher)."
    );
}
