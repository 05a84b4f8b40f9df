//! E2 report — §3.3: applying filters on (remote) filtering hosts avoids
//! wasting network bandwidth.
//!
//! One publisher, S subscribers with filters of controlled selectivity.
//! Compares the three placements (subscriber-side, publisher-side, broker)
//! by messages on the wire and bytes sent. Run with
//! `cargo run --release -p psc-bench --bin exp_filter_placement`.

use psc_bench::placement::{run, PLACEMENTS, SELECTIVITIES};
use psc_bench::{fmt_f, Table};

fn main() {
    // Expose the factoring engine's counters (filter.factored_evals_saved)
    // and codec pool counters alongside the per-deployment registries.
    psc_telemetry::set_global_enabled(true);
    println!("E2: remote-filter placement vs bandwidth");
    println!("1 publisher, S subscribers, 100 quotes; control traffic excluded by reset\n");

    for subscribers in [4usize, 16] {
        println!("S = {subscribers} subscribers");
        let mut table = Table::new(&[
            "selectivity",
            "placement",
            "msgs sent",
            "KiB sent",
            "delivered",
        ]);
        for selectivity in SELECTIVITIES {
            for (name, placement) in PLACEMENTS {
                let (sent, bytes, delivered) = run(placement, selectivity, subscribers);
                table.row(&[
                    fmt_f(selectivity),
                    name.to_string(),
                    sent.to_string(),
                    fmt_f(bytes as f64 / 1024.0),
                    delivered.to_string(),
                ]);
            }
        }
        table.print();
        println!();
    }
    println!(
        "expected shape: publisher-side sends ~selectivity * S data messages per quote;\n\
         subscriber-side always sends S; broker sends 1 upstream + matching fan-out."
    );
    let global = psc_telemetry::global().snapshot();
    println!(
        "factoring: {} matching calls saved {} predicate/sub-expression evaluations",
        global.counter("filter.matching_calls"),
        global.counter("filter.factored_evals_saved"),
    );
}
