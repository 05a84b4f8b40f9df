//! E2 report — §3.3: applying filters on (remote) filtering hosts avoids
//! wasting network bandwidth.
//!
//! One publisher, S subscribers with filters of controlled selectivity.
//! Compares the three placements (subscriber-side, publisher-side, broker)
//! by messages on the wire and bytes sent. Run with
//! `cargo run --release -p psc-bench --bin exp_filter_placement`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psc_bench::{fmt_f, quote_obvents, BenchQuote, Table};
use psc_dace::{DaceConfig, DaceNode, Placement};
use psc_filter::{CmpOp, Predicate, RemoteFilter};
use psc_simnet::{NodeId, SimConfig, SimNet, SimTime};
use pubsub_core::FilterSpec;

fn run(placement: Placement, selectivity: f64, subscribers: usize) -> (u64, u64, u64) {
    let mut sim = SimNet::new(SimConfig::with_seed(42));
    let ids: Vec<NodeId> = (0..(subscribers as u64 + 1)).map(NodeId).collect();
    let config = DaceConfig {
        placement,
        // Keep periodic control re-announcements out of the measurement
        // window so the counts isolate data traffic.
        announce_interval: psc_simnet::Duration::from_secs(30),
        ..DaceConfig::default()
    };
    for i in 0..=subscribers {
        sim.add_node(format!("n{i}"), DaceNode::factory(ids.clone(), config.clone()));
    }
    let delivered = Arc::new(AtomicU64::new(0));
    // price uniform in 1..200: threshold = selectivity * 199 + 1.
    let threshold = 1.0 + 199.0 * selectivity;
    for &id in &ids[1..] {
        let d = delivered.clone();
        let filter = RemoteFilter::conjunction(vec![Predicate::new(
            "price",
            CmpOp::Lt,
            threshold,
        )]);
        DaceNode::drive(&mut sim, id, move |domain| {
            let sub = domain.subscribe(FilterSpec::remote(filter), move |_q: BenchQuote| {
                d.fetch_add(1, Ordering::Relaxed);
            });
            sub.activate().unwrap();
            sub.detach();
        });
    }
    sim.run_until(SimTime::from_millis(20));
    sim.reset_stats();

    for q in quote_obvents(9, 100) {
        DaceNode::publish_from(&mut sim, ids[0], q);
    }
    let deadline = sim.now() + psc_simnet::Duration::from_millis(600);
    sim.run_until(deadline);
    let stats = sim.stats();
    (stats.sent, stats.bytes_sent, delivered.load(Ordering::Relaxed))
}

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
        for selectivity in [0.01, 0.1, 0.5, 1.0] {
            for (name, placement) in [
                ("subscriber", Placement::Subscriber),
                ("publisher", Placement::Publisher),
                ("broker(n1)", Placement::Broker(NodeId(1))),
            ] {
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
