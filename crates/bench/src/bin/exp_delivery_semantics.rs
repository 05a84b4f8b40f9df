//! E3 report — the §3.1.2 delivery-semantics ladder: message overhead,
//! delivery ratio and latency per protocol, with and without loss, plus
//! certified's behaviour across a subscriber crash.
//!
//! Run with `cargo run --release -p psc-bench --bin exp_delivery_semantics`.

use std::sync::Arc;

use psc_bench::{fmt_f, Table};
use psc_group::{
    sim_host::GroupNode, BestEffort, Causal, Certified, Fifo, Multicast, Reliable, Total,
};
use psc_simnet::{NodeId, SimConfig, SimNet, SimTime};
use psc_telemetry::span::span_buckets;
use psc_telemetry::{HistogramSnapshot, Registry};

type MakeProto = fn() -> Box<dyn Multicast>;

fn cluster(
    n: usize,
    loss: f64,
    seed: u64,
    make: impl Fn() -> Box<dyn Multicast> + Clone + 'static,
) -> (SimNet, Vec<NodeId>, Arc<Registry>) {
    let mut sim = SimNet::new(SimConfig {
        seed,
        drop_probability: loss,
        ..SimConfig::default()
    });
    // One registry for the whole cluster: the `group.*` wire counters in
    // the JSON report aggregate over every node of the run.
    let registry = Arc::new(Registry::new());
    let ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
    for i in 0..n {
        let make = make.clone();
        let registry = Arc::clone(&registry);
        sim.add_node(format!("n{i}"), move || {
            GroupNode::boxed_with_telemetry(make(), Arc::clone(&registry))
        });
    }
    for &id in &ids {
        GroupNode::set_members(&mut sim, id, ids.clone());
    }
    (sim, ids, registry)
}

struct Row {
    proto: &'static str,
    loss: f64,
    msgs_per_bcast: f64,
    bytes_per_bcast: f64,
    delivery_ratio: f64,
    /// End-to-end publish→deliver virtual latency of this QoS class
    /// (`span.e2e.<protocol>` histogram over every delivery of the run).
    latency: HistogramSnapshot,
}

fn run(proto: &'static str, make: MakeProto, loss: f64) -> Row {
    let n = 8usize;
    let msgs = 20usize;
    let (mut sim, ids, registry) = cluster(n, loss, 1234, make);
    sim.run_until(SimTime::from_millis(1));
    sim.reset_stats();
    // Publishes land on a known virtual-time grid; the payload's first byte
    // is the message index, so each delivery's end-to-end latency is its
    // timestamp minus the recorded publish instant.
    let mut publish_at_us = vec![0u64; msgs];
    for m in 0..msgs {
        publish_at_us[m] = sim.now().as_micros();
        GroupNode::broadcast(&mut sim, ids[m % n], vec![m as u8; 32]);
        let next = sim.now() + psc_simnet::Duration::from_millis(5);
        sim.run_until(next);
    }
    sim.run_until(sim.now() + psc_simnet::Duration::from_secs(3));

    let latency = registry.histogram(&format!("span.e2e.{proto}"), &span_buckets());
    let mut total_deliveries = 0usize;
    for &id in &ids {
        for (_origin, payload, at) in GroupNode::delivered_timed(&mut sim, id) {
            total_deliveries += 1;
            let m = payload[0] as usize;
            latency.record(at.as_micros().saturating_sub(publish_at_us[m]));
        }
    }
    let expected = msgs * n;
    Row {
        proto,
        loss,
        msgs_per_bcast: sim.stats().sent as f64 / msgs as f64,
        bytes_per_bcast: sim.stats().bytes_sent as f64 / msgs as f64,
        delivery_ratio: total_deliveries as f64 / expected as f64,
        latency: registry
            .snapshot()
            .histogram(&format!("span.e2e.{proto}"))
            .cloned()
            .expect("latency histogram recorded"),
    }
}

/// Crash BOTH the subscriber (before the broadcast) and the publisher
/// (after it): a volatile retransmission log dies with the publisher, a
/// persistent one (certified) survives.
fn crash_recovery_run(proto: &'static str, make: MakeProto) -> (usize, usize) {
    let (mut sim, ids, _registry) = cluster(3, 0.0, 7, make);
    sim.run_until(SimTime::from_millis(1));
    sim.crash(ids[2]);
    GroupNode::broadcast(&mut sim, ids[0], b"while-down".to_vec());
    sim.run_until(sim.now() + psc_simnet::Duration::from_millis(300));
    sim.crash(ids[0]);
    sim.recover(ids[0]);
    sim.recover(ids[2]);
    sim.run_until(sim.now() + psc_simnet::Duration::from_secs(3));
    let during = GroupNode::delivered(&mut sim, ids[1]).len();
    let recovered = GroupNode::delivered(&mut sim, ids[2]).len();
    let _ = proto;
    (during, recovered)
}

fn main() {
    println!("E3: delivery semantics — overhead, completeness, latency (8 nodes, 20 broadcasts)\n");
    let protos: [(&'static str, MakeProto); 6] = [
        ("besteffort", || Box::new(BestEffort::new())),
        ("reliable", || Box::new(Reliable::new())),
        ("fifo", || Box::new(Fifo::new())),
        ("causal", || Box::new(Causal::new())),
        ("total", || Box::new(Total::new())),
        ("certified", || Box::new(Certified::new())),
    ];

    let mut table = Table::new(&[
        "protocol",
        "loss",
        "msgs/bcast",
        "bytes/bcast",
        "delivery ratio",
        "p50 µs",
        "p90 µs",
        "p99 µs",
    ]);
    for loss in [0.0, 0.05, 0.20] {
        for (name, make) in protos {
            let row = run(name, make, loss);
            table.row(&[
                row.proto.to_string(),
                format!("{:.0}%", row.loss * 100.0),
                fmt_f(row.msgs_per_bcast),
                fmt_f(row.bytes_per_bcast),
                format!("{:.3}", row.delivery_ratio),
                row.latency.percentile(0.50).to_string(),
                row.latency.percentile(0.90).to_string(),
                row.latency.percentile(0.99).to_string(),
            ]);
        }
    }
    table.print();

    println!("\ncrash/recovery: subscriber down during broadcast; publisher then crashes");
    println!("(volatile retransmission state dies with the publisher; certified persists)");
    let mut table = Table::new(&["protocol", "live node delivered", "crashed node after recovery"]);
    for (name, make) in [
        ("reliable", protos[1].1),
        ("certified", protos[5].1),
    ] {
        let (during, recovered) = crash_recovery_run(name, make);
        table.row(&[name.to_string(), during.to_string(), recovered.to_string()]);
    }
    table.print();
    println!(
        "\nexpected shape: overhead rises up the ladder; only certified delivers to the\n\
         crashed subscriber after both recoveries (reliable retransmission state is\n\
         volatile and died with the publisher)."
    );
}
