//! E3 scenario — the §3.1.2 delivery-semantics ladder.
//!
//! `n` nodes all in one group, 20 broadcasts of 32 bytes round-robin over
//! the members, 5 ms apart, then 3 s to settle, on a network dropping
//! `loss` of all messages. A second scenario crashes a subscriber before a
//! broadcast and the publisher after it.

use std::sync::Arc;

use psc_group::{
    sim_host::GroupNode, BestEffort, Causal, Certified, Fifo, Multicast, Reliable, Total,
};
use psc_simnet::{Duration, NodeId, SimConfig, SimNet, SimTime};
use psc_telemetry::span::span_buckets;
use psc_telemetry::{HistogramSnapshot, Registry};

/// A protocol factory.
pub type MakeProto = fn() -> Box<dyn Multicast>;

/// The ladder, weakest first, as the table labels it.
pub const PROTOCOLS: [(&str, MakeProto); 6] = [
    ("besteffort", || Box::new(BestEffort::new())),
    ("reliable", || Box::new(Reliable::new())),
    ("fifo", || Box::new(Fifo::new())),
    ("causal", || Box::new(Causal::new())),
    ("total", || Box::new(Total::new())),
    ("certified", || Box::new(Certified::new())),
];

/// Broadcasts per run.
pub const BROADCASTS: usize = 20;

/// What one run measured.
pub struct Point {
    /// Messages the network carried.
    pub sent: u64,
    /// Bytes the network carried.
    pub bytes: u64,
    /// Deliveries over all nodes; `BROADCASTS × n` when complete.
    pub delivered: usize,
    /// Publish→deliver virtual latency of every delivery
    /// (`span.e2e.<protocol>`).
    pub latency: HistogramSnapshot,
}

fn cluster(
    n: usize,
    loss: f64,
    seed: u64,
    make: MakeProto,
) -> (SimNet, Vec<NodeId>, Arc<Registry>) {
    let mut sim = SimNet::new(SimConfig {
        seed,
        drop_probability: loss,
        ..SimConfig::default()
    });
    // One registry for the whole cluster: the `group.*` wire counters
    // aggregate over every node of the run.
    let registry = Arc::new(Registry::new());
    let ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
    for i in 0..n {
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

/// Runs the ladder scenario for one protocol on `n` nodes.
pub fn run(proto: &str, make: MakeProto, n: usize, loss: f64) -> Point {
    let (mut sim, ids, registry) = cluster(n, loss, 1234, make);
    sim.run_until(SimTime::from_millis(1));
    sim.reset_stats();
    // Publishes land on a known virtual-time grid; the payload's first byte
    // is the message index, so each delivery's end-to-end latency is its
    // timestamp minus the recorded publish instant.
    let mut publish_at_us = [0u64; BROADCASTS];
    for (m, at) in publish_at_us.iter_mut().enumerate() {
        *at = sim.now().as_micros();
        GroupNode::broadcast(&mut sim, ids[m % n], vec![m as u8; 32]);
        sim.run_until(sim.now() + Duration::from_millis(5));
    }
    sim.run_until(sim.now() + Duration::from_secs(3));

    let name = format!("span.e2e.{proto}");
    let latency = registry.histogram(&name, &span_buckets());
    let mut delivered = 0;
    for &id in &ids {
        for (_origin, payload, at) in GroupNode::delivered_timed(&mut sim, id) {
            delivered += 1;
            latency.record(
                at.as_micros()
                    .saturating_sub(publish_at_us[payload[0] as usize]),
            );
        }
    }
    Point {
        sent: sim.stats().sent,
        bytes: sim.stats().bytes_sent,
        delivered,
        latency: registry
            .snapshot()
            .histogram(&name)
            .cloned()
            .expect("latency histogram recorded"),
    }
}

/// Crashes BOTH the subscriber (before the broadcast) and the publisher
/// (after it) of a 3-node group: a volatile retransmission log dies with
/// the publisher, a persistent one (certified) survives. Returns what the
/// live node and the crashed subscriber delivered.
pub fn crash_recovery_run(make: MakeProto) -> (usize, usize) {
    let (mut sim, ids, _registry) = cluster(3, 0.0, 7, make);
    sim.run_until(SimTime::from_millis(1));
    sim.crash(ids[2]);
    GroupNode::broadcast(&mut sim, ids[0], b"while-down".to_vec());
    sim.run_until(sim.now() + Duration::from_millis(300));
    sim.crash(ids[0]);
    sim.recover(ids[0]);
    sim.recover(ids[2]);
    sim.run_until(sim.now() + Duration::from_secs(3));
    let during = GroupNode::delivered(&mut sim, ids[1]).len();
    let recovered = GroupNode::delivered(&mut sim, ids[2]).len();
    (during, recovered)
}
