//! E2 scenario — remote-filter placement vs bandwidth (§3.3).
//!
//! One publisher, S subscribers with identical `price < threshold` filters
//! of a given selectivity, 100 quotes; control traffic is excluded by a
//! counter reset before the first publish.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psc_dace::{DaceConfig, DaceNode, Placement};
use psc_filter::{CmpOp, Predicate, RemoteFilter};
use psc_simnet::{NodeId, SimConfig, SimNet, SimTime};
use pubsub_core::FilterSpec;

use crate::{quote_obvents, BenchQuote};

/// The selectivities each table sweeps.
pub const SELECTIVITIES: [f64; 4] = [0.01, 0.1, 0.5, 1.0];

/// The three placements, as the table labels them.
pub const PLACEMENTS: [(&str, Placement); 3] = [
    ("subscriber", Placement::Subscriber),
    ("publisher", Placement::Publisher),
    ("broker(n1)", Placement::Broker(NodeId(1))),
];

/// Runs the scenario; returns (messages sent, bytes sent, deliveries).
pub fn run(placement: Placement, selectivity: f64, subscribers: usize) -> (u64, u64, u64) {
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
        sim.add_node(
            format!("n{i}"),
            DaceNode::factory(ids.clone(), config.clone()),
        );
    }
    let delivered = Arc::new(AtomicU64::new(0));
    // price uniform in 1..200: threshold = selectivity * 199 + 1.
    let threshold = 1.0 + 199.0 * selectivity;
    for &id in &ids[1..] {
        let d = delivered.clone();
        let filter = RemoteFilter::conjunction(vec![Predicate::new("price", CmpOp::Lt, threshold)]);
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
    (
        stats.sent,
        stats.bytes_sent,
        delivered.load(Ordering::Relaxed),
    )
}
