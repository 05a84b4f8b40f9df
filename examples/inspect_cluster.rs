//! The node introspection plane: deterministic state reports of a live
//! cluster (psc-telemetry `Inspect` + the DACE engine).
//!
//! Three nodes share a domain: a publisher of sensor `Measurement`s and two
//! monitoring stations subscribing with the *same* remote content filter
//! (`value > 50`) — so the publisher's factored filter index shares their
//! predicate — plus a FIFO `Command` channel. After the run, every node
//! renders its `Inspect` report: transmit/parked queue depths, the
//! subscription table, per-channel protocol and membership, and the
//! filter-DAG sharing statistics (the node's counters are in the registry).
//!
//! The reports are **deterministic**: the whole scenario runs twice and the
//! renderings must match byte for byte — that is what makes them usable in
//! tests and post-mortems, not just for eyeballing. The stall watchdog is
//! armed (50 ms sweeps) and each node carries a flight recorder, whose tail
//! the example prints alongside the reports.
//!
//! Run with `cargo run --example inspect_cluster`.

use std::sync::Arc;

use javaps::dace::{DaceConfig, DaceNode};
use javaps::filter::rfilter;
use javaps::obvent::builtin::{FifoOrder, Reliable};
use javaps::pubsub::{obvent, FilterSpec};
use javaps::simnet::{Duration, NodeId, SimConfig, SimNet, SimTime};
use javaps::telemetry::{
    FlightRecorder, HealthConfig, HealthMonitor, Registry, Tracer, DEFAULT_FLIGHT_CAPACITY,
};

obvent! {
    /// A sensor reading; stations filter on `value`.
    pub class Measurement implements [Reliable] {
        sensor: String,
        value: i64,
    }
}

obvent! {
    /// An operator command; per-sender ordering matters.
    pub class Command implements [FifoOrder] {
        target: String,
        action: String,
    }
}

/// One full scenario run: returns every node's `Inspect` report plus the
/// tail of station 2's flight recorder.
fn run_cluster() -> (Vec<String>, Vec<String>) {
    let mut sim = SimNet::new(SimConfig::with_seed(42));
    let ids: Vec<NodeId> = (0..3u64).map(NodeId).collect();
    let config = DaceConfig {
        watchdog: Some(Duration::from_millis(50)),
        ..DaceConfig::default()
    };
    let mut recorders = Vec::new();
    for i in 0..3 {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::default());
        let recorder = Arc::new(FlightRecorder::new(format!("n{i}"), DEFAULT_FLIGHT_CAPACITY));
        let monitor = Arc::new(HealthMonitor::new(
            registry.as_ref().clone(),
            Some(Arc::clone(&recorder)),
            HealthConfig::default(),
        ));
        recorders.push(Arc::clone(&recorder));
        sim.add_node(
            format!("node{i}"),
            DaceNode::factory_observable(
                ids.clone(),
                config.clone(),
                registry,
                tracer,
                Some(recorder),
                Some(monitor),
            ),
        );
    }

    // Both stations use the same predicate: the publisher's factored index
    // shares it (one predicate node, two filter roots).
    DaceNode::drive(&mut sim, ids[1], |domain| {
        let s = domain.subscribe(FilterSpec::remote(rfilter!(value > 50)), |_m: Measurement| {});
        s.activate().unwrap();
        s.detach();
    });
    DaceNode::drive(&mut sim, ids[2], |domain| {
        let s = domain.subscribe(FilterSpec::remote(rfilter!(value > 50)), |_m: Measurement| {});
        s.activate().unwrap();
        s.detach();
        let s2 = domain.subscribe(FilterSpec::accept_all(), |_c: Command| {});
        s2.activate().unwrap();
        s2.detach();
    });
    sim.run_until(SimTime::from_millis(30));

    for value in [10, 80, 99] {
        DaceNode::publish_from(&mut sim, ids[0], Measurement::new("temp".into(), value));
    }
    DaceNode::publish_from(
        &mut sim,
        ids[0],
        Command::new("pump".into(), "restart".into()),
    );
    sim.run_until(SimTime::from_millis(800));

    let reports = ids
        .iter()
        .map(|&id| DaceNode::inspect_of(&mut sim, id).expect("node is up"))
        .collect();
    let tail = recorders[2]
        .last(5)
        .iter()
        .map(|event| event.render())
        .collect();
    (reports, tail)
}

fn main() {
    let (reports, tail) = run_cluster();
    let (reports2, _) = run_cluster();
    assert_eq!(
        reports, reports2,
        "inspect reports must be byte-stable across identical runs"
    );

    for report in &reports {
        println!("{report}");
    }
    println!("flight recorder of station 2 (last {} events):", tail.len());
    for line in &tail {
        println!("  {line}");
    }

    // The reports carry what an operator would ask a node first.
    assert!(reports[0].contains("dace-node n0"));
    assert!(
        reports[0].contains("filters=2"),
        "the publisher's factored index must hold both stations' filters:\n{}",
        reports[0]
    );
    assert!(
        reports[2].contains("subscriptions count=2"),
        "station 2 subscribed twice:\n{}",
        reports[2]
    );
    assert!(
        reports[2].contains("proto=fifo"),
        "the Command channel runs FIFO:\n{}",
        reports[2]
    );
    assert!(
        reports.iter().all(|r| r.contains("queues")),
        "every report exposes its queue depths"
    );
    assert!(!tail.is_empty(), "the flight recorder must have narrated the run");

    println!("\ninspect_cluster OK");
}
