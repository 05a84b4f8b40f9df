//! E15 scenario — one consistent-cluster-snapshot wave over a 3-node
//! certified cluster, cut while a burst is still in flight.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psc_dace::{DaceConfig, DaceNode};
use psc_obvent::builtin::Certified;
use psc_obvent::declare_obvent_model;
use psc_simnet::{Duration as SimDuration, LatencyModel, NodeId, SimConfig, SimNet, SimTime};
use psc_telemetry::{Registry, Tracer};
use pubsub_core::FilterSpec;

declare_obvent_model! {
    /// The snapshot workload: a certified tick, so the capture carries a
    /// real delivered set and a live retransmission log.
    pub class SnapBenchTick implements [Certified] { n: u64 }
}

/// Certified burst published by n0 before the cut.
const PUBLISHES: u64 = 256;

/// Tail burst published by n1 at the cut instant: pre-cut traffic still in
/// flight toward the initiator when it captures, so the cut's in-flight
/// recordings are exercised (the initiator's own outbound burst can never
/// land in its *incoming* recording window).
const TAIL: u64 = 32;

fn attach(sim: &mut SimNet, id: NodeId) -> Arc<AtomicU64> {
    let delivered = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&delivered);
    DaceNode::drive(sim, id, move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |_t: SnapBenchTick| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        sub.activate().expect("attach subscriber");
        sub.detach();
    });
    delivered
}

/// One wave's figures; everything but `capture_wall_ms` is a deterministic
/// function of the seeded workload.
pub struct WaveRun {
    /// Wall cost of the initiate call (local capture + marker flood).
    pub capture_wall_ms: f64,
    /// Virtual time from initiation until the cut assembled.
    pub wave_virtual_ms: u64,
    /// Whether the cut assembled within the 10 s virtual deadline.
    pub completed: bool,
    /// `snapshot.*` counters of the run.
    pub markers_sent: u64,
    pub inflight_recorded: u64,
    pub retries: u64,
    pub forced: u64,
    /// The rendered cluster image (empty if incomplete).
    pub render: String,
}

/// One full wave: warm up, burst the certified workload, initiate the
/// snapshot with the tail of the burst (and `loss`) still in flight, and
/// step virtual time until the cut assembles.
pub fn run_wave(loss: f64) -> WaveRun {
    let mut sim = SimNet::new(SimConfig {
        seed: 15,
        latency: LatencyModel::Uniform {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(5),
        },
        drop_probability: 0.0,
    });
    let ids: Vec<NodeId> = (0..3u64).map(NodeId).collect();
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::default());
    tracer.set_enabled(false);
    let config = DaceConfig::default();
    for (i, _) in ids.iter().enumerate() {
        sim.add_node(
            format!("n{i}"),
            DaceNode::factory_with_telemetry(
                ids.clone(),
                config.clone(),
                Arc::clone(&registry),
                Arc::clone(&tracer),
            ),
        );
    }
    let sinks = [attach(&mut sim, ids[1]), attach(&mut sim, ids[2])];
    sim.run_until(SimTime::from_millis(40));

    DaceNode::drive(&mut sim, ids[0], move |domain| {
        for n in 0..PUBLISHES {
            domain.publish(SnapBenchTick::new(n)).expect("publish tick");
        }
    });
    // Let part of the burst drain, then cut while the rest (plus the
    // certified ack machinery) is in flight, under the section's loss.
    sim.set_drop_probability(loss);
    let mid = sim.now() + SimDuration::from_millis(2);
    sim.run_until(mid);
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        for n in 0..TAIL {
            domain
                .publish(SnapBenchTick::new(PUBLISHES + n))
                .expect("publish tail");
        }
    });

    let capture_start = Instant::now();
    DaceNode::snapshot_from(&mut sim, ids[0]);
    let capture_wall_ms = capture_start.elapsed().as_secs_f64() * 1e3;

    let wave_start = sim.now();
    let deadline = wave_start + SimDuration::from_millis(10_000);
    while DaceNode::snapshot_cut_of(&mut sim, ids[0]).is_none() && sim.now() < deadline {
        let step = sim.now() + SimDuration::from_millis(1);
        sim.run_until(step);
    }
    let wave_virtual_ms = (sim.now().as_micros() - wave_start.as_micros()) / 1_000;

    // Lossless settle so the delivery sanity check below is meaningful.
    sim.set_drop_probability(0.0);
    let settle = sim.now() + SimDuration::from_millis(3_000);
    sim.run_until(settle);
    for sink in &sinks {
        assert_eq!(
            sink.load(Ordering::Relaxed),
            PUBLISHES + TAIL,
            "the snapshot plane must not perturb certified delivery"
        );
    }

    let cut = DaceNode::snapshot_cut_of(&mut sim, ids[0]);
    let snapshot = registry.snapshot();
    WaveRun {
        capture_wall_ms,
        wave_virtual_ms,
        completed: cut.is_some(),
        markers_sent: snapshot.counter("snapshot.markers.sent"),
        inflight_recorded: snapshot.counter("snapshot.inflight.recorded"),
        retries: snapshot.counter("snapshot.retries"),
        forced: snapshot.counter("snapshot.forced"),
        render: cut.map(|c| c.render()).unwrap_or_default(),
    }
}
