//! Simulation plumbing the DACE-level dimensions share: recording
//! subscriptions and the phased chaos timeline.

use std::sync::{Arc, Mutex};

use psc_dace::DaceNode;
use psc_obvent::Obvent;
use psc_simnet::Duration as SimDuration;
use psc_simnet::{LatencyModel, NodeId, SimConfig, SimNet, SimTime};
use psc_telemetry::{
    FlightRecorder, HealthConfig, HealthMonitor, Registry, DEFAULT_FLIGHT_CAPACITY,
};
use pubsub_core::{FilterSpec, Subscription};

/// Node `i`'s diagnosis state: a metrics registry, a flight recorder and a
/// health monitor writing `health.*` into that registry. Built outside the
/// node factory, so it survives crash rebuilds of the node.
pub(crate) fn observability(i: usize) -> (Arc<Registry>, Arc<FlightRecorder>, Arc<HealthMonitor>) {
    let registry = Arc::new(Registry::new());
    let recorder = Arc::new(FlightRecorder::new(format!("n{i}"), DEFAULT_FLIGHT_CAPACITY));
    let monitor = Arc::new(HealthMonitor::new(
        registry.as_ref().clone(),
        Some(Arc::clone(&recorder)),
        HealthConfig::default(),
    ));
    (registry, recorder, monitor)
}

/// What one subscription received, in delivery order.
pub(crate) type Sink = Arc<Mutex<Vec<u64>>>;

/// A snapshot of `sink`, sorted.
pub(crate) fn sorted(sink: &Sink) -> Vec<u64> {
    let mut tags = sink.lock().unwrap().clone();
    tags.sort_unstable();
    tags
}

/// Subscribes to `O` at `node`, recording `key(&obvent)` per delivery into
/// the returned sink. `arm` receives the still-inactive subscription in
/// the same drive step: [`activate`] it, activate it under a durable
/// identity, or stash it for later flips.
pub(crate) fn subscribe<O: Obvent>(
    sim: &mut SimNet,
    node: NodeId,
    filter: FilterSpec<O>,
    key: fn(&O) -> u64,
    arm: impl FnOnce(Subscription) + 'static,
) -> Sink {
    let sink = Sink::default();
    let recorder = Arc::clone(&sink);
    DaceNode::drive(sim, node, move |domain| {
        arm(domain.subscribe(filter, move |e: O| recorder.lock().unwrap().push(key(&e))));
    });
    sink
}

/// The usual `arm`: a volatile subscription, live from now on.
pub(crate) fn activate(sub: Subscription) {
    sub.activate().expect("subscriber attach");
    sub.detach();
}

/// End-state exactly-once: over everything `who` received (the union of
/// its incarnations), each publish value `0..pubs` appears exactly once.
pub(crate) fn exactly_once<'a>(
    who: &str,
    pubs: usize,
    deliveries: impl Iterator<Item = &'a u64>,
    findings: &mut Vec<String>,
) {
    let mut counts = vec![0usize; pubs];
    for &v in deliveries {
        match counts.get_mut(v as usize) {
            Some(c) => *c += 1,
            None => findings.push(format!("{who}: ghost delivery of unknown value {v}")),
        }
    }
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            findings.push(format!("{who}: certified publish #{i} lost (never delivered)"));
        } else if c > 1 {
            findings.push(format!(
                "{who}: publish #{i} delivered {c} times (exactly-once broken)"
            ));
        }
    }
}

/// The network both chaos dimensions start from: lossless, 1–5 ms jitter.
pub(crate) fn chaos_sim(seed: u64) -> SimNet {
    SimNet::new(SimConfig {
        seed,
        latency: LatencyModel::Uniform {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(5),
        },
        drop_probability: 0.0,
    })
}

/// Length of the lossless warm-up (ms).
const WARMUP_MS: u64 = 30;

/// Runs a phased chaos timeline. Loss is phased so completeness oracles
/// stay sound: a lossless warm-up lets subscription announcements converge
/// (every certified publish then targets its subscribers), `loss` applies
/// while the events fire in `(time, insertion)` order, and a lossless
/// settle lets certified retransmission deliver everything still owed.
pub(crate) fn run_chaos<E>(
    sim: &mut SimNet,
    loss: f64,
    mut timeline: Vec<(u64, E)>,
    mut fire: impl FnMut(&mut SimNet, E),
) {
    timeline.sort_by_key(|&(at, _)| at);
    sim.run_until(SimTime::from_millis(WARMUP_MS));
    sim.set_drop_probability(loss);
    let mut last_at = WARMUP_MS;
    for (at, event) in timeline {
        last_at = at.max(WARMUP_MS);
        sim.run_until(SimTime::from_millis(last_at));
        fire(sim, event);
    }
    sim.set_drop_probability(0.0);
    sim.run_until(SimTime::from_millis(last_at + 3_000));
}
