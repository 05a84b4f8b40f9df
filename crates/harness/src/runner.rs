//! Scenario execution, seed replay, shrinking and reporting.
//!
//! The runner drives a [`Scenario`](crate::Scenario) through the
//! deterministic simulator against real `psc-group` protocol instances,
//! collects a [`Trace`], and applies the oracles the protocol's QoS
//! position warrants (Fig. 4 lattice: `Causal` is also checked for FIFO,
//! every protocol for integrity, completeness wherever guaranteed).
//!
//! [`Group`] plugs this into the [`dimension`](crate::dimension) driver:
//! its reductions delete schedule operations and simplify the network, and
//! its post-mortem adds every node's flight recorder (text + JSON).

use std::sync::Arc;

use psc_group::sim_host::{GroupNode, Watchdog};
use psc_group::Multicast;
use psc_simnet::{LatencyModel, NodeId, SimConfig, SimNet, SimTime};
use psc_simnet::Duration as SimDuration;
use psc_telemetry::json::JsonValue;
use psc_telemetry::FlightRecorder;

use crate::dimension::{self, edited, without_each, Dimension, PostMortem, Run};
use crate::fixture::observability;
use crate::oracle::{self, HealthFinding, Violation};
use crate::scenario::{Op, ProtocolKind, Scenario};
use crate::trace::{Delivery, PubRecord, Trace};

/// Shared protocol factory, clonable into every node's rebuild closure.
pub type ProtoFactory = Arc<dyn Fn() -> Box<dyn Multicast> + Send + Sync>;

/// The stall-watchdog sweep period used by harness runs.
const WATCHDOG_SWEEP: SimDuration = SimDuration::from_millis(50);

/// What a run produced: the trace plus every oracle violation.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Everything published and delivered.
    pub trace: Trace,
    /// Oracle findings, empty on a healthy run.
    pub violations: Vec<Violation>,
    /// Non-fatal stall-watchdog findings ([`oracle::check_health`]).
    pub health: Vec<HealthFinding>,
    /// Each node's flight recorder (index = node id), for post-mortems.
    pub recorders: Vec<Arc<FlightRecorder>>,
}

fn encode_payload(index: usize) -> Vec<u8> {
    (index as u64).to_le_bytes().to_vec()
}

fn decode_payload(bytes: &[u8]) -> Option<usize> {
    let arr: [u8; 8] = bytes.try_into().ok()?;
    Some(u64::from_le_bytes(arr) as usize)
}

/// Runs `scenario` with its own protocol.
pub fn run_scenario(scenario: &Scenario) -> RunOutcome {
    let protocol = scenario.protocol;
    run_scenario_with(scenario, Arc::new(move || protocol.make()))
}

/// Runs `scenario` with an injected protocol factory — this is how tests
/// prove oracle sensitivity by substituting a deliberately broken protocol
/// (see [`broken`](crate::broken)).
pub fn run_scenario_with(scenario: &Scenario, make: ProtoFactory) -> RunOutcome {
    let config = SimConfig {
        seed: scenario.seed,
        latency: LatencyModel::Uniform {
            min: SimDuration::from_millis(scenario.latency_ms.0),
            max: SimDuration::from_millis(scenario.latency_ms.1),
        },
        drop_probability: scenario.loss,
    };
    let mut sim = SimNet::new(config);
    let ids: Vec<NodeId> = (0..scenario.nodes as u64).map(NodeId).collect();
    // Per-node diagnosis state, owned out here so `group.*` counters and
    // flight recorders survive crash rebuilds (the factories clone handles
    // into every incarnation). The monitors write `health.*` into the same
    // registries, which is how stall counters end up folded into the trace
    // for `check_health`.
    let observed: Vec<_> = (0..scenario.nodes).map(observability).collect();
    for (i, (registry, recorder, monitor)) in observed.iter().enumerate() {
        let mk = Arc::clone(&make);
        let registry = Arc::clone(registry);
        let recorder = Arc::clone(recorder);
        let watchdog = Watchdog {
            monitor: Arc::clone(monitor),
            interval: WATCHDOG_SWEEP,
        };
        sim.add_node(format!("h{i}"), move || {
            GroupNode::boxed_observable(
                mk(),
                Arc::clone(&registry),
                Some(Arc::clone(&recorder)),
                Some(watchdog.clone()),
            )
        });
    }
    for &id in &ids {
        GroupNode::set_members(&mut sim, id, ids.clone());
    }

    // Expand fault windows into a begin/end timeline. The sort is stable,
    // so timestamp ties fire in schedule order (faults were sorted ahead of
    // same-time publishes by the generator).
    enum Ev {
        Pub(usize),
        Crash(usize),
        Recover(usize),
        Part(usize),
        Heal,
    }
    let mut timeline: Vec<(u64, Ev)> = Vec::new();
    for op in &scenario.ops {
        match *op {
            Op::Publish { node, at_ms } => timeline.push((at_ms, Ev::Pub(node))),
            Op::CrashWindow { node, at_ms, down_ms } => {
                timeline.push((at_ms, Ev::Crash(node)));
                timeline.push((at_ms + down_ms, Ev::Recover(node)));
            }
            Op::PartitionWindow { split, at_ms, dur_ms } => {
                timeline.push((at_ms, Ev::Part(split)));
                timeline.push((at_ms + dur_ms, Ev::Heal));
            }
        }
    }
    timeline.sort_by_key(|&(at, _)| at);

    let mut trace = Trace::default();
    for &id in &ids {
        trace.deliveries.insert(id.0, Vec::new());
    }
    // The sim host's delivery log is volatile (a crash rebuilds the node),
    // so the trace accumulates increments: `consumed[i]` marks how much of
    // node i's current log incarnation is already recorded.
    let mut consumed = vec![0usize; scenario.nodes];
    let mut down = vec![false; scenario.nodes];
    let mut origin_seq = vec![0u64; scenario.nodes];
    // Incarnation counters (0 until the first crash, +1 per recovery) stamp
    // publishes and deliveries so the oracles can sever volatile guarantees
    // at crash boundaries.
    let mut incarnation = vec![0u64; scenario.nodes];
    // The causal dependency view of each node: what its *current*
    // incarnation has delivered. Cleared at a crash — a recovered process's
    // causal past restarts empty, exactly like its protocol state.
    let mut deps_view: Vec<Vec<usize>> = vec![Vec::new(); scenario.nodes];

    fn drain(
        sim: &mut SimNet,
        ids: &[NodeId],
        consumed: &mut [usize],
        incarnation: &[u64],
        deps_view: &mut [Vec<usize>],
        trace: &mut Trace,
    ) {
        for (i, &id) in ids.iter().enumerate() {
            let log = GroupNode::delivered(sim, id);
            for (origin, payload) in log.iter().skip(consumed[i]) {
                if let Some(index) = decode_payload(payload) {
                    trace
                        .deliveries
                        .get_mut(&id.0)
                        .expect("node registered")
                        .push(Delivery {
                            origin: origin.0,
                            index,
                            incarnation: incarnation[i],
                        });
                    deps_view[i].push(index);
                }
            }
            consumed[i] = log.len();
        }
    }

    let mut last_at = 0;
    for (at, ev) in timeline {
        sim.run_until(SimTime::from_millis(at));
        drain(&mut sim, &ids, &mut consumed, &incarnation, &mut deps_view, &mut trace);
        match ev {
            Ev::Pub(node) => {
                if down[node] {
                    continue; // defensive; the generator avoids this
                }
                let index = trace.publishes.len();
                origin_seq[node] += 1;
                trace.publishes.push(PubRecord {
                    index,
                    origin: ids[node].0,
                    origin_seq: origin_seq[node],
                    incarnation: incarnation[node],
                    deps: deps_view[node].clone(),
                });
                GroupNode::broadcast(&mut sim, ids[node], encode_payload(index));
            }
            Ev::Crash(node) => {
                // Sampled crash windows may overlap; a crash landing inside
                // an existing outage is a no-op (`SimNet::crash` on a dead
                // node does nothing), and treating it as a fresh incarnation
                // would desynchronize the trace's incarnation stamps from
                // the node's real lifecycle (discovered by fuzz seed 12805).
                if down[node] {
                    continue;
                }
                down[node] = true;
                consumed[node] = 0;
                deps_view[node].clear();
                sim.crash(ids[node]);
            }
            Ev::Recover(node) => {
                // The matching guard: the recovery of an already-skipped
                // crash (or of a node revived by an earlier overlapping
                // window) must not bump the incarnation of a live node.
                if !down[node] {
                    continue;
                }
                down[node] = false;
                incarnation[node] += 1;
                sim.recover(ids[node]);
                // Membership is host-managed; a real deployment's
                // membership service would re-announce the view.
                GroupNode::set_members(&mut sim, ids[node], ids.clone());
            }
            Ev::Part(split) => {
                let (left, right) = ids.split_at(split);
                sim.partition(&[left, right]);
            }
            Ev::Heal => sim.heal_partition(),
        }
        last_at = at;
    }
    sim.run_until(SimTime::from_millis(last_at + scenario.settle_ms));
    drain(&mut sim, &ids, &mut consumed, &incarnation, &mut deps_view, &mut trace);

    // Fold every node's telemetry snapshot into the trace: aggregated
    // `group.*` wire counters plus the per-node delivered counter the
    // telemetry oracle cross-checks against the delivery logs.
    for (i, (registry, _, _)) in observed.iter().enumerate() {
        let snapshot = registry.snapshot();
        for (name, value) in &snapshot.counters {
            *trace.wire.entry(name.clone()).or_insert(0) += value;
        }
        trace
            .wire_delivered
            .insert(ids[i].0, snapshot.counter("group.delivered"));
    }

    let mut violations = oracle::check_integrity(&trace);
    violations.extend(oracle::check_telemetry(&trace));
    match scenario.protocol {
        ProtocolKind::Reliable => {}
        ProtocolKind::Fifo => violations.extend(oracle::check_fifo(&trace)),
        ProtocolKind::Causal => {
            violations.extend(oracle::check_fifo(&trace));
            violations.extend(oracle::check_causal(&trace));
        }
        // Total (horizon adoption) and Certified (persistent delivered set)
        // must not re-deliver across a receiver's own crash either. Total
        // order implies per-publisher FIFO order.
        ProtocolKind::Total => {
            violations.extend(oracle::check_fifo(&trace));
            violations.extend(oracle::check_total(&trace));
            violations.extend(oracle::check_no_cross_incarnation_redelivery(&trace));
        }
        ProtocolKind::Certified => {
            violations.extend(oracle::check_no_cross_incarnation_redelivery(&trace));
        }
    }
    if scenario.expects_completeness() {
        violations.extend(oracle::check_complete(&trace));
    }
    let health = oracle::check_health(&trace);
    let recorders = observed.into_iter().map(|(_, recorder, _)| recorder).collect();
    RunOutcome { trace, violations, health, recorders }
}

impl RunOutcome {
    /// The outcome in the form the driver compares: the trace and the
    /// health findings rendered, the violations as findings.
    pub fn to_run(&self) -> Run {
        let mut rendered = self.trace.render();
        if self.health.is_empty() {
            rendered.push_str("health: ok\n");
        } else {
            rendered.push_str("health:\n");
            for finding in &self.health {
                rendered.push_str(&format!("  {finding}\n"));
            }
        }
        Run { rendered, findings: self.violations.iter().map(Violation::to_string).collect() }
    }
}

/// Renders a scenario and its outcome into the canonical report format.
pub fn report(scenario: &Scenario, outcome: &RunOutcome) -> String {
    dimension::report(&Group::default(), scenario, &outcome.to_run())
}

/// The group-protocol dimension. `make == None` runs each scenario with
/// its own protocol; a broken control injects a defective factory instead
/// (see [`broken`](crate::broken)).
#[derive(Clone, Default)]
pub struct Group {
    /// Overrides the scenario's protocol.
    pub make: Option<ProtoFactory>,
}

impl Group {
    fn outcome(&self, scenario: &Scenario) -> RunOutcome {
        match &self.make {
            Some(make) => run_scenario_with(scenario, Arc::clone(make)),
            None => run_scenario(scenario),
        }
    }
}

impl Dimension for Group {
    type Scenario = Scenario;
    const NAME: &'static str = "group";

    fn generate(&self, seed: u64) -> Scenario {
        Scenario::generate(seed)
    }

    fn describe(&self, scenario: &Scenario) -> String {
        scenario.describe()
    }

    fn run(&self, scenario: &Scenario) -> Run {
        self.outcome(scenario).to_run()
    }

    /// Delete one schedule operation, zero the loss, fix the latency.
    fn reductions(&self, scenario: &Scenario) -> Vec<Scenario> {
        let mut out = without_each(scenario, |s| &mut s.ops);
        if scenario.loss > 0.0 {
            out.push(edited(scenario, |s| s.loss = 0.0));
        }
        if scenario.latency_ms.0 != scenario.latency_ms.1 {
            out.push(edited(scenario, |s| s.latency_ms = (1, 1)));
        }
        out
    }

    /// Every node's flight-recorder dump as text and — with the findings —
    /// as JSON, plus the last events of the node the first violation
    /// implicates as report context. Byte-stable across two runs of the
    /// same seed (everything in it derives from virtual time).
    fn post_mortem(&self, scenario: &Scenario) -> Option<PostMortem> {
        let outcome = self.outcome(scenario);
        let mut context = String::new();
        if let Some(v) = outcome.violations.first() {
            let node = v.node();
            if let Some(recorder) = outcome.recorders.get(node as usize) {
                context.push_str(&format!("last flight-recorder events of node {node}:\n"));
                for event in recorder.last(10) {
                    context.push_str(&format!("  {}\n", event.render()));
                }
            }
        }
        let mut violations = JsonValue::arr();
        for v in &outcome.violations {
            violations = violations.push(v.to_string());
        }
        let mut health = JsonValue::arr();
        for finding in &outcome.health {
            health = health.push(finding.to_string());
        }
        let mut nodes = JsonValue::arr();
        for recorder in &outcome.recorders {
            nodes = nodes.push(recorder.dump_json());
        }
        let json = JsonValue::obj()
            .set("seed", scenario.seed)
            .set("protocol", scenario.protocol.name())
            .set("nodes_in_cluster", scenario.nodes)
            .set("violations", violations)
            .set("health", health)
            .set("nodes", nodes)
            .render();
        let text = outcome.recorders.iter().map(|recorder| recorder.dump_text()).collect();
        Some(PostMortem { context, text, json })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for fuzz seed 12805: the generator drew two overlapping
    /// crash windows for one node. The second window's crash is a no-op on
    /// an already-dead node, so its recovery must not bump the incarnation
    /// of the (by then live) node — the phantom incarnation made the FIFO
    /// oracle misread an in-order delivery as a post-restart gap.
    #[test]
    fn seed_12805_overlapping_crash_windows() {
        let checked = dimension::check(&Group::default(), 12805);
        assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// The same defect as a literal schedule, immune to future generator
    /// re-tuning: windows [165, 495] and [471, 959] overlap, and both
    /// publishes arrive while the receiver is continuously up.
    #[test]
    fn overlapping_crash_windows_keep_incarnation_stamps_truthful() {
        let scenario = Scenario {
            seed: 12805,
            protocol: ProtocolKind::Fifo,
            nodes: 2,
            loss: 0.0,
            latency_ms: (1, 1),
            settle_ms: 6_000,
            ops: vec![
                Op::CrashWindow { node: 0, at_ms: 165, down_ms: 330 },
                Op::CrashWindow { node: 0, at_ms: 471, down_ms: 488 },
                Op::Publish { node: 1, at_ms: 614 },
                Op::Publish { node: 1, at_ms: 1_194 },
            ],
        };
        let outcome = run_scenario(&scenario);
        assert!(
            outcome.violations.is_empty(),
            "{}",
            report(&scenario, &outcome)
        );
        // Both deliveries at node 0 carry the single real incarnation.
        let log = &outcome.trace.deliveries[&0];
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|d| d.incarnation == 1), "{}", outcome.trace.render());
    }
}
