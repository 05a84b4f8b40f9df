//! Full-stack fuzzing: random subscription sets against random subtype
//! publications through real DACE domains.
//!
//! Where [`runner`](crate::runner) exercises the group protocols below the
//! dissemination layer, this module drives the complete pipeline — obvent
//! classes with a subtype hierarchy, typed adapters, kind registry,
//! per-class multicast channels, remote content filters — and checks the
//! **routing oracle**: a subscriber to kind `K` with filter `f` receives
//! exactly the publications whose class is a subtype of `K` and whose
//! content passes `f`, each exactly once.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psc_dace::{DaceConfig, DaceNode};
use psc_filter::{rfilter, Value};
use psc_obvent::builtin::Reliable;
use psc_obvent::declare_obvent_model;
use psc_simnet::{Duration, NodeId, SimConfig, SimNet, SimTime};
use psc_telemetry::{
    record_tracer_spans, FlightRecorder, HealthConfig, HealthMonitor, Registry, Tracer,
    DEFAULT_FLIGHT_CAPACITY,
};
use pubsub_core::{FilterSpec, Subscription};

declare_obvent_model! {
    /// Root of the fuzz hierarchy; every publication carries a unique tag
    /// plus a filterable value.
    pub class FuzzBase implements [Reliable] { tag: u64, value: i64 }
}
declare_obvent_model! {
    /// Middle of the main chain.
    pub class FuzzMid extends FuzzBase {}
}
declare_obvent_model! {
    /// Leaf of the main chain.
    pub class FuzzLeaf extends FuzzMid {}
}
declare_obvent_model! {
    /// A sibling branch: visible to `FuzzBase` subscribers only.
    pub class FuzzSide extends FuzzBase {}
}

/// Which class of the hierarchy a subscription or publication names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// `FuzzBase` — the root, sees everything.
    Base,
    /// `FuzzMid` — sees itself and `FuzzLeaf`.
    Mid,
    /// `FuzzLeaf` — sees only itself.
    Leaf,
    /// `FuzzSide` — the sibling branch.
    Side,
}

impl Level {
    const ALL: [Level; 4] = [Level::Base, Level::Mid, Level::Leaf, Level::Side];

    fn name(self) -> &'static str {
        match self {
            Level::Base => "Base",
            Level::Mid => "Mid",
            Level::Leaf => "Leaf",
            Level::Side => "Side",
        }
    }

    /// Subtype routing: does a subscription at `self` receive a
    /// publication of class `published`?
    pub fn receives(self, published: Level) -> bool {
        match self {
            Level::Base => true,
            Level::Mid => matches!(published, Level::Mid | Level::Leaf),
            Level::Leaf => published == Level::Leaf,
            Level::Side => published == Level::Side,
        }
    }
}

/// Content filter attached to a subscription (a small menu of reified
/// remote filters — the paper's migratable filter objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// Accept everything.
    None,
    /// `value < 0`.
    Negative,
    /// `value > 50`.
    Large,
}

impl FilterKind {
    fn name(self) -> &'static str {
        match self {
            FilterKind::None => "none",
            FilterKind::Negative => "value<0",
            FilterKind::Large => "value>50",
        }
    }

    /// Reference semantics the routing oracle expects.
    pub fn passes(self, value: i64) -> bool {
        match self {
            FilterKind::None => true,
            FilterKind::Negative => value < 0,
            FilterKind::Large => value > 50,
        }
    }

    /// The reified filter a subscription installs for this kind (public
    /// so transport-level replays can install identical subscriptions).
    pub fn spec<O>(self) -> FilterSpec<O> {
        match self {
            FilterKind::None => FilterSpec::accept_all(),
            FilterKind::Negative => FilterSpec::remote(rfilter!(value < 0)),
            FilterKind::Large => FilterSpec::remote(rfilter!(value > 50)),
        }
    }
}

/// One subscription of a stack scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubPlan {
    /// Hosting node.
    pub node: usize,
    /// Subscribed kind.
    pub level: Level,
    /// Content filter.
    pub filter: FilterKind,
}

/// One publication of a stack scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubPlan {
    /// Publishing node.
    pub node: usize,
    /// Concrete class published.
    pub level: Level,
    /// Filterable content.
    pub value: i64,
    /// Unique tag (the publish index).
    pub tag: u64,
}

/// A seed-derived full-stack scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackScenario {
    /// Generating seed (also seeds the network).
    pub seed: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Subscription set.
    pub subs: Vec<SubPlan>,
    /// Publication workload.
    pub pubs: Vec<PubPlan>,
}

impl StackScenario {
    /// Samples a stack scenario from `seed`. The network is kept lossless
    /// so the routing oracle can assert the exact delivery sets; loss and
    /// fault tolerance are the group-layer fuzzer's department.
    pub fn generate(seed: u64) -> StackScenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57ac_f022_d5ee_d002);
        let nodes = rng.gen_range(2..=4usize);
        let subs = (0..rng.gen_range(1..=4usize))
            .map(|_| SubPlan {
                node: rng.gen_range(0..nodes),
                level: Level::ALL[rng.gen_range(0..Level::ALL.len())],
                filter: match rng.gen_range(0..4u32) {
                    0 | 1 => FilterKind::None,
                    2 => FilterKind::Negative,
                    _ => FilterKind::Large,
                },
            })
            .collect();
        let pubs = (0..rng.gen_range(2..=8usize))
            .map(|tag| PubPlan {
                node: rng.gen_range(0..nodes),
                level: Level::ALL[rng.gen_range(0..Level::ALL.len())],
                value: rng.gen_range(-100..=100i64),
                tag: tag as u64,
            })
            .collect();
        StackScenario { seed, nodes, subs, pubs }
    }

    /// Deterministic description used in reports.
    pub fn describe(&self) -> String {
        let mut out = format!("stack scenario seed={} nodes={}\n", self.seed, self.nodes);
        for (i, s) in self.subs.iter().enumerate() {
            out.push_str(&format!(
                "  sub#{i} node={} kind={} filter={}\n",
                s.node,
                s.level.name(),
                s.filter.name()
            ));
        }
        for p in &self.pubs {
            out.push_str(&format!(
                "  pub#{} node={} class={} value={}\n",
                p.tag,
                p.node,
                p.level.name(),
                p.value
            ));
        }
        out
    }

    /// The tags each subscription must receive, per the routing oracle.
    pub fn expected(&self) -> Vec<Vec<u64>> {
        self.subs
            .iter()
            .map(|s| {
                self.pubs
                    .iter()
                    .filter(|p| s.level.receives(p.level) && s.filter.passes(p.value))
                    .map(|p| p.tag)
                    .collect()
            })
            .collect()
    }
}

/// What a stack run observed.
#[derive(Debug, Clone)]
pub struct StackOutcome {
    /// Tags each subscription should have received (sorted).
    pub expected: Vec<Vec<u64>>,
    /// Tags each subscription did receive (sorted).
    pub got: Vec<Vec<u64>>,
    /// Routing-oracle findings, empty on a healthy run.
    pub violations: Vec<String>,
    /// Number of obvent spans derived from the run's trace stream.
    pub spans: usize,
    /// End-to-end latency samples across those spans (one per delivery).
    pub e2e_samples: usize,
}

impl StackOutcome {
    /// Canonical rendering (the determinism check compares these — span
    /// derivation included, so a non-reproducible span breaks the seed).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (got, expected)) in self.got.iter().zip(&self.expected).enumerate() {
            out.push_str(&format!("  sub#{i} got={got:?} expected={expected:?}\n"));
        }
        out.push_str(&format!(
            "  spans={} e2e_samples={}\n",
            self.spans, self.e2e_samples
        ));
        out
    }
}

type Sink = Arc<Mutex<Vec<u64>>>;

fn install(sim: &mut SimNet, node: NodeId, level: Level, filter: FilterKind) -> Sink {
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&sink);
    DaceNode::drive(sim, node, move |domain| {
        let sub = match level {
            Level::Base => domain.subscribe(filter.spec(), move |e: FuzzBase| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Mid => domain.subscribe(filter.spec(), move |e: FuzzMid| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Leaf => domain.subscribe(filter.spec(), move |e: FuzzLeaf| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Side => domain.subscribe(filter.spec(), move |e: FuzzSide| {
                recorder.lock().unwrap().push(*e.tag());
            }),
        };
        sub.activate().unwrap();
        sub.detach();
    });
    sink
}

fn publish(sim: &mut SimNet, node: NodeId, plan: &PubPlan) {
    let base = FuzzBase::new(plan.tag, plan.value);
    match plan.level {
        Level::Base => DaceNode::publish_from(sim, node, base),
        Level::Mid => DaceNode::publish_from(sim, node, FuzzMid::new(base)),
        Level::Leaf => DaceNode::publish_from(sim, node, FuzzLeaf::new(FuzzMid::new(base))),
        Level::Side => DaceNode::publish_from(sim, node, FuzzSide::new(base)),
    }
}

/// Executes a stack scenario and applies the routing oracle.
pub fn run_stack(scenario: &StackScenario) -> StackOutcome {
    // Advertise the whole hierarchy before any subscription is installed.
    let _ = (FuzzBase::kind(), FuzzMid::kind(), FuzzLeaf::kind(), FuzzSide::kind());

    let mut sim = SimNet::new(SimConfig::with_seed(scenario.seed));
    let ids: Vec<NodeId> = (0..scenario.nodes as u64).map(NodeId).collect();
    // Full observability wiring: a cluster-wide tracer feeding span
    // derivation, plus a per-node registry / flight recorder / health
    // monitor with the stall watchdog on — the stack fuzzer doubles as the
    // determinism check for the whole diagnosis layer.
    let tracer = Arc::new(Tracer::default());
    let config = DaceConfig {
        watchdog: Some(Duration::from_millis(50)),
        ..DaceConfig::default()
    };
    for i in 0..scenario.nodes {
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(format!("n{i}"), DEFAULT_FLIGHT_CAPACITY));
        let monitor = Arc::new(HealthMonitor::new(
            registry.as_ref().clone(),
            Some(Arc::clone(&recorder)),
            HealthConfig::default(),
        ));
        sim.add_node(
            format!("s{i}"),
            DaceNode::factory_observable(
                ids.clone(),
                config.clone(),
                registry,
                Arc::clone(&tracer),
                Some(recorder),
                Some(monitor),
            ),
        );
    }
    let sinks: Vec<Sink> = scenario
        .subs
        .iter()
        .map(|s| install(&mut sim, ids[s.node], s.level, s.filter))
        .collect();
    sim.run_until(SimTime::from_millis(30));

    let mut at = 50;
    for plan in &scenario.pubs {
        sim.run_until(SimTime::from_millis(at));
        publish(&mut sim, ids[plan.node], plan);
        at += 40;
    }
    sim.run_until(SimTime::from_millis(at + 800));

    let mut expected = scenario.expected();
    for tags in &mut expected {
        tags.sort_unstable();
    }
    let got: Vec<Vec<u64>> = sinks
        .iter()
        .map(|sink| {
            let mut tags = sink.lock().unwrap().clone();
            tags.sort_unstable();
            tags
        })
        .collect();

    let mut violations = Vec::new();
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        if g != e {
            let s = &scenario.subs[i];
            violations.push(format!(
                "sub#{i} (node {}, kind {}, filter {}): got {g:?}, expected {e:?}",
                s.node,
                s.level.name(),
                s.filter.name()
            ));
        }
    }

    // Fold the trace stream into latency spans; a scratch registry absorbs
    // the histograms (per-run, the counts are what the determinism check
    // renders).
    let span_registry = Registry::new();
    let spans = record_tracer_spans(&tracer, &span_registry);
    let e2e_samples = spans.iter().map(|s| s.e2e.len()).sum();

    StackOutcome {
        expected,
        got,
        violations,
        spans: spans.len(),
        e2e_samples,
    }
}

/// Determinism + routing oracle for one stack seed; `Err` carries a full
/// replayable report.
pub fn check_stack_seed(seed: u64) -> Result<(), String> {
    let scenario = StackScenario::generate(seed);
    let first = run_stack(&scenario);
    let second = run_stack(&scenario);
    if first.render() != second.render() {
        return Err(format!(
            "stack seed {seed}: NONDETERMINISM across identical runs\n{}{}",
            scenario.describe(),
            first.render()
        ));
    }
    if first.violations.is_empty() {
        return Ok(());
    }
    Err(format!(
        "stack seed {seed}: {} routing violation(s)\n\
         replay with: HARNESS_SEED={seed} cargo test --test harness_smoke\n{}{}{}",
        first.violations.len(),
        scenario.describe(),
        first.render(),
        first
            .violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>(),
    ))
}

// ---- churn storms ------------------------------------------------------

/// One transient subscription of a churn storm. It is created (inactive)
/// at start-up, activated shortly before publish window `join_before`, and
/// deactivated shortly before window `leave_before` — so the broker-side
/// filter index is churned by insert/remove bursts *while* publications are
/// matched through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Hosting node.
    pub node: usize,
    /// Subscribed kind.
    pub level: Level,
    /// Content filter.
    pub filter: FilterKind,
    /// Publish window before which the subscription activates.
    pub join_before: usize,
    /// Publish window before which it deactivates (`pubs.len()` means it
    /// stays active through the settle phase).
    pub leave_before: usize,
}

/// A stack scenario plus a seed-derived churn storm over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnScenario {
    /// The stable part: long-lived subscriptions and the publish workload
    /// (identical to [`StackScenario::generate`] for the same seed, so the
    /// exact routing oracle still applies to it).
    pub stack: StackScenario,
    /// The transient subscriptions flapping across publish windows.
    pub churn: Vec<ChurnPlan>,
}

impl ChurnScenario {
    /// Samples a churn storm from `seed`: the stable scenario from the same
    /// seed, plus 3–8 transient subscriptions with random activity windows.
    pub fn generate(seed: u64) -> ChurnScenario {
        let stack = StackScenario::generate(seed);
        // A distinct stream keeps the stable part byte-identical to the
        // plain stack scenario of the same seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc42a_0157_0217_ed11);
        let windows = stack.pubs.len();
        let churn = (0..rng.gen_range(3..=8usize))
            .map(|_| {
                let join_before = rng.gen_range(0..windows);
                ChurnPlan {
                    node: rng.gen_range(0..stack.nodes),
                    level: Level::ALL[rng.gen_range(0..Level::ALL.len())],
                    filter: match rng.gen_range(0..4u32) {
                        0 | 1 => FilterKind::None,
                        2 => FilterKind::Negative,
                        _ => FilterKind::Large,
                    },
                    join_before,
                    leave_before: rng.gen_range(join_before..=windows),
                }
            })
            .collect();
        ChurnScenario { stack, churn }
    }

    /// Deterministic description used in reports.
    pub fn describe(&self) -> String {
        let mut out = self.stack.describe();
        for (i, c) in self.churn.iter().enumerate() {
            out.push_str(&format!(
                "  churn#{i} node={} kind={} filter={} join_before={} leave_before={}\n",
                c.node,
                c.level.name(),
                c.filter.name(),
                c.join_before,
                c.leave_before
            ));
        }
        out
    }
}

/// What a churn-storm run observed.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// The stable subscriptions' outcome (exact routing oracle).
    pub stable: StackOutcome,
    /// Tags each churn subscription received (sorted).
    pub churn_got: Vec<Vec<u64>>,
    /// Churn-integrity and filter-oracle findings, empty on a healthy run.
    pub violations: Vec<String>,
    /// Filter-oracle probes executed mid-storm.
    pub oracle_probes: usize,
}

impl ChurnOutcome {
    /// Canonical rendering (the determinism check compares these).
    pub fn render(&self) -> String {
        let mut out = self.stable.render();
        for (i, got) in self.churn_got.iter().enumerate() {
            out.push_str(&format!("  churn#{i} got={got:?}\n"));
        }
        out.push_str(&format!("  oracle_probes={}\n", self.oracle_probes));
        out
    }
}

/// Shared slot for a subscription handle that is activated/deactivated
/// from later simulation callbacks.
type SubSlot = Arc<Mutex<Option<Subscription>>>;

fn install_inactive(sim: &mut SimNet, node: NodeId, level: Level, filter: FilterKind) -> (Sink, SubSlot) {
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let slot: SubSlot = Arc::new(Mutex::new(None));
    let recorder = Arc::clone(&sink);
    let stash = Arc::clone(&slot);
    DaceNode::drive(sim, node, move |domain| {
        let sub = match level {
            Level::Base => domain.subscribe(filter.spec(), move |e: FuzzBase| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Mid => domain.subscribe(filter.spec(), move |e: FuzzMid| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Leaf => domain.subscribe(filter.spec(), move |e: FuzzLeaf| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Side => domain.subscribe(filter.spec(), move |e: FuzzSide| {
                recorder.lock().unwrap().push(*e.tag());
            }),
        };
        *stash.lock().unwrap() = Some(sub);
    });
    (sink, slot)
}

fn flip_sub(sim: &mut SimNet, node: NodeId, slot: &SubSlot, activate: bool) {
    let slot = Arc::clone(slot);
    DaceNode::drive(sim, node, move |_domain| {
        let guard = slot.lock().unwrap();
        let sub = guard.as_ref().expect("churn subscription installed");
        if activate {
            sub.activate().expect("churn activation");
        } else {
            sub.deactivate().expect("churn deactivation");
        }
    });
}

/// Probes the sampled `FilterOracle` on every node: each channel's index
/// must pass its structural audit and agree with `naive_matching` on the
/// probe. Returns the number of probes run; findings go into `violations`.
fn sample_filter_oracle(
    sim: &mut SimNet,
    ids: &[NodeId],
    probes: &[Value],
    when: &str,
    violations: &mut Vec<String>,
) -> usize {
    let mut ran = 0;
    for &id in ids {
        for probe in probes {
            ran += 1;
            for finding in DaceNode::filter_oracle_of(sim, id, probe) {
                violations.push(format!("filter oracle ({when}, node n{}): {finding}", id.0));
            }
        }
    }
    ran
}

/// Executes a churn-storm scenario: the stable stack workload with
/// transient subscriptions flapping between publish windows, the sampled
/// indexed-vs-naive `FilterOracle` running mid-storm, an exact routing
/// oracle on the stable subscriptions and an integrity oracle on the
/// transient ones.
pub fn run_churn(scenario: &ChurnScenario) -> ChurnOutcome {
    let stack = &scenario.stack;
    let _ = (FuzzBase::kind(), FuzzMid::kind(), FuzzLeaf::kind(), FuzzSide::kind());

    let mut sim = SimNet::new(SimConfig::with_seed(stack.seed));
    let ids: Vec<NodeId> = (0..stack.nodes as u64).map(NodeId).collect();
    let config = DaceConfig {
        watchdog: Some(Duration::from_millis(50)),
        ..DaceConfig::default()
    };
    for i in 0..stack.nodes {
        sim.add_node(format!("c{i}"), DaceNode::factory(ids.clone(), config.clone()));
    }
    let sinks: Vec<Sink> = stack
        .subs
        .iter()
        .map(|s| install(&mut sim, ids[s.node], s.level, s.filter))
        .collect();
    let churn_slots: Vec<(Sink, SubSlot)> = scenario
        .churn
        .iter()
        .map(|c| install_inactive(&mut sim, ids[c.node], c.level, c.filter))
        .collect();
    sim.run_until(SimTime::from_millis(30));

    let mut violations = Vec::new();
    let mut oracle_probes = 0;
    let mut at = 50;
    for (window, plan) in stack.pubs.iter().enumerate() {
        // Churn burst: flips happen 20 ms before the window's publish, so
        // (de)activation announcements race real traffic but local handler
        // state is settled before the next publication is even made.
        sim.run_until(SimTime::from_millis(at - 20));
        for (c, (_, slot)) in scenario.churn.iter().zip(&churn_slots) {
            if c.join_before == window {
                flip_sub(&mut sim, ids[c.node], slot, true);
            }
            if c.leave_before == window {
                flip_sub(&mut sim, ids[c.node], slot, false);
            }
        }
        sim.run_until(SimTime::from_millis(at));
        publish(&mut sim, ids[plan.node], plan);
        // Mid-storm filter oracle: one typical probe mirroring the window's
        // publication, plus edge probes (NaN content, missing fields)
        // exercising the index's residual and fallback paths.
        let probes = [
            Value::record([
                ("tag", Value::UInt(plan.tag)),
                ("value", Value::Int(plan.value)),
            ]),
            Value::record([
                ("tag", Value::UInt(plan.tag)),
                ("value", Value::Float(f64::NAN)),
            ]),
            Value::record([("unrelated", Value::Int(plan.value))]),
        ];
        oracle_probes += sample_filter_oracle(
            &mut sim,
            &ids,
            &probes,
            &format!("window {window}"),
            &mut violations,
        );
        at += 40;
    }
    sim.run_until(SimTime::from_millis(at + 800));
    oracle_probes += sample_filter_oracle(
        &mut sim,
        &ids,
        &[Value::record([("value", Value::Int(0))])],
        "settled",
        &mut violations,
    );

    let mut expected = stack.expected();
    for tags in &mut expected {
        tags.sort_unstable();
    }
    let got: Vec<Vec<u64>> = sinks
        .iter()
        .map(|sink| {
            let mut tags = sink.lock().unwrap().clone();
            tags.sort_unstable();
            tags
        })
        .collect();
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        if g != e {
            let s = &stack.subs[i];
            violations.push(format!(
                "stable sub#{i} (node {}, kind {}, filter {}): got {g:?}, expected {e:?}",
                s.node,
                s.level.name(),
                s.filter.name()
            ));
        }
    }

    // Churn integrity: a transient subscription may miss publications near
    // its activity boundaries (announcements race the traffic), but every
    // tag it *did* receive must be unique, must pass its kind and filter,
    // and cannot come from a window at/after its deactivation point —
    // deactivation takes local effect strictly before that window's
    // publication exists.
    let churn_got: Vec<Vec<u64>> = churn_slots
        .iter()
        .map(|(sink, _)| {
            let mut tags = sink.lock().unwrap().clone();
            tags.sort_unstable();
            tags
        })
        .collect();
    for (i, (tags, c)) in churn_got.iter().zip(&scenario.churn).enumerate() {
        for pair in tags.windows(2) {
            if pair[0] == pair[1] {
                violations.push(format!("churn#{i}: duplicate delivery of tag {}", pair[0]));
            }
        }
        for &tag in tags {
            let plan = &stack.pubs[tag as usize];
            if !c.level.receives(plan.level) {
                violations.push(format!(
                    "churn#{i} (kind {}): ghost delivery of class {} (tag {tag})",
                    c.level.name(),
                    plan.level.name()
                ));
            }
            if !c.filter.passes(plan.value) {
                violations.push(format!(
                    "churn#{i} (filter {}): delivery violating filter (tag {tag}, value {})",
                    c.filter.name(),
                    plan.value
                ));
            }
            if tag as usize >= c.leave_before {
                violations.push(format!(
                    "churn#{i}: delivery from window {tag} at/after deactivation before window {}",
                    c.leave_before
                ));
            }
        }
    }

    let stable = StackOutcome {
        expected,
        got,
        violations: Vec::new(),
        spans: 0,
        e2e_samples: 0,
    };
    ChurnOutcome {
        stable,
        churn_got,
        violations,
        oracle_probes,
    }
}

/// Determinism + routing/churn/filter oracles for one churn-storm seed;
/// `Err` carries a full replayable report.
pub fn check_churn_seed(seed: u64) -> Result<(), String> {
    let scenario = ChurnScenario::generate(seed);
    let first = run_churn(&scenario);
    let second = run_churn(&scenario);
    if first.render() != second.render() {
        return Err(format!(
            "churn seed {seed}: NONDETERMINISM across identical runs\n{}{}",
            scenario.describe(),
            first.render()
        ));
    }
    if first.violations.is_empty() {
        return Ok(());
    }
    Err(format!(
        "churn seed {seed}: {} violation(s)\n\
         replay with: HARNESS_SEED={seed} cargo test --test harness_smoke\n{}{}{}",
        first.violations.len(),
        scenario.describe(),
        first.render(),
        first
            .violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>(),
    ))
}
