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
use psc_telemetry::{record_tracer_spans, Registry, Tracer};
use pubsub_core::{FilterSpec, Subscription};

use crate::dimension::{edited, without_each, Dimension, Run};
use crate::fixture::{activate, observability, sorted, subscribe, Sink};

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

    fn sample(rng: &mut StdRng) -> Level {
        Level::ALL[rng.gen_range(0..Level::ALL.len())]
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
    fn sample(rng: &mut StdRng) -> FilterKind {
        match rng.gen_range(0..4u32) {
            0 | 1 => FilterKind::None,
            2 => FilterKind::Negative,
            _ => FilterKind::Large,
        }
    }

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubPlan {
    /// Hosting node.
    pub node: usize,
    /// Subscribed kind.
    pub level: Level,
    /// Content filter.
    pub filter: FilterKind,
}

impl SubPlan {
    fn describe(&self) -> String {
        format!("node={} kind={:?} filter={}", self.node, self.level, self.filter.name())
    }
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
                level: Level::sample(&mut rng),
                filter: FilterKind::sample(&mut rng),
            })
            .collect();
        let pubs = (0..rng.gen_range(2..=8usize))
            .map(|tag| PubPlan {
                node: rng.gen_range(0..nodes),
                level: Level::sample(&mut rng),
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
            out.push_str(&format!("  sub#{i} {}\n", s.describe()));
        }
        for p in &self.pubs {
            out.push_str(&format!(
                "  pub#{} node={} class={:?} value={}\n",
                p.tag, p.node, p.level, p.value
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

/// Installs the planned subscription, recording delivered tags; `arm`
/// decides what happens to the still-inactive subscription.
fn install(
    sim: &mut SimNet,
    ids: &[NodeId],
    plan: &SubPlan,
    arm: impl FnOnce(Subscription) + 'static,
) -> Sink {
    let (node, filter) = (ids[plan.node], plan.filter);
    match plan.level {
        Level::Base => subscribe(sim, node, filter.spec(), |e: &FuzzBase| *e.tag(), arm),
        Level::Mid => subscribe(sim, node, filter.spec(), |e: &FuzzMid| *e.tag(), arm),
        Level::Leaf => subscribe(sim, node, filter.spec(), |e: &FuzzLeaf| *e.tag(), arm),
        Level::Side => subscribe(sim, node, filter.spec(), |e: &FuzzSide| *e.tag(), arm),
    }
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
        let (registry, recorder, monitor) = observability(i);
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
        .map(|s| install(&mut sim, &ids, s, activate))
        .collect();
    sim.run_until(SimTime::from_millis(30));

    let mut at = 50;
    for plan in &scenario.pubs {
        sim.run_until(SimTime::from_millis(at));
        publish(&mut sim, ids[plan.node], plan);
        at += 40;
    }
    sim.run_until(SimTime::from_millis(at + 800));

    // Fold the trace stream into latency spans; a scratch registry absorbs
    // the histograms (per-run, the counts are what the determinism check
    // renders).
    let span_registry = Registry::new();
    let spans = record_tracer_spans(&tracer, &span_registry);
    let e2e_samples = spans.iter().map(|s| s.e2e.len()).sum();

    StackOutcome { spans: spans.len(), e2e_samples, ..routing_oracle(scenario, &sinks, "") }
}

/// The exact routing oracle: each subscription's sorted tags against what
/// its kind and filter say it must receive (`label` prefixes the findings).
/// The span counts are left at zero.
fn routing_oracle(scenario: &StackScenario, sinks: &[Sink], label: &str) -> StackOutcome {
    let mut expected = scenario.expected();
    for tags in &mut expected {
        tags.sort_unstable();
    }
    let got: Vec<Vec<u64>> = sinks.iter().map(sorted).collect();
    let mut violations = Vec::new();
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        if g != e {
            let s = &scenario.subs[i];
            violations.push(format!(
                "{label}sub#{i} (node {}, kind {:?}, filter {}): got {g:?}, expected {e:?}",
                s.node,
                s.level,
                s.filter.name()
            ));
        }
    }
    StackOutcome { expected, got, violations, spans: 0, e2e_samples: 0 }
}

/// The full-stack routing dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stack;

impl Dimension for Stack {
    type Scenario = StackScenario;
    const NAME: &'static str = "stack";

    fn generate(&self, seed: u64) -> StackScenario {
        StackScenario::generate(seed)
    }

    fn describe(&self, scenario: &StackScenario) -> String {
        scenario.describe()
    }

    fn run(&self, scenario: &StackScenario) -> Run {
        let outcome = run_stack(scenario);
        Run { rendered: outcome.render(), findings: outcome.violations }
    }

    /// Delete a subscription or a publication (tags are kept, so the
    /// survivors stay recognisable).
    fn reductions(&self, scenario: &StackScenario) -> Vec<StackScenario> {
        let mut out = without_each(scenario, |s| &mut s.subs);
        out.extend(without_each(scenario, |s| &mut s.pubs));
        out
    }
}

// ---- churn storms ------------------------------------------------------

/// One transient subscription of a churn storm. It is created (inactive)
/// at start-up, activated shortly before publish window `join_before`, and
/// deactivated shortly before window `leave_before` — so the broker-side
/// filter index is churned by insert/remove bursts *while* publications are
/// matched through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Where it lives and what it subscribes to.
    pub sub: SubPlan,
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

/// Shared slot for a subscription handle that is activated/deactivated
/// from later simulation callbacks.
type SubSlot = Arc<Mutex<Option<Subscription>>>;

fn flip_sub(sim: &mut SimNet, node: NodeId, slot: &SubSlot, join: bool) {
    let slot = Arc::clone(slot);
    DaceNode::drive(sim, node, move |_domain| {
        let guard = slot.lock().unwrap();
        let sub = guard.as_ref().expect("churn subscription installed");
        if join {
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

/// The churn-storm dimension: the stable stack workload with transient
/// subscriptions flapping between publish windows, the sampled
/// indexed-vs-naive `FilterOracle` running mid-storm, an exact routing
/// oracle on the stable subscriptions and an integrity oracle on the
/// transient ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct Churn;

impl Dimension for Churn {
    type Scenario = ChurnScenario;
    const NAME: &'static str = "churn";

    /// Samples a churn storm from `seed`: the stable scenario from the same
    /// seed, plus 3–8 transient subscriptions with random activity windows.
    fn generate(&self, seed: u64) -> ChurnScenario {
        let stack = StackScenario::generate(seed);
        // A distinct stream keeps the stable part byte-identical to the
        // plain stack scenario of the same seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc42a_0157_0217_ed11);
        let windows = stack.pubs.len();
        let churn = (0..rng.gen_range(3..=8usize))
            .map(|_| {
                let join_before = rng.gen_range(0..windows);
                ChurnPlan {
                    sub: SubPlan {
                        node: rng.gen_range(0..stack.nodes),
                        level: Level::sample(&mut rng),
                        filter: FilterKind::sample(&mut rng),
                    },
                    join_before,
                    leave_before: rng.gen_range(join_before..=windows),
                }
            })
            .collect();
        ChurnScenario { stack, churn }
    }

    fn describe(&self, scenario: &ChurnScenario) -> String {
        let mut out = scenario.stack.describe();
        for (i, c) in scenario.churn.iter().enumerate() {
            out.push_str(&format!(
                "  churn#{i} {} join_before={} leave_before={}\n",
                c.sub.describe(),
                c.join_before,
                c.leave_before
            ));
        }
        out
    }

    fn run(&self, scenario: &ChurnScenario) -> Run {
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
            .map(|s| install(&mut sim, &ids, s, activate))
            .collect();
        let churn_slots: Vec<(Sink, SubSlot)> = scenario
            .churn
            .iter()
            .map(|c| {
                let slot = SubSlot::default();
                let stash = Arc::clone(&slot);
                let sink = install(&mut sim, &ids, &c.sub, move |sub| {
                    *stash.lock().unwrap() = Some(sub);
                });
                (sink, slot)
            })
            .collect();
        sim.run_until(SimTime::from_millis(30));

        let mut findings = Vec::new();
        let mut oracle_probes = 0;
        let mut at = 50;
        for (window, plan) in stack.pubs.iter().enumerate() {
            // Churn burst: flips happen 20 ms before the window's publish,
            // so (de)activation announcements race real traffic but local
            // handler state is settled before the next publication is even
            // made.
            sim.run_until(SimTime::from_millis(at - 20));
            for (c, (_, slot)) in scenario.churn.iter().zip(&churn_slots) {
                if c.join_before == window {
                    flip_sub(&mut sim, ids[c.sub.node], slot, true);
                }
                if c.leave_before == window {
                    flip_sub(&mut sim, ids[c.sub.node], slot, false);
                }
            }
            sim.run_until(SimTime::from_millis(at));
            publish(&mut sim, ids[plan.node], plan);
            // Mid-storm filter oracle: one typical probe mirroring the
            // window's publication, plus edge probes (NaN content, missing
            // fields) exercising the index's residual and fallback paths.
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
                &mut findings,
            );
            at += 40;
        }
        sim.run_until(SimTime::from_millis(at + 800));
        oracle_probes += sample_filter_oracle(
            &mut sim,
            &ids,
            &[Value::record([("value", Value::Int(0))])],
            "settled",
            &mut findings,
        );

        let mut stable = routing_oracle(stack, &sinks, "stable ");
        findings.append(&mut stable.violations);

        // Churn integrity: a transient subscription may miss publications
        // near its activity boundaries (announcements race the traffic),
        // but every tag it *did* receive must be unique, must pass its kind
        // and filter, and cannot come from a window at/after its
        // deactivation point — deactivation takes local effect strictly
        // before that window's publication exists.
        let churn_got: Vec<Vec<u64>> = churn_slots.iter().map(|(sink, _)| sorted(sink)).collect();
        for (i, (tags, c)) in churn_got.iter().zip(&scenario.churn).enumerate() {
            for pair in tags.windows(2) {
                if pair[0] == pair[1] {
                    findings.push(format!("churn#{i}: duplicate delivery of tag {}", pair[0]));
                }
            }
            for &tag in tags {
                // A shrunk workload keeps its tags, so the window is looked
                // up rather than assumed equal to the tag.
                let Some(window) = stack.pubs.iter().position(|p| p.tag == tag) else {
                    findings.push(format!("churn#{i}: ghost delivery of unknown tag {tag}"));
                    continue;
                };
                let plan = &stack.pubs[window];
                if !c.sub.level.receives(plan.level) {
                    findings.push(format!(
                        "churn#{i} (kind {:?}): ghost delivery of class {:?} (tag {tag})",
                        c.sub.level, plan.level
                    ));
                }
                if !c.sub.filter.passes(plan.value) {
                    findings.push(format!(
                        "churn#{i} (filter {}): delivery violating filter (tag {tag}, value {})",
                        c.sub.filter.name(),
                        plan.value
                    ));
                }
                if window >= c.leave_before {
                    findings.push(format!(
                        "churn#{i}: delivery from window {window} at/after deactivation \
                         before window {}",
                        c.leave_before
                    ));
                }
            }
        }

        // The stable part renders like a stack outcome (no tracer here, so
        // the span counts are zero), then the transient deliveries.
        let mut rendered = stable.render();
        for (i, got) in churn_got.iter().enumerate() {
            rendered.push_str(&format!("  churn#{i} got={got:?}\n"));
        }
        rendered.push_str(&format!("  oracle_probes={oracle_probes}\n"));
        Run { rendered, findings }
    }

    /// Delete a transient subscription, a stable subscription, or a
    /// publication. Deleting window `i` shifts every later activity
    /// boundary down by one; a boundary at `i` now precedes what was
    /// window `i + 1`.
    fn reductions(&self, scenario: &ChurnScenario) -> Vec<ChurnScenario> {
        let mut out = without_each(scenario, |s| &mut s.churn);
        out.extend(without_each(scenario, |s| &mut s.stack.subs));
        out.extend((0..scenario.stack.pubs.len()).map(|i| {
            edited(scenario, |s| {
                s.stack.pubs.remove(i);
                for c in &mut s.churn {
                    c.join_before -= usize::from(c.join_before > i);
                    c.leave_before -= usize::from(c.leave_before > i);
                }
            })
        }));
        out
    }
}
