//! Consistent-cut fuzzing: Chandy–Lamport snapshots taken mid-chaos, with
//! global-invariant oracles over the assembled [`ClusterCut`].
//!
//! Where [`durable`](crate::durable) attacks the write-ahead log, this
//! module attacks the snapshot plane itself: each seed derives a certified
//! publish workload, a loss rate, an optional subscriber crash–recovery
//! cycle, and one snapshot initiated from the publishing node while the
//! traffic (and possibly the outage) is still in flight. The run must
//! produce a *complete*, *byte-stable*, and *globally consistent* cluster
//! image:
//!
//! - **determinism** — two replays of one seed render byte-identical cuts;
//! - **completeness** — the wave terminates with a fragment from every
//!   node despite loss and crashes (marker re-floods + force-close);
//! - **clock consistency** — no fragment observed another node past that
//!   node's own capture ([`ClusterCut::consistency_violations`]);
//! - **no ghosts** — no fragment captured a delivery of a publish the
//!   origin's own fragment had not yet issued (`seq > next_seq` means a
//!   post-cut send landed in a pre-cut state);
//! - **three-way coverage** — every certified publish issued pre-cut is,
//!   for every subscriber, *somewhere* in the cut: in the subscriber's
//!   delivered set, still owed in the origin's retransmission log, or
//!   recorded in flight on a link — nothing falls through the image;
//! - **ack ⇒ delivered** — an acknowledgement the origin captured implies
//!   the acking subscriber's captured delivered set contains the message;
//! - **end-state exactly-once** — after the lossless settle, every
//!   certified publish reached every subscriber incarnation-union exactly
//!   once (the snapshot machinery must not perturb delivery).
//!
//! The capture discipline under test is the Lai–Yang colouring in
//! `psc-dace`: every transport message carries its sender's wave tag, and
//! a receiver seeing a higher tag captures *before* processing. The
//! deliberately broken deployment ([`broken::SkewedMarkers`]
//! (crate::broken::SkewedMarkers)) disables exactly that rule — a receiver
//! processes first and captures on the marker only, the classic
//! Chandy–Lamport misuse over non-FIFO links — and the clock/ghost oracles
//! must catch the resulting inconsistent cut.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psc_dace::{DaceConfig, DaceNode};
use psc_obvent::builtin::Certified;
use psc_obvent::{declare_obvent_model, Obvent};
use psc_simnet::Duration as SimDuration;
use psc_simnet::{LatencyModel, Node, NodeId, SimConfig, SimNet, SimTime};
use psc_snapshot::{ClusterCut, MsgRef};
use pubsub_core::FilterSpec;

declare_obvent_model! {
    /// The snapshot fuzz workload: a certified obvent carrying its publish
    /// index.
    pub class SnapTick implements [Certified] { n: u64 }
}

/// The publishing (and snapshot-initiating) node. Every other node
/// subscribes.
const PUB_NODE: usize = 0;

/// One certified publication of a snapshot scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapPub {
    /// Virtual time of the publish (ms); always from [`PUB_NODE`].
    pub at_ms: u64,
}

/// One crash–recovery cycle of a subscriber node (no disk fault: the
/// durability dimension lives in [`durable`](crate::durable); here the
/// outage stresses wave liveness and the `recovered` fragment exemption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapCrash {
    /// Crashing subscriber node (never [`PUB_NODE`]).
    pub node: usize,
    /// Crash time (ms).
    pub at_ms: u64,
    /// Outage length; the node recovers (and immediately re-subscribes)
    /// at `at_ms + down_ms`.
    pub down_ms: u64,
}

/// A seed-derived snapshot scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapScenario {
    /// Generating seed (also seeds the network).
    pub seed: u64,
    /// Cluster size (3 or 4; node [`PUB_NODE`] publishes, the rest
    /// subscribe).
    pub nodes: usize,
    /// Message-loss probability during the chaos window (the warmup and
    /// the final settle run lossless).
    pub loss: f64,
    /// Certified publish workload; publish `i` carries value `i`.
    pub pubs: Vec<SnapPub>,
    /// Crash cycles of subscriber nodes, in time order.
    pub crashes: Vec<SnapCrash>,
    /// Virtual time the snapshot wave is initiated from [`PUB_NODE`] —
    /// placed just before a mid-workload publish, so wave-tagged traffic
    /// races the markers.
    pub snap_at_ms: u64,
}

impl SnapScenario {
    /// Samples a snapshot scenario from `seed`.
    pub fn generate(seed: u64) -> SnapScenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ee0_c47c_04a7_0001);
        let nodes = rng.gen_range(3..=4usize);
        let loss = [0.0, 0.05, 0.1, 0.2][rng.gen_range(0..4usize)];
        let pubs: Vec<SnapPub> = (0..rng.gen_range(6..=12usize))
            .map(|i| SnapPub { at_ms: 40 + i as u64 * 30 + rng.gen_range(0..20u64) })
            .collect();
        let last_pub = pubs.last().expect("non-empty workload").at_ms;
        // Ignite just before a publish from the middle of the workload:
        // data frames tagged with the new wave immediately race the
        // markers across every link.
        let snap_idx = rng.gen_range(pubs.len() / 3..pubs.len() - 1);
        let snap_at_ms = pubs[snap_idx].at_ms.saturating_sub(1);
        let mut crashes = Vec::new();
        if rng.gen_bool(0.5) {
            let at_ms = rng.gen_range(40..=last_pub);
            crashes.push(SnapCrash {
                node: rng.gen_range(1..nodes),
                at_ms,
                down_ms: rng.gen_range(30..=120u64),
            });
        }
        SnapScenario { seed, nodes, loss, pubs, crashes, snap_at_ms }
    }

    /// Deterministic description used in reports.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "snapshot scenario seed={} nodes={} loss={} snap_at={}ms\n",
            self.seed, self.nodes, self.loss, self.snap_at_ms
        );
        for (i, p) in self.pubs.iter().enumerate() {
            out.push_str(&format!("  pub#{i} at={}ms\n", p.at_ms));
        }
        for (i, c) in self.crashes.iter().enumerate() {
            out.push_str(&format!(
                "  crash#{i} node={} at={}ms down={}ms\n",
                c.node, c.at_ms, c.down_ms
            ));
        }
        out
    }
}

/// What a snapshot run observed.
#[derive(Debug, Clone)]
pub struct SnapOutcome {
    /// The completed cut, when the wave terminated.
    pub cut: Option<ClusterCut>,
    /// Values delivered to each subscriber incarnation, in delivery order
    /// (a crash cycle opens a new incarnation for the crashed node).
    pub got: Vec<(usize, Vec<u64>)>,
    /// Snapshot-oracle findings, empty on a healthy run.
    pub violations: Vec<String>,
}

impl SnapOutcome {
    /// Canonical rendering (the determinism check compares these): the
    /// byte-stable cluster image followed by the delivery log.
    pub fn render(&self) -> String {
        let mut out = match &self.cut {
            Some(cut) => cut.render(),
            None => "  (no completed cut)\n".to_string(),
        };
        for (i, (node, got)) in self.got.iter().enumerate() {
            out.push_str(&format!("  inc#{i} node={node} got={got:?}\n"));
        }
        out
    }
}

type Sink = Arc<Mutex<Vec<u64>>>;

/// Attaches one (volatile) subscriber incarnation.
fn attach(sim: &mut SimNet, node: NodeId) -> Sink {
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&sink);
    DaceNode::drive(sim, node, move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |e: SnapTick| {
            recorder.lock().unwrap().push(*e.n());
        });
        sub.activate().expect("subscriber attach");
        sub.detach();
    });
    sink
}

/// Builds one (re)built node incarnation from the cluster list.
pub type MakeNode = fn(Vec<NodeId>) -> Box<dyn Node>;

fn healthy_node(cluster: Vec<NodeId>) -> Box<dyn Node> {
    Box::new(DaceNode::new(cluster, DaceConfig::default()))
}

/// Executes a snapshot scenario with the correct capture discipline and
/// applies the cut oracles.
pub fn run_snapshot(scenario: &SnapScenario) -> SnapOutcome {
    run_snapshot_with(scenario, healthy_node)
}

/// [`run_snapshot`] with the node constructor switchable — pass
/// [`broken::SkewedMarkers::node`](crate::broken::SkewedMarkers::node) to
/// run the deliberately broken marker discipline the oracles must catch.
pub fn run_snapshot_with(scenario: &SnapScenario, make_node: MakeNode) -> SnapOutcome {
    let _ = SnapTick::kind();
    let mut sim = SimNet::new(SimConfig {
        seed: scenario.seed,
        latency: LatencyModel::Uniform {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(5),
        },
        drop_probability: 0.0,
    });
    let ids: Vec<NodeId> = (0..scenario.nodes as u64).map(NodeId).collect();
    for i in 0..scenario.nodes {
        let cluster = ids.clone();
        sim.add_node(format!("s{i}"), move || make_node(cluster.clone()));
    }
    let mut sinks: Vec<(usize, Sink)> = (1..scenario.nodes)
        .map(|n| (n, attach(&mut sim, ids[n])))
        .collect();

    enum Ev {
        Pub(usize),
        Snap,
        Crash(usize),
        Recover(usize),
    }
    let mut timeline: Vec<(u64, usize, Ev)> = Vec::new();
    timeline.push((scenario.snap_at_ms, 0, Ev::Snap));
    for (i, p) in scenario.pubs.iter().enumerate() {
        timeline.push((p.at_ms, timeline.len(), Ev::Pub(i)));
    }
    for c in &scenario.crashes {
        timeline.push((c.at_ms, timeline.len(), Ev::Crash(c.node)));
        timeline.push((c.at_ms + c.down_ms, timeline.len(), Ev::Recover(c.node)));
    }
    timeline.sort_by_key(|&(at, k, _)| (at, k));

    // Lossless warmup: subscription announcements converge, so every
    // certified publish targets every subscriber.
    sim.run_until(SimTime::from_millis(30));
    sim.set_drop_probability(scenario.loss);

    let mut last_at = 30;
    for (at, _, ev) in timeline {
        sim.run_until(SimTime::from_millis(at.max(30)));
        match ev {
            Ev::Pub(i) => {
                DaceNode::publish_from(&mut sim, ids[PUB_NODE], SnapTick::new(i as u64));
            }
            Ev::Snap => DaceNode::snapshot_from(&mut sim, ids[PUB_NODE]),
            Ev::Crash(n) => sim.crash(ids[n]),
            Ev::Recover(n) => {
                sim.recover(ids[n]);
                // Re-subscribe in the same virtual instant: a plain
                // subscription is volatile, and certified retransmissions
                // resume as soon as the node is back.
                sinks.push((n, attach(&mut sim, ids[n])));
            }
        }
        last_at = at.max(30);
    }
    // Lossless settle: certified retransmission finishes delivery and the
    // marker re-floods terminate the wave.
    sim.set_drop_probability(0.0);
    sim.run_until(SimTime::from_millis(last_at + 3_000));

    let cut = DaceNode::snapshot_cut_of(&mut sim, ids[PUB_NODE]);
    let got: Vec<(usize, Vec<u64>)> =
        sinks.iter().map(|(n, s)| (*n, s.lock().unwrap().clone())).collect();
    let violations = cut_violations(scenario, cut.as_ref(), &got);
    SnapOutcome { cut, got, violations }
}

/// The global-invariant oracles over one run's cut and delivery log.
fn cut_violations(
    scenario: &SnapScenario,
    cut: Option<&ClusterCut>,
    got: &[(usize, Vec<u64>)],
) -> Vec<String> {
    let mut violations = Vec::new();
    let kind = SnapTick::kind_id().as_u64();
    let origin = PUB_NODE as u64;
    let all: Vec<u64> = (0..scenario.nodes as u64).collect();

    let Some(cut) = cut else {
        violations.push("snapshot: the wave never completed at the initiator".into());
        return violations;
    };
    if !cut.complete(&all) {
        let missing: Vec<String> = all
            .iter()
            .filter(|n| !cut.frags.contains_key(n))
            .map(|n| format!("n{n}"))
            .collect();
        violations.push(format!(
            "snapshot: cut incomplete, missing fragment(s) from {}",
            missing.join(" ")
        ));
    }
    violations.extend(cut.consistency_violations());

    // Every cross-channel oracle is anchored at the origin's own capture.
    let ocap = cut
        .frags
        .get(&origin)
        .and_then(|f| f.channel(kind))
        .map(|c| c.capture.clone());
    if let Some(ocap) = ocap {
        let pre_cut = ocap.next_seq; // certified seqs are 1..=next_seq
        let in_flight: BTreeSet<MsgRef> = cut
            .frags
            .values()
            .flat_map(|f| f.inflight.iter())
            .flat_map(|r| r.obvents.iter())
            .filter(|o| o.channel == kind)
            .map(|o| o.id)
            .collect();
        for (&m, frag) in &cut.frags {
            if m == origin {
                continue;
            }
            let Some(cap) = frag.channel(kind).map(|c| &c.capture) else {
                continue;
            };
            let delivered: BTreeSet<u64> = cap
                .delivered
                .iter()
                .filter(|r| r.origin == origin && r.epoch == ocap.epoch)
                .map(|r| r.seq)
                .collect();
            // No ghosts: a non-recovered fragment captured before any
            // post-cut send could be processed, so it cannot know a seq
            // the origin's fragment had not issued. (A crash-recovered
            // fragment re-captured late over a persisted delivered set,
            // so it is exempt — its `recovered` flag is in the image.)
            if !frag.recovered {
                for &s in delivered.iter().filter(|&&s| s > pre_cut) {
                    violations.push(format!(
                        "ghost: n{m} captured delivery of o{origin}:{s} but the \
                         origin had only issued {pre_cut} pre-cut"
                    ));
                }
            }
            // Three-way coverage: each pre-cut publish is delivered,
            // owed, or in flight — the cut loses nothing.
            for s in 1..=pre_cut {
                let owed = ocap.retransmit.iter().any(|e| {
                    e.id.seq == s
                        && e.id.origin == origin
                        && e.targets.contains(&m)
                        && !e.acked.contains(&m)
                });
                if !delivered.contains(&s)
                    && !owed
                    && !in_flight.contains(&MsgRef::new(origin, ocap.epoch, s))
                {
                    violations.push(format!(
                        "coverage: certified publish o{origin}:{s} is neither \
                         delivered at n{m}, owed in the origin's retransmit log, \
                         nor recorded in flight"
                    ));
                }
            }
            // Ack ⇒ delivered: an ack the origin saw pre-cut was sent
            // pre-cut at the subscriber (else the cut is inconsistent),
            // and certified subscribers persist delivery before acking.
            for e in &ocap.retransmit {
                if e.acked.contains(&m) && !delivered.contains(&e.id.seq) {
                    violations.push(format!(
                        "ack without delivery: the origin captured n{m}'s ack of \
                         o{origin}:{} but n{m}'s delivered set is missing it",
                        e.id.seq
                    ));
                }
            }
        }
    }

    // End-state exactly-once: the snapshot machinery must not perturb
    // certified delivery — per subscriber node, the union across its
    // incarnations delivers every publish exactly once.
    for node in 1..scenario.nodes {
        let mut counts = vec![0usize; scenario.pubs.len()];
        for (_, values) in got.iter().filter(|(n, _)| *n == node) {
            for &v in values {
                match counts.get_mut(v as usize) {
                    Some(c) => *c += 1,
                    None => violations
                        .push(format!("n{node}: ghost delivery of unknown value {v}")),
                }
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                violations.push(format!(
                    "delivery: certified publish #{i} never reached n{node}"
                ));
            } else if c > 1 {
                violations.push(format!(
                    "delivery: publish #{i} delivered {c} times at n{node} \
                     (exactly-once broken)"
                ));
            }
        }
    }
    violations
}

/// Greedy shrinking for snapshot counterexamples: while the failure
/// reproduces, delete publishes and crash cycles, then zero the loss rate.
pub fn shrink_snapshot(scenario: &SnapScenario, make_node: MakeNode) -> SnapScenario {
    let violates = |s: &SnapScenario| !run_snapshot_with(s, make_node).violations.is_empty();
    let mut current = scenario.clone();
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < current.pubs.len() {
            if current.pubs.len() == 1 {
                break; // the oracle needs at least one publish to count
            }
            let mut candidate = current.clone();
            candidate.pubs.remove(i);
            if violates(&candidate) {
                current = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < current.crashes.len() {
            let mut candidate = current.clone();
            candidate.crashes.remove(i);
            if violates(&candidate) {
                current = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if current.loss > 0.0 {
            let mut candidate = current.clone();
            candidate.loss = 0.0;
            if violates(&candidate) {
                current = candidate;
                progressed = true;
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// Writes the text post-mortem of a failing snapshot run under
/// `HARNESS_DUMP_DIR` (if set); returns the context line for the report.
fn dump_snapshot_failure(
    seed: u64,
    scenario: &SnapScenario,
    outcome: &SnapOutcome,
) -> String {
    let Ok(dir) = std::env::var("HARNESS_DUMP_DIR") else {
        return String::new();
    };
    let base = std::path::PathBuf::from(dir);
    if std::fs::create_dir_all(&base).is_err() {
        return String::new();
    }
    let path = base.join(format!("snapshot_postmortem_seed{seed}.txt"));
    let mut dump = format!("=== snapshot post-mortem seed={seed} ===\n");
    dump.push_str(&scenario.describe());
    dump.push_str(&outcome.render());
    for v in &outcome.violations {
        dump.push_str(&format!("  {v}\n"));
    }
    if std::fs::write(&path, dump).is_ok() {
        format!("post-mortem dumped to: {}\n", path.display())
    } else {
        String::new()
    }
}

/// Determinism + snapshot oracles for one seed; `Err` carries a full
/// replayable report with a shrunk counterexample.
pub fn check_snapshot_seed(seed: u64) -> Result<(), String> {
    let scenario = SnapScenario::generate(seed);
    let first = run_snapshot(&scenario);
    let second = run_snapshot(&scenario);
    if first.render() != second.render() {
        return Err(format!(
            "snapshot seed {seed}: NONDETERMINISM across identical runs\n{}{}",
            scenario.describe(),
            first.render()
        ));
    }
    if first.violations.is_empty() {
        return Ok(());
    }
    let shrunk = shrink_snapshot(&scenario, healthy_node);
    let shrunk_outcome = run_snapshot(&shrunk);
    Err(format!(
        "snapshot seed {seed}: {} cut violation(s)\n\
         replay with: HARNESS_SEED={seed} cargo test --test harness_smoke\n\
         {}{}{}{}\
         === shrunk counterexample ({} pubs, {} crashes) ===\n{}{}",
        first.violations.len(),
        dump_snapshot_failure(seed, &scenario, &first),
        scenario.describe(),
        first.render(),
        first
            .violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>(),
        shrunk.pubs.len(),
        shrunk.crashes.len(),
        shrunk.describe(),
        shrunk_outcome.render(),
    ))
}
