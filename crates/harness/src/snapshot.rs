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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psc_dace::{DaceConfig, DaceNode};
use psc_obvent::builtin::Certified;
use psc_obvent::{declare_obvent_model, Obvent};
use psc_simnet::{Node, NodeId};
use psc_snapshot::{ClusterCut, MsgRef};
use pubsub_core::FilterSpec;

use crate::dimension::{edited, without_each, Dimension, Run};
use crate::fixture::{activate, chaos_sim, exactly_once, run_chaos, subscribe};

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

/// Builds one (re)built node incarnation from the cluster list.
pub type MakeNode = fn(Vec<NodeId>) -> Box<dyn Node>;

fn healthy_node(cluster: Vec<NodeId>) -> Box<dyn Node> {
    Box::new(DaceNode::new(cluster, DaceConfig::default()))
}

/// The snapshot dimension, with the node constructor switchable: the
/// default builds nodes with the correct capture discipline, and
/// [`broken::SkewedMarkers::node`](crate::broken::SkewedMarkers::node) is
/// the deliberately broken marker discipline the oracles must catch.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Builds every node incarnation of the run.
    pub make_node: MakeNode,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot { make_node: healthy_node }
    }
}

impl Dimension for Snapshot {
    type Scenario = SnapScenario;
    const NAME: &'static str = "snapshot";

    fn generate(&self, seed: u64) -> SnapScenario {
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

    fn describe(&self, scenario: &SnapScenario) -> String {
        let mut out = format!(
            "snapshot scenario seed={} nodes={} loss={} snap_at={}ms\n",
            scenario.seed, scenario.nodes, scenario.loss, scenario.snap_at_ms
        );
        for (i, p) in scenario.pubs.iter().enumerate() {
            out.push_str(&format!("  pub#{i} at={}ms\n", p.at_ms));
        }
        for (i, c) in scenario.crashes.iter().enumerate() {
            out.push_str(&format!(
                "  crash#{i} node={} at={}ms down={}ms\n",
                c.node, c.at_ms, c.down_ms
            ));
        }
        out
    }

    /// Executes the scenario and applies the cut oracles. The rendering is
    /// the byte-stable cluster image followed by the values delivered to
    /// each subscriber incarnation, in delivery order (a crash cycle opens
    /// a new incarnation for the crashed node).
    fn run(&self, scenario: &SnapScenario) -> Run {
        let _ = SnapTick::kind();
        let make_node = self.make_node;
        let mut sim = chaos_sim(scenario.seed);
        let ids: Vec<NodeId> = (0..scenario.nodes as u64).map(NodeId).collect();
        for i in 0..scenario.nodes {
            let cluster = ids.clone();
            sim.add_node(format!("s{i}"), move || make_node(cluster.clone()));
        }
        let key = |e: &SnapTick| *e.n();
        let mut sinks: Vec<_> = (1..scenario.nodes)
            .map(|n| (n, subscribe(&mut sim, ids[n], FilterSpec::accept_all(), key, activate)))
            .collect();

        enum Ev {
            Pub(usize),
            Snap,
            Crash(usize),
            Recover(usize),
        }
        let mut timeline = vec![(scenario.snap_at_ms, Ev::Snap)];
        for (i, p) in scenario.pubs.iter().enumerate() {
            timeline.push((p.at_ms, Ev::Pub(i)));
        }
        for c in &scenario.crashes {
            timeline.push((c.at_ms, Ev::Crash(c.node)));
            timeline.push((c.at_ms + c.down_ms, Ev::Recover(c.node)));
        }
        run_chaos(&mut sim, scenario.loss, timeline, |sim, ev| match ev {
            Ev::Pub(i) => DaceNode::publish_from(sim, ids[PUB_NODE], SnapTick::new(i as u64)),
            Ev::Snap => DaceNode::snapshot_from(sim, ids[PUB_NODE]),
            Ev::Crash(n) => sim.crash(ids[n]),
            Ev::Recover(n) => {
                sim.recover(ids[n]);
                // Re-subscribe in the same virtual instant: a plain
                // subscription is volatile, and certified retransmissions
                // resume as soon as the node is back.
                sinks.push((n, subscribe(sim, ids[n], FilterSpec::accept_all(), key, activate)));
            }
        });

        let cut = DaceNode::snapshot_cut_of(&mut sim, ids[PUB_NODE]);
        let got: Vec<(usize, Vec<u64>)> =
            sinks.iter().map(|(n, s)| (*n, s.lock().unwrap().clone())).collect();
        let mut rendered = match &cut {
            Some(cut) => cut.render(),
            None => "  (no completed cut)\n".to_string(),
        };
        for (i, (node, got)) in got.iter().enumerate() {
            rendered.push_str(&format!("  inc#{i} node={node} got={got:?}\n"));
        }
        Run { rendered, findings: cut_violations(scenario, cut.as_ref(), &got) }
    }

    /// Delete a publish (the oracle needs at least one to count) or a
    /// crash cycle, zero the loss rate.
    fn reductions(&self, scenario: &SnapScenario) -> Vec<SnapScenario> {
        let mut out = Vec::new();
        if scenario.pubs.len() > 1 {
            out = without_each(scenario, |s| &mut s.pubs);
        }
        out.extend(without_each(scenario, |s| &mut s.crashes));
        if scenario.loss > 0.0 {
            out.push(edited(scenario, |s| s.loss = 0.0));
        }
        out
    }
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
        let delivered = got.iter().filter(|(n, _)| *n == node).flat_map(|(_, values)| values);
        exactly_once(&format!("n{node}"), scenario.pubs.len(), delivered, &mut violations);
    }
    violations
}
