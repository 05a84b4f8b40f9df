//! Durable-channel fuzzing: certified publishes against a durable
//! subscriber whose node is crash-restarted **with disk faults**.
//!
//! Where [`stack`](crate::stack) checks routing over a healthy cluster,
//! this module attacks the write-ahead log under the paper's §3.1.2
//! certified contract: a subscriber that re-attaches under the same
//! durable identity after a power-loss restart must resume the stream
//! **exactly once** — no acked-certified publish lost (the WAL replay
//! must recover parked obvents and durable subscriptions), and no obvent
//! delivered twice across incarnations (the persistent delivered set must
//! survive the fault).
//!
//! Each seed derives a scenario: a publish workload, a message-loss rate
//! for the chaos window, and one or two restart cycles of the subscriber
//! node, each with a sampled [`DiskFault`] (lost un-fsynced suffixes,
//! torn tail writes, whole-segment loss) and a re-attach delay during
//! which arrivals are parked. Loss is phased — lossless warmup so the
//! subscription announcement converges, lossy chaos window, lossless
//! settle — so the completeness half of the oracle is sound: once the
//! network heals, certified retransmission guarantees eventual delivery,
//! and anything still missing was genuinely lost by the disk.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psc_dace::{DaceConfig, DaceNode};
use psc_obvent::builtin::Certified;
use psc_obvent::declare_obvent_model;
use psc_simnet::{DiskFault, NodeId, SimNet};
use pubsub_core::FilterSpec;

use crate::dimension::{edited, without_each, Dimension, Run};
use crate::fixture::{chaos_sim, exactly_once, run_chaos, subscribe, Sink};

declare_obvent_model! {
    /// The durable fuzz workload: a certified obvent carrying its publish
    /// index.
    pub class DurTick implements [Certified] { n: u64 }
}

/// The durable identity every subscriber incarnation re-attaches under.
const DURABLE_ID: u64 = 0xD0B1;

/// The node hosting the durable subscription (and eating the disk faults).
const SUB_NODE: usize = 1;

/// One certified publication of a durable scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurablePub {
    /// Publishing node (never [`SUB_NODE`]).
    pub node: usize,
    /// Virtual time of the publish (ms).
    pub at_ms: u64,
}

/// One crash–restart cycle of the subscriber node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPlan {
    /// Crash time (ms).
    pub at_ms: u64,
    /// Outage length; the node recovers at `at_ms + down_ms`.
    pub down_ms: u64,
    /// Parking window: the application re-attaches under [`DURABLE_ID`]
    /// this long after recovery, so certified retransmissions arriving in
    /// between are parked (and must survive the *next* fault).
    pub reattach_after_ms: u64,
    /// Disk damage applied at the crash.
    pub fault: DiskFault,
}

impl RestartPlan {
    fn fault_name(&self) -> String {
        match self.fault {
            DiskFault::None => "none".into(),
            DiskFault::LoseUnsynced => "lose-unsynced".into(),
            DiskFault::TornTail { drop_bytes } => format!("torn-tail({drop_bytes})"),
            DiskFault::DropUnsyncedSegments => "drop-unsynced-segments".into(),
        }
    }
}

/// A seed-derived durable-restart scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableScenario {
    /// Generating seed (also seeds the network).
    pub seed: u64,
    /// Cluster size (2 or 3; node [`SUB_NODE`] subscribes, the rest publish).
    pub nodes: usize,
    /// Message-loss probability during the chaos window (the warmup and
    /// the final settle run lossless).
    pub loss: f64,
    /// Certified publish workload; publish `i` carries value `i`.
    pub pubs: Vec<DurablePub>,
    /// Restart cycles of the subscriber node, in time order.
    pub restarts: Vec<RestartPlan>,
}

/// Attaches one subscriber incarnation under the durable identity.
fn attach(sim: &mut SimNet, node: NodeId) -> Sink {
    subscribe(sim, node, FilterSpec::accept_all(), |e: &DurTick| *e.n(), |sub| {
        sub.activate_with_id(DURABLE_ID).expect("durable attach");
        sub.detach();
    })
}

/// The durable-restart dimension. `drop_syncs == true` is the broken
/// control: every node sits on a disk that acknowledges fsyncs without
/// performing them ([`psc_simnet::Storage::drop_syncs`]), and the oracle
/// must catch the ghost/dup that eventually produces (see the pinned
/// regression seed in `harness_smoke`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Durable {
    /// Put every node on a disk that drops its sync barriers.
    pub drop_syncs: bool,
}

impl Dimension for Durable {
    type Scenario = DurableScenario;
    const NAME: &'static str = "durable";

    fn generate(&self, seed: u64) -> DurableScenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd07a_b1e5_d5ee_d003);
        let nodes = rng.gen_range(2..=3usize);
        let loss = [0.0, 0.05, 0.1, 0.2][rng.gen_range(0..4usize)];
        let pubs: Vec<DurablePub> = (0..rng.gen_range(4..=10usize))
            .map(|i| DurablePub {
                node: if nodes == 3 && rng.gen_bool(0.3) { 2 } else { 0 },
                at_ms: 50 + i as u64 * 60 + rng.gen_range(0..40u64),
            })
            .collect();
        let last_pub = pubs.last().expect("non-empty workload").at_ms;
        let mut restarts = Vec::new();
        let mut cursor = 80u64;
        for _ in 0..rng.gen_range(1..=2usize) {
            let slack = last_pub.saturating_sub(cursor).min(250);
            let at_ms = cursor + rng.gen_range(0..=slack);
            let down_ms = rng.gen_range(40..=160u64);
            let reattach_after_ms = rng.gen_range(20..=120u64);
            let fault = match rng.gen_range(0..6u32) {
                0 => DiskFault::None,
                1 | 2 => DiskFault::LoseUnsynced,
                3 => DiskFault::TornTail { drop_bytes: rng.gen_range(1..=64usize) },
                _ => DiskFault::DropUnsyncedSegments,
            };
            restarts.push(RestartPlan { at_ms, down_ms, reattach_after_ms, fault });
            cursor = at_ms + down_ms + reattach_after_ms + 40;
        }
        DurableScenario { seed, nodes, loss, pubs, restarts }
    }

    fn describe(&self, scenario: &DurableScenario) -> String {
        let mut out = format!(
            "durable scenario seed={} nodes={} loss={}\n",
            scenario.seed, scenario.nodes, scenario.loss
        );
        for (i, p) in scenario.pubs.iter().enumerate() {
            out.push_str(&format!("  pub#{i} node={} at={}ms\n", p.node, p.at_ms));
        }
        for (i, r) in scenario.restarts.iter().enumerate() {
            out.push_str(&format!(
                "  restart#{i} crash={}ms down={}ms reattach_after={}ms fault={}\n",
                r.at_ms,
                r.down_ms,
                r.reattach_after_ms,
                r.fault_name()
            ));
        }
        out
    }

    /// Executes the scenario and applies the durability oracle. The
    /// rendering lists the values delivered to each subscriber incarnation,
    /// in delivery order (incarnation 0 runs from startup to the first
    /// crash).
    fn run(&self, scenario: &DurableScenario) -> Run {
        let _ = DurTick::kind();
        let drop_syncs = self.drop_syncs;
        let mut sim = chaos_sim(scenario.seed);
        let ids: Vec<NodeId> = (0..scenario.nodes as u64).map(NodeId).collect();
        for i in 0..scenario.nodes {
            sim.add_node(format!("d{i}"), DaceNode::factory(ids.clone(), DaceConfig::default()));
            // Small segments, so realistic workloads cross rotation (and
            // sometimes compaction) boundaries.
            sim.act_now(ids[i], move |_, ctx| {
                ctx.storage().set_wal_limits(1024, 4096);
                if drop_syncs {
                    ctx.storage().drop_syncs();
                }
            });
        }
        let mut sinks = vec![attach(&mut sim, ids[SUB_NODE])];

        enum Ev {
            Pub(usize),
            Crash(DiskFault),
            Recover,
            Reattach,
        }
        let mut timeline: Vec<(u64, Ev)> = Vec::new();
        for (i, p) in scenario.pubs.iter().enumerate() {
            timeline.push((p.at_ms, Ev::Pub(i)));
        }
        for r in &scenario.restarts {
            timeline.push((r.at_ms, Ev::Crash(r.fault)));
            timeline.push((r.at_ms + r.down_ms, Ev::Recover));
            timeline.push((r.at_ms + r.down_ms + r.reattach_after_ms, Ev::Reattach));
        }
        run_chaos(&mut sim, scenario.loss, timeline, |sim, ev| match ev {
            Ev::Pub(i) => {
                DaceNode::publish_from(sim, ids[scenario.pubs[i].node], DurTick::new(i as u64));
            }
            Ev::Crash(fault) => sim.crash_with_fault(ids[SUB_NODE], fault),
            Ev::Recover => sim.recover(ids[SUB_NODE]),
            Ev::Reattach => sinks.push(attach(sim, ids[SUB_NODE])),
        });

        let got: Vec<Vec<u64>> = sinks.iter().map(|s| s.lock().unwrap().clone()).collect();
        let rendered = got
            .iter()
            .enumerate()
            .map(|(i, got)| format!("  inc#{i} got={got:?}\n"))
            .collect();

        // The cross-restart exactly-once oracle: over the union of all
        // incarnations, every certified publish appears exactly once.
        let mut findings = Vec::new();
        let delivered = got.iter().flatten();
        exactly_once("durable subscriber", scenario.pubs.len(), delivered, &mut findings);
        Run { rendered, findings }
    }

    /// Delete a publish (the oracle needs at least one to count) or a
    /// restart cycle, weaken a surviving fault toward [`DiskFault::None`],
    /// zero the loss rate.
    fn reductions(&self, scenario: &DurableScenario) -> Vec<DurableScenario> {
        let mut out = Vec::new();
        if scenario.pubs.len() > 1 {
            out = without_each(scenario, |s| &mut s.pubs);
        }
        out.extend(without_each(scenario, |s| &mut s.restarts));
        for (i, r) in scenario.restarts.iter().enumerate() {
            let weaker: &[DiskFault] = match r.fault {
                DiskFault::None => &[],
                DiskFault::LoseUnsynced => &[DiskFault::None],
                _ => &[DiskFault::LoseUnsynced, DiskFault::None],
            };
            out.extend(
                weaker.iter().map(|&fault| edited(scenario, |s| s.restarts[i].fault = fault)),
            );
        }
        if scenario.loss > 0.0 {
            out.push(edited(scenario, |s| s.loss = 0.0));
        }
        out
    }
}
