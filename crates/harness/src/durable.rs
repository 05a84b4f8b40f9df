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

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psc_dace::{DaceConfig, DaceNode};
use psc_obvent::builtin::Certified;
use psc_obvent::declare_obvent_model;
use psc_simnet::Duration as SimDuration;
use psc_simnet::{DiskFault, LatencyModel, NodeId, SimConfig, SimNet, SimTime};
use pubsub_core::FilterSpec;

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

impl DurableScenario {
    /// Samples a durable-restart scenario from `seed`.
    pub fn generate(seed: u64) -> DurableScenario {
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

    /// Deterministic description used in reports.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "durable scenario seed={} nodes={} loss={}\n",
            self.seed, self.nodes, self.loss
        );
        for (i, p) in self.pubs.iter().enumerate() {
            out.push_str(&format!("  pub#{i} node={} at={}ms\n", p.node, p.at_ms));
        }
        for (i, r) in self.restarts.iter().enumerate() {
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
}

/// What a durable run observed.
#[derive(Debug, Clone)]
pub struct DurableOutcome {
    /// Values delivered to each subscriber incarnation, in delivery order
    /// (incarnation 0 runs from startup to the first crash).
    pub got: Vec<Vec<u64>>,
    /// Durability-oracle findings, empty on a healthy run.
    pub violations: Vec<String>,
}

impl DurableOutcome {
    /// Canonical rendering (the determinism check compares these).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, got) in self.got.iter().enumerate() {
            out.push_str(&format!("  inc#{i} got={got:?}\n"));
        }
        out
    }
}

type Sink = Arc<Mutex<Vec<u64>>>;

/// Attaches one subscriber incarnation under the durable identity.
fn attach(sim: &mut SimNet, node: NodeId) -> Sink {
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&sink);
    DaceNode::drive(sim, node, move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |e: DurTick| {
            recorder.lock().unwrap().push(*e.n());
        });
        sub.activate_with_id(DURABLE_ID).expect("durable attach");
        sub.detach();
    });
    sink
}

/// Executes a durable scenario on disks that honour their sync barrier and
/// applies the durability oracle.
pub fn run_durable(scenario: &DurableScenario) -> DurableOutcome {
    run_durable_with(scenario, false)
}

/// [`run_durable`] with the disks switchable: `drop_syncs == true` puts
/// every node on a disk that acknowledges fsyncs without performing them
/// ([`psc_simnet::Storage::drop_syncs`]), and the oracle must catch the
/// ghost/dup that eventually produces (see the pinned regression seed in
/// `harness_smoke`).
pub fn run_durable_with(scenario: &DurableScenario, drop_syncs: bool) -> DurableOutcome {
    let _ = DurTick::kind();
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
        Crash(usize),
        Recover,
        Reattach,
    }
    let mut timeline: Vec<(u64, usize, Ev)> = Vec::new();
    for (i, p) in scenario.pubs.iter().enumerate() {
        timeline.push((p.at_ms, timeline.len(), Ev::Pub(i)));
    }
    for (i, r) in scenario.restarts.iter().enumerate() {
        timeline.push((r.at_ms, timeline.len(), Ev::Crash(i)));
        timeline.push((r.at_ms + r.down_ms, timeline.len(), Ev::Recover));
        timeline.push((
            r.at_ms + r.down_ms + r.reattach_after_ms,
            timeline.len(),
            Ev::Reattach,
        ));
    }
    timeline.sort_by_key(|&(at, k, _)| (at, k));

    // Lossless warmup: the durable subscription's announcement converges
    // before any publish, so every certified publish durably targets it.
    sim.run_until(SimTime::from_millis(30));
    sim.set_drop_probability(scenario.loss);

    let mut last_at = 30;
    for (at, _, ev) in timeline {
        sim.run_until(SimTime::from_millis(at));
        match ev {
            Ev::Pub(i) => {
                let p = scenario.pubs[i];
                DaceNode::publish_from(&mut sim, ids[p.node], DurTick::new(i as u64));
            }
            Ev::Crash(i) => sim.crash_with_fault(ids[SUB_NODE], scenario.restarts[i].fault),
            Ev::Recover => sim.recover(ids[SUB_NODE]),
            Ev::Reattach => sinks.push(attach(&mut sim, ids[SUB_NODE])),
        }
        last_at = at;
    }
    // Lossless settle: certified retransmission now guarantees eventual
    // delivery of everything the disk still knows about.
    sim.set_drop_probability(0.0);
    sim.run_until(SimTime::from_millis(last_at + 3_000));

    let got: Vec<Vec<u64>> = sinks.iter().map(|s| s.lock().unwrap().clone()).collect();

    // The cross-restart exactly-once oracle: over the union of all
    // incarnations, every certified publish appears exactly once.
    let mut counts = vec![0usize; scenario.pubs.len()];
    let mut violations = Vec::new();
    for (inc, values) in got.iter().enumerate() {
        for &v in values {
            match counts.get_mut(v as usize) {
                Some(c) => *c += 1,
                None => violations.push(format!("inc#{inc}: ghost delivery of unknown value {v}")),
            }
        }
    }
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            violations.push(format!(
                "durability: certified publish #{i} lost across restarts (never delivered)"
            ));
        } else if c > 1 {
            violations.push(format!(
                "durability: publish #{i} delivered {c} times across incarnations \
                 (exactly-once broken)"
            ));
        }
    }
    DurableOutcome { got, violations }
}

/// Greedy shrinking for durable counterexamples: while the failure
/// reproduces, delete publishes and restart cycles, weaken each surviving
/// fault toward [`DiskFault::None`], and zero the loss rate.
pub fn shrink_durable(scenario: &DurableScenario, drop_syncs: bool) -> DurableScenario {
    let violates =
        |s: &DurableScenario| !run_durable_with(s, drop_syncs).violations.is_empty();
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
        while i < current.restarts.len() {
            let mut candidate = current.clone();
            candidate.restarts.remove(i);
            if violates(&candidate) {
                current = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        for i in 0..current.restarts.len() {
            for weaker in [DiskFault::LoseUnsynced, DiskFault::None] {
                if current.restarts[i].fault == weaker {
                    break;
                }
                let mut candidate = current.clone();
                candidate.restarts[i].fault = weaker;
                if violates(&candidate) {
                    current = candidate;
                    progressed = true;
                    break;
                }
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

/// Writes the text post-mortem of a failing durable run under
/// `HARNESS_DUMP_DIR` (if set); returns the context line for the report.
fn dump_durable_failure(
    seed: u64,
    scenario: &DurableScenario,
    outcome: &DurableOutcome,
) -> String {
    let Ok(dir) = std::env::var("HARNESS_DUMP_DIR") else {
        return String::new();
    };
    let base = std::path::PathBuf::from(dir);
    if std::fs::create_dir_all(&base).is_err() {
        return String::new();
    }
    let path = base.join(format!("durable_postmortem_seed{seed}.txt"));
    let mut dump = format!("=== durable post-mortem seed={seed} ===\n");
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

/// Determinism + durability oracle for one seed; `Err` carries a full
/// replayable report with a shrunk counterexample.
pub fn check_durable_seed(seed: u64) -> Result<(), String> {
    let scenario = DurableScenario::generate(seed);
    let first = run_durable(&scenario);
    let second = run_durable(&scenario);
    if first.render() != second.render() {
        return Err(format!(
            "durable seed {seed}: NONDETERMINISM across identical runs\n{}{}",
            scenario.describe(),
            first.render()
        ));
    }
    if first.violations.is_empty() {
        return Ok(());
    }
    let shrunk = shrink_durable(&scenario, false);
    let shrunk_outcome = run_durable(&shrunk);
    Err(format!(
        "durable seed {seed}: {} durability violation(s)\n\
         replay with: HARNESS_SEED={seed} cargo test --test harness_smoke\n\
         {}{}{}{}\
         === shrunk counterexample ({} pubs, {} restarts) ===\n{}{}",
        first.violations.len(),
        dump_durable_failure(seed, &scenario, &first),
        scenario.describe(),
        first.render(),
        first
            .violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>(),
        shrunk.pubs.len(),
        shrunk.restarts.len(),
        shrunk.describe(),
        shrunk_outcome.render(),
    ))
}
