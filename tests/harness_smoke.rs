//! Tier-1 entry points of the deterministic simulation harness. Every
//! sweep walks `psc_harness::dimension::table`, whose rows carry the seed
//! counts:
//!
//! - 50 randomized group-protocol seeds (scenario generation → execution →
//!   invariant oracles; `Reliable`, `Fifo`, `Causal` and `Total` must
//!   deliver everything on every crash-free run, loss and healed
//!   partitions included), plus seeds 77, 138, 141, 253 and 11 693 pinned
//!   as regressions;
//! - 25 full-stack seeds (DACE routing with supertype subscriptions and
//!   remote filters) and 10 churn-storm seeds over the same workload;
//! - 10 durable-restart seeds (certified subscriber crash-restarted with
//!   injected disk faults; cross-restart exactly-once oracle);
//! - 10 snapshot seeds (Chandy–Lamport cuts taken mid-chaos; byte-stable
//!   rendering, clock-consistency / no-ghost / coverage oracles over the
//!   assembled cluster image);
//!
//! each seed run twice and compared byte-for-byte (determinism oracle).
//! Then the oracle-sensitivity proofs — broken FIFO and causal protocols,
//! disks that drop their fsyncs and a skewed marker discipline must each be
//! caught and shrunk to a readable, seed-stamped counterexample through
//! the same driver — and a long fuzz mode gated behind `HARNESS_FUZZ=N`
//! (used by nightly CI, each run on its own `HARNESS_FUZZ_BASE` window).
//!
//! Replay any failing seed with `HARNESS_SEED=<seed> cargo test --test
//! harness_smoke`.

use std::sync::Arc;

use psc_harness::broken::{BrokenCausal, BrokenFifo, SkewedMarkers, Stalling};
use psc_harness::dimension::{self, Dimension};
use psc_harness::durable::Durable;
use psc_harness::runner::{self, Group, ProtoFactory};
use psc_harness::snapshot::Snapshot;
use psc_harness::{Op, ProtocolKind, Scenario, Violation};

/// The tier-1 sweep of one table row.
fn smoke(name: &str) {
    let row = dimension::named(name).expect("a shipped dimension");
    for seed in dimension::smoke_seeds(row.smoke_seeds) {
        if let Err(report) = (row.check)(seed) {
            panic!("{report}");
        }
    }
}

#[test]
fn group_layer_smoke_over_50_seeds() {
    smoke("group");
}

#[test]
fn full_stack_routing_smoke_over_25_seeds() {
    smoke("stack");
}

#[test]
fn churn_storm_matching_smoke_over_10_seeds() {
    smoke("churn");
}

/// Group seeds the ordered kinds used to fail under loss, pinned: one
/// lost frame stalled a `Fifo` or `Causal` origin's stream for good, since
/// only `Reliable` retransmitted from the origin, and `Total`'s own repair
/// missed a trailing message. All four now share that delivery layer, and
/// the group row asserts completeness for them on every crash-free run.
fn group_seed_completes_under_loss(seed: u64, protocol: ProtocolKind) {
    let scenario = Scenario::generate(seed);
    assert_eq!(scenario.protocol, protocol, "seed {seed}");
    assert!(scenario.loss > 0.0 && scenario.expects_completeness(), "seed {seed}");
    if let Err(report) = dimension::check(&Group::default(), seed) {
        panic!("{report}");
    }
}

#[test]
fn group_seed_77_fifo_under_loss_delivers_everything() {
    group_seed_completes_under_loss(77, ProtocolKind::Fifo);
}

#[test]
fn group_seed_138_causal_under_loss_delivers_everything() {
    group_seed_completes_under_loss(138, ProtocolKind::Causal);
}

#[test]
fn group_seed_141_total_under_loss_delivers_everything() {
    group_seed_completes_under_loss(141, ProtocolKind::Total);
}

/// A fault-free group seed on which `Total` delivered a publisher's
/// obvents out of publish order: submissions raced to the sequencer, which
/// ordered them as they arrived. Total order implies FIFO order.
#[test]
fn group_seed_253_total_keeps_publisher_order() {
    let scenario = Scenario::generate(253);
    assert_eq!(scenario.protocol, ProtocolKind::Total);
    assert_eq!(scenario.loss, 0.0);
    assert!(!scenario.ops.iter().any(|op| !matches!(op, Op::Publish { .. })));
    if let Err(report) = dimension::check(&Group::default(), 253) {
        panic!("{report}");
    }
}

/// A causal group seed (4 nodes, loss 0.264) whose node 3 delivered #0 and
/// then its own #1, crashed, and re-delivered #0 in its next incarnation.
/// The causal oracle keyed each publish by its last position across
/// incarnations and read #1 as delivered before #0; it now judges each
/// receiver incarnation on its own, like the duplicate and FIFO checks.
#[test]
fn group_seed_11693_causal_is_judged_per_receiver_incarnation() {
    let scenario = Scenario::generate(11_693);
    assert_eq!(scenario.protocol, ProtocolKind::Causal);
    assert!(scenario.ops.iter().any(|op| matches!(op, Op::CrashWindow { .. })));
    if let Err(report) = dimension::check(&Group::default(), 11_693) {
        panic!("{report}");
    }
}

/// Durable-restart sweep: a certified subscriber crash-restarted with
/// injected disk faults (lost un-fsynced suffixes, torn tails, dropped
/// segments) must resume its stream exactly once across incarnations.
#[test]
fn durable_restart_smoke_over_10_seeds() {
    smoke("durable");
}

/// Snapshot sweep: a Chandy–Lamport cut taken while certified traffic,
/// loss and (sometimes) a subscriber outage are in flight must complete
/// and satisfy the global-invariant oracles (clock consistency, no ghosts,
/// three-way publish coverage, end-state exactly-once).
#[test]
fn snapshot_cut_smoke_over_10_seeds() {
    smoke("snapshot");
}

#[test]
fn same_seed_produces_byte_identical_reports() {
    for row in dimension::table() {
        for seed in [3u64, 17, 29, 41] {
            assert_eq!(
                (row.replay)(seed),
                (row.replay)(seed),
                "{} seed {seed} must replay identically",
                row.name
            );
        }
    }
}

/// What every broken control must show through the driver: the healthy
/// variant passes `scenario`, the broken one is caught with a finding
/// matching `expected`, and the failure report carries the replay banner
/// and a shrunk counterexample that still reproduces and never grew
/// (`size` counts a scenario's operations). Returns the shrunk scenario.
fn assert_caught_and_shrunk<D: Dimension>(
    healthy: &D,
    broken: &D,
    seed: u64,
    scenario: &D::Scenario,
    expected: impl Fn(&str) -> bool,
    size: impl Fn(&D::Scenario) -> usize,
) -> D::Scenario {
    // Control: the healthy variant sails through this exact schedule, so
    // any finding below is the injected defect, not oracle noise.
    if let Err(report) = dimension::check_scenario(healthy, seed, scenario) {
        panic!("the healthy {} variant must pass:\n{report}", D::NAME);
    }

    let run = broken.run(scenario);
    assert!(
        run.findings.iter().any(|v| expected(v)),
        "the oracle must catch the injected defect:\n{}",
        dimension::report(broken, scenario, &run)
    );

    let report = dimension::check_scenario(broken, seed, scenario)
        .expect_err("the driver must fail the broken variant");
    let banner = format!("replay with: HARNESS_SEED={seed} cargo test --test harness_smoke");
    assert!(report.contains(&banner), "{report}");
    assert!(report.contains("=== shrunk counterexample ==="), "{report}");

    let shrunk = dimension::shrink(broken, scenario);
    assert!(size(&shrunk) <= size(scenario), "shrinking must never grow the schedule");
    assert!(
        !broken.run(&shrunk).findings.is_empty(),
        "the shrunk schedule must still reproduce:\n{}",
        broken.describe(&shrunk)
    );
    shrunk
}

/// Oracle-sensitivity proof for the durability dimension: the same WAL on
/// disks that acknowledge fsyncs without performing them
/// (`Storage::drop_syncs`) must lose acked certified publishes under a
/// disk-fault restart, and the oracle must say so.
#[test]
fn broken_wal_sync_is_caught_and_shrunk_by_the_durability_oracle() {
    let healthy = Durable::default();
    assert_caught_and_shrunk(
        &healthy,
        &Durable { drop_syncs: true },
        0,
        &healthy.generate(0),
        |v| v.contains("never delivered") || v.contains("exactly-once broken"),
        |s| s.pubs.len() + s.restarts.len(),
    );
}

/// Oracle-sensitivity proof for the snapshot dimension: disabling the
/// Lai–Yang capture-before-processing rule (capture on marker arrival
/// only — the classic Chandy–Lamport misuse over non-FIFO links) must be
/// caught by the cut oracles as an inconsistent cut or a ghost delivery.
/// The race is probabilistic per schedule, so the proof sweeps the smoke
/// seeds (which the correct discipline passes): the broken one must trip
/// on at least one.
#[test]
fn skewed_markers_are_caught_and_shrunk_by_the_cut_oracles() {
    let healthy = Snapshot::default();
    let skewed = Snapshot { make_node: SkewedMarkers::node };
    let seed = (0..10u64)
        .find(|&seed| !skewed.run(&skewed.generate(seed)).findings.is_empty())
        .expect("the cut oracles must catch the skewed markers on at least one of 10 seeds");
    assert_caught_and_shrunk(
        &healthy,
        &skewed,
        seed,
        &skewed.generate(seed),
        |v| v.contains("cut inconsistency") || v.contains("ghost"),
        |s| s.pubs.len() + s.crashes.len(),
    );
}

#[test]
fn broken_fifo_is_caught_and_shrunk_to_a_seed_stamped_counterexample() {
    // A schedule built to reorder per-publisher messages in flight: one
    // publisher, back-to-back publishes, wide latency jitter.
    let scenario = Scenario {
        seed: 7,
        protocol: ProtocolKind::Fifo,
        nodes: 3,
        loss: 0.0,
        latency_ms: (1, 15),
        settle_ms: 2_000,
        ops: (0..8).map(|i| Op::Publish { node: 0, at_ms: 10 + i }).collect(),
    };
    let make: ProtoFactory = Arc::new(|| Box::new(BrokenFifo::default()));
    let broken = Group { make: Some(make) };
    let shrunk = assert_caught_and_shrunk(
        &Group::default(),
        &broken,
        scenario.seed,
        &scenario,
        |v| v.contains("broke FIFO"),
        |s| s.ops.len(),
    );
    assert!(
        shrunk.ops.len() < scenario.ops.len(),
        "shrinking must remove schedule operations"
    );
    assert!(
        shrunk.ops.len() >= 2,
        "a FIFO inversion needs at least two publishes"
    );
    assert!(
        broken.describe(&shrunk).contains("seed=7"),
        "the counterexample must carry its seed:\n{}",
        broken.describe(&shrunk)
    );
}

/// Oracle-sensitivity proof for causal order: a "causal" broadcast that
/// delivers on arrival. Each of four origins publishes once, 5 ms apart,
/// over 1–30 ms links, so per-origin order cannot break and the finding is
/// the causal oracle's alone; it shrinks to fewer publishes that still
/// invert a dependency.
#[test]
fn broken_causal_is_caught_and_shrunk_by_the_causal_oracle() {
    let scenario = Scenario {
        seed: 7,
        protocol: ProtocolKind::Causal,
        nodes: 4,
        loss: 0.0,
        latency_ms: (1, 30),
        settle_ms: 2_000,
        ops: (0..4).map(|node| Op::Publish { node, at_ms: 10 + 5 * node as u64 }).collect(),
    };
    let make: ProtoFactory = Arc::new(|| Box::new(BrokenCausal::default()));
    let broken = Group { make: Some(make) };
    let shrunk = assert_caught_and_shrunk(
        &Group::default(),
        &broken,
        scenario.seed,
        &scenario,
        |v| v.contains("causal predecessor"),
        |s| s.ops.len(),
    );
    let findings = broken.run(&scenario).findings;
    assert!(findings.iter().all(|v| !v.contains("FIFO")), "{findings:?}");
    assert!(
        (2..scenario.ops.len()).contains(&shrunk.ops.len()),
        "an inversion needs two publishes, and shrinking removes the rest:\n{}",
        broken.describe(&shrunk)
    );
}

/// The flight-recorder acceptance check: a protocol that parks every
/// foreign message forever must (a) trip the completeness oracle, (b) be
/// flagged by the stall watchdog with the *name* of the stuck queue and the
/// unprogressed publishes, and (c) produce text + JSON post-mortems that
/// are byte-stable across two runs of the same seed.
#[test]
fn stalling_protocol_yields_byte_stable_post_mortem_naming_the_stuck_queue() {
    let scenario = Scenario {
        seed: 11,
        protocol: ProtocolKind::Reliable,
        nodes: 3,
        loss: 0.0,
        latency_ms: (1, 2),
        settle_ms: 2_000,
        ops: vec![
            Op::Publish { node: 0, at_ms: 10 },
            Op::Publish { node: 1, at_ms: 20 },
        ],
    };
    let make: ProtoFactory = Arc::new(|| Box::new(Stalling::default()));
    let stalling = Group { make: Some(Arc::clone(&make)) };
    let outcome = runner::run_scenario_with(&scenario, make);
    let report = runner::report(&scenario, &outcome);

    assert!(
        outcome
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingDelivery { .. })),
        "parked messages must show as missing deliveries: {report}"
    );
    assert!(
        outcome
            .health
            .iter()
            .any(|h| h.name == "health.stall.stalling.buffer" && !h.undelivered.is_empty()),
        "the watchdog must name the stuck queue and the unprogressed publishes: {report}"
    );
    assert!(report.contains("health.stall.stalling.buffer"), "{report}");
    assert!(report.contains("undelivered publishes"), "{report}");

    let dump = stalling.post_mortem(&scenario).expect("the group dimension dumps recorders");
    assert_eq!(
        Some(&dump),
        stalling.post_mortem(&scenario).as_ref(),
        "text and JSON post-mortems must be byte-stable across replays of one seed"
    );
    assert!(dump.text.contains("flight-recorder n0"), "{}", dump.text);
    assert!(dump.json.contains("stalling.buffer"), "{}", dump.json);
}

/// Each table row gets its share of the `HARNESS_FUZZ` budget. The window
/// is printed first and again above a failure's replay banner.
#[test]
fn long_fuzz_mode_behind_env_var() {
    let Some(seeds) = dimension::fuzz_seeds() else {
        return; // HARNESS_FUZZ not set: nothing to do in tier-1 runs
    };
    let base = seeds.first().copied().unwrap_or_default();
    let window = format!(
        "fuzz window: seeds {base}..{} (HARNESS_FUZZ_BASE={base} HARNESS_FUZZ={})",
        base + seeds.len() as u64,
        seeds.len()
    );
    println!("{window}");
    for row in dimension::table() {
        for &seed in seeds.iter().take(seeds.len() / row.fuzz_divisor) {
            if let Err(report) = (row.check)(seed) {
                panic!("{window}\n{report}");
            }
        }
    }
}
