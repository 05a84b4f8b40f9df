//! Tier-1 entry points of the deterministic simulation harness.
//!
//! - a 50-seed randomized sweep over the group protocols (scenario
//!   generation → execution → invariant oracles), each seed run twice and
//!   compared byte-for-byte (determinism oracle);
//! - a 25-seed full-stack sweep (DACE routing with supertype subscriptions
//!   and remote filters);
//! - a 10-seed durable-restart sweep (certified subscriber crash-restarted
//!   with injected disk faults; cross-restart exactly-once oracle);
//! - a 10-seed snapshot sweep (Chandy–Lamport cuts taken mid-chaos;
//!   byte-stable rendering, clock-consistency / no-ghost / coverage
//!   oracles over the assembled cluster image);
//! - an oracle-sensitivity proof: a deliberately broken FIFO protocol must
//!   be caught and shrunk to a readable, seed-stamped counterexample;
//! - a long fuzz mode gated behind `HARNESS_FUZZ=N` (used by nightly CI).
//!
//! Replay any failing seed with `HARNESS_SEED=<seed> cargo test --test
//! harness_smoke`.

use std::sync::Arc;

use psc_harness::broken::{BrokenFifo, SkewedMarkers, Stalling};
use psc_harness::runner::{self, ProtoFactory};
use psc_harness::{durable, snapshot, stack};
use psc_harness::{Op, ProtocolKind, Scenario, Violation};

#[test]
fn group_layer_smoke_over_50_seeds() {
    let seeds = runner::smoke_seeds(50);
    if let Err(report) = runner::smoke(&seeds) {
        panic!("{report}");
    }
}

#[test]
fn full_stack_routing_smoke_over_25_seeds() {
    for seed in runner::smoke_seeds(25) {
        if let Err(report) = stack::check_stack_seed(seed) {
            panic!("{report}");
        }
    }
}

/// Durable-restart sweep: a certified subscriber crash-restarted with
/// injected disk faults (lost un-fsynced suffixes, torn tails, dropped
/// segments) must resume its stream exactly once across incarnations, and
/// each seed must render byte-for-byte identically across two runs.
#[test]
fn durable_restart_smoke_over_10_seeds() {
    for seed in runner::smoke_seeds(10) {
        if let Err(report) = durable::check_durable_seed(seed) {
            panic!("{report}");
        }
    }
}

/// Oracle-sensitivity proof for the durability dimension: the same WAL on
/// disks that acknowledge fsyncs without performing them
/// (`Storage::drop_syncs`) must lose acked certified publishes under a
/// disk-fault restart, the oracle must say so, and greedy shrinking must
/// keep the counterexample reproducing.
#[test]
fn broken_wal_sync_is_caught_and_shrunk_by_the_durability_oracle() {
    let scenario = durable::DurableScenario::generate(0);

    // Control: honest disks sail through this exact
    // schedule, so any finding below is the injected defect.
    let healthy = durable::run_durable(&scenario);
    assert!(
        healthy.violations.is_empty(),
        "honest disks must pass seed 0:\n{}{}",
        scenario.describe(),
        healthy.render()
    );

    let broken = durable::run_durable_with(&scenario, true);
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.contains("lost across restarts") || v.contains("exactly-once broken")),
        "the durability oracle must catch the dropped fsync barriers:\n{}{}",
        scenario.describe(),
        broken.render()
    );

    let shrunk = durable::shrink_durable(&scenario, true);
    assert!(
        shrunk.pubs.len() <= scenario.pubs.len() && shrunk.restarts.len() <= scenario.restarts.len(),
        "shrinking must never grow the schedule"
    );
    let shrunk_outcome = durable::run_durable_with(&shrunk, true);
    assert!(
        !shrunk_outcome.violations.is_empty(),
        "the shrunk durable schedule must still reproduce:\n{}",
        shrunk.describe()
    );
}

/// Snapshot sweep: a Chandy–Lamport cut taken while certified traffic,
/// loss and (sometimes) a subscriber outage are in flight must complete,
/// render byte-for-byte identically across two runs, and satisfy the
/// global-invariant oracles (clock consistency, no ghosts, three-way
/// publish coverage, end-state exactly-once).
#[test]
fn snapshot_cut_smoke_over_10_seeds() {
    for seed in runner::smoke_seeds(10) {
        if let Err(report) = snapshot::check_snapshot_seed(seed) {
            panic!("{report}");
        }
    }
}

/// Oracle-sensitivity proof for the snapshot dimension: disabling the
/// Lai–Yang capture-before-processing rule (capture on marker arrival
/// only — the classic Chandy–Lamport misuse over non-FIFO links) must be
/// caught by the cut oracles, and greedy shrinking must keep the
/// counterexample reproducing. The race is probabilistic per schedule, so
/// the proof sweeps seeds: the correct discipline passes every one, the
/// broken one must trip on at least one.
#[test]
fn skewed_markers_are_caught_and_shrunk_by_the_cut_oracles() {
    let mut caught = None;
    for seed in 0..10u64 {
        let scenario = snapshot::SnapScenario::generate(seed);

        // Control: the correct discipline sails through this exact
        // schedule, so any finding below is the injected defect.
        let healthy = snapshot::run_snapshot(&scenario);
        assert!(
            healthy.violations.is_empty(),
            "the correct capture discipline must pass seed {seed}:\n{}{}{}",
            scenario.describe(),
            healthy.render(),
            healthy.violations.join("\n")
        );

        let skewed = snapshot::run_snapshot_with(&scenario, SkewedMarkers::node);
        if !skewed.violations.is_empty() && caught.is_none() {
            caught = Some((scenario, skewed));
        }
    }
    let (scenario, skewed) = caught.expect(
        "the cut oracles must catch the skewed marker discipline on at least one of 10 seeds",
    );
    assert!(
        skewed
            .violations
            .iter()
            .any(|v| v.contains("cut inconsistency") || v.contains("ghost")),
        "the defect must manifest as an inconsistent cut or a ghost delivery:\n{}",
        skewed.violations.join("\n")
    );

    let shrunk = snapshot::shrink_snapshot(&scenario, SkewedMarkers::node);
    assert!(
        shrunk.pubs.len() <= scenario.pubs.len()
            && shrunk.crashes.len() <= scenario.crashes.len(),
        "shrinking must never grow the schedule"
    );
    let shrunk_outcome = snapshot::run_snapshot_with(&shrunk, SkewedMarkers::node);
    assert!(
        !shrunk_outcome.violations.is_empty(),
        "the shrunk snapshot schedule must still reproduce:\n{}",
        shrunk.describe()
    );
}

#[test]
fn churn_storm_matching_smoke_over_10_seeds() {
    for seed in runner::smoke_seeds(10) {
        if let Err(report) = stack::check_churn_seed(seed) {
            panic!("{report}");
        }
    }
}

#[test]
fn same_seed_produces_byte_identical_reports() {
    for seed in [3u64, 17, 29, 41] {
        let (s1, o1) = runner::run_seed(seed);
        let (s2, o2) = runner::run_seed(seed);
        assert_eq!(
            runner::report(&s1, &o1),
            runner::report(&s2, &o2),
            "seed {seed} must replay identically"
        );
    }
}

/// A schedule built to reorder per-publisher messages in flight: one
/// publisher, back-to-back publishes, wide latency jitter.
fn reorder_prone_fifo_scenario() -> Scenario {
    Scenario {
        seed: 7,
        protocol: ProtocolKind::Fifo,
        nodes: 3,
        loss: 0.0,
        latency_ms: (1, 15),
        settle_ms: 2_000,
        ops: (0..8).map(|i| Op::Publish { node: 0, at_ms: 10 + i }).collect(),
    }
}

#[test]
fn broken_fifo_is_caught_and_shrunk_to_a_seed_stamped_counterexample() {
    let scenario = reorder_prone_fifo_scenario();

    // Control: the real FIFO protocol sails through the same schedule, so
    // any finding below is the injected defect, not oracle noise.
    let healthy = runner::run_scenario(&scenario);
    assert!(
        healthy.violations.is_empty(),
        "real Fifo must pass: {}",
        runner::report(&scenario, &healthy)
    );

    let make: ProtoFactory = Arc::new(|| Box::new(BrokenFifo::new()));
    let outcome = runner::run_scenario_with(&scenario, Arc::clone(&make));
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| matches!(v, Violation::FifoOrder { .. })),
        "the FIFO oracle must catch the disabled sequence check: {}",
        runner::report(&scenario, &outcome)
    );

    let shrunk = runner::shrink(&scenario, &make);
    assert!(
        shrunk.ops.len() < scenario.ops.len(),
        "shrinking must remove schedule operations"
    );
    assert!(
        shrunk.ops.len() >= 2,
        "a FIFO inversion needs at least two publishes"
    );
    let shrunk_outcome = runner::run_scenario_with(&shrunk, make);
    assert!(
        !shrunk_outcome.violations.is_empty(),
        "the shrunk schedule must still reproduce"
    );
    let report = runner::report(&shrunk, &shrunk_outcome);
    assert!(
        report.contains("seed=7"),
        "the counterexample must carry its seed:\n{report}"
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
    let make: ProtoFactory = Arc::new(|| Box::new(Stalling::new()));
    let first = runner::run_scenario_with(&scenario, Arc::clone(&make));
    let second = runner::run_scenario_with(&scenario, make);

    assert!(
        first
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingDelivery { .. })),
        "parked messages must show as missing deliveries: {}",
        runner::report(&scenario, &first)
    );
    assert!(
        first
            .health
            .iter()
            .any(|h| h.name == "health.stall.stalling.buffer" && !h.undelivered.is_empty()),
        "the watchdog must name the stuck queue and the unprogressed publishes: {}",
        runner::report(&scenario, &first)
    );

    let dump = runner::post_mortem(&scenario, &first);
    assert_eq!(
        dump,
        runner::post_mortem(&scenario, &second),
        "text post-mortem must be byte-stable across replays of one seed"
    );
    assert_eq!(
        runner::post_mortem_json(&scenario, &first),
        runner::post_mortem_json(&scenario, &second),
        "JSON post-mortem must be byte-stable across replays of one seed"
    );
    assert!(dump.contains("health.stall.stalling.buffer"), "{dump}");
    assert!(dump.contains("undelivered publishes"), "{dump}");
    assert!(dump.contains("flight-recorder n0"), "{dump}");
}

#[test]
fn long_fuzz_mode_behind_env_var() {
    let Some(seeds) = runner::fuzz_seeds() else {
        return; // HARNESS_FUZZ not set: nothing to do in tier-1 runs
    };
    if let Err(report) = runner::smoke(&seeds) {
        panic!("{report}");
    }
    // Fan a quarter of the budget into the full-stack fuzzer too.
    for &seed in seeds.iter().take(seeds.len() / 4) {
        if let Err(report) = stack::check_stack_seed(seed) {
            panic!("{report}");
        }
    }
    // And the whole budget into the disk-fault dimension: durable runs are
    // cheap (small clusters, short schedules) and the fault space is wide.
    for &seed in &seeds {
        if let Err(report) = durable::check_durable_seed(seed) {
            panic!("{report}");
        }
    }
    // Half the budget into the snapshot dimension: every fuzzed cut is a
    // fresh race between wave-tagged traffic, markers and outages.
    for &seed in seeds.iter().take(seeds.len() / 2) {
        if let Err(report) = snapshot::check_snapshot_seed(seed) {
            panic!("{report}");
        }
    }
}
