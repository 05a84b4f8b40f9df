//! Golden replay digests: the executable form of "harness reports are
//! byte-identical". Each constant is the FNV-1a/64 digest of a seeded
//! harness report captured at commit `b144500`; a refactor of the stack
//! under the harness must reproduce every one of them.
//!
//! - `stack`: `StackOutcome::render()` for stack seeds 1–5;
//! - `churn`, `durable`, `snapshot`: the dimension's report (scenario
//!   description, outcome rendering, oracle findings) for seeds 1–3.
//!
//! Nothing in these reports is process-dependent — node ids are simulator
//! indices, times are virtual, and `ClusterCut::render` already leaves
//! wall-clock out — so the whole text is digested.

use psc_harness::{durable, snapshot, stack};

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report(describe: String, render: String, violations: &[String]) -> String {
    let findings: String = violations.iter().map(|v| format!("  {v}\n")).collect();
    describe + &render + &findings
}

fn stack_report(seed: u64) -> String {
    stack::run_stack(&stack::StackScenario::generate(seed)).render()
}

fn churn_report(seed: u64) -> String {
    let scenario = stack::ChurnScenario::generate(seed);
    let outcome = stack::run_churn(&scenario);
    report(scenario.describe(), outcome.render(), &outcome.violations)
}

fn durable_report(seed: u64) -> String {
    let scenario = durable::DurableScenario::generate(seed);
    let outcome = durable::run_durable(&scenario);
    report(scenario.describe(), outcome.render(), &outcome.violations)
}

fn snapshot_report(seed: u64) -> String {
    let scenario = snapshot::SnapScenario::generate(seed);
    let outcome = snapshot::run_snapshot(&scenario);
    report(scenario.describe(), outcome.render(), &outcome.violations)
}

type Dimension = (&'static str, fn(u64) -> String, &'static [(u64, u64)]);

const GOLDEN: [Dimension; 4] = [
    (
        "stack",
        stack_report,
        &[
            (1, 0xa9e9_d995_3e2c_ad10),
            (2, 0xdf70_0575_0c68_d379),
            (3, 0x388e_0e88_6dac_84ae),
            (4, 0x5b50_462e_f9cb_ba66),
            (5, 0x77dd_2332_b699_12b9),
        ],
    ),
    (
        "churn",
        churn_report,
        &[
            (1, 0x08b4_3251_3b64_a8d9),
            (2, 0x53a1_f6ee_3f75_3dfc),
            (3, 0xa518_81ae_5ff7_34d9),
        ],
    ),
    (
        "durable",
        durable_report,
        &[
            (1, 0x6a61_cb4f_3180_e123),
            (2, 0x28e7_f074_53c8_7d35),
            (3, 0xdb0c_d219_4000_a476),
        ],
    ),
    (
        "snapshot",
        snapshot_report,
        &[
            (1, 0x356d_40fd_16e9_81b4),
            (2, 0x779f_a39a_7970_bdc7),
            (3, 0x62f0_2805_2822_9099),
        ],
    ),
];

#[test]
fn harness_reports_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for (dimension, run, digests) in GOLDEN {
        for &(seed, expected) in digests {
            let actual = fnv1a64(&run(seed));
            if actual != expected {
                mismatches.push(format!(
                    "seed={seed} dimension={dimension} expected={expected:#018x} actual={actual:#018x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
