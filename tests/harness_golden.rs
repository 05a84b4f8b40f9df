//! Golden replay digests: the executable form of "harness reports are
//! byte-identical". Each constant is the FNV-1a/64 digest of a seeded
//! harness report captured at commit `b144500`; a refactor of the stack
//! under the harness must reproduce every one of them. `durable` seeds 1
//! and 3 and `snapshot` seed 3 were re-captured when subscription
//! anti-entropy became a digest plus a pull: control traffic is part of
//! what those reports show (an in-flight control frame's size in a cut,
//! and arrival orders that follow the simulator's shared loss and latency
//! draws).
//!
//! - `stack`: the run's rendering (`StackOutcome::render()`) for stack
//!   seeds 1–5;
//! - `churn`, `durable`, `snapshot`: the dimension's report (scenario
//!   description, run rendering, oracle findings) for seeds 1–3.
//!
//! Every text is computed through `psc_harness::dimension::table`.
//!
//! Nothing in these reports is process-dependent — node ids are simulator
//! indices, times are virtual, and `ClusterCut::render` already leaves
//! wall-clock out — so the whole text is digested.

use psc_harness::dimension;

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digested text of one seed, computed through the dimension table.
fn replay(dimension: &str, seed: u64) -> String {
    let row = dimension::named(dimension).expect("a shipped dimension");
    let (report, run) = (row.replay)(seed);
    if dimension == "stack" {
        run.rendered // pinned as the outcome rendering alone
    } else {
        report
    }
}

const GOLDEN: [(&str, &[(u64, u64)]); 4] = [
    (
        "stack",
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
        &[
            (1, 0x08b4_3251_3b64_a8d9),
            (2, 0x53a1_f6ee_3f75_3dfc),
            (3, 0xa518_81ae_5ff7_34d9),
        ],
    ),
    (
        "durable",
        &[
            (1, 0x0f44_693b_9597_4bff),
            (2, 0x28e7_f074_53c8_7d35),
            (3, 0x9ee1_1f3c_22a2_d2bc),
        ],
    ),
    (
        "snapshot",
        &[
            (1, 0x356d_40fd_16e9_81b4),
            (2, 0x779f_a39a_7970_bdc7),
            (3, 0xdb8c_f456_7c57_5019),
        ],
    ),
];

#[test]
fn harness_reports_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for (dimension, digests) in GOLDEN {
        for &(seed, expected) in digests {
            let actual = fnv1a64(&replay(dimension, seed));
            if actual != expected {
                mismatches.push(format!(
                    "seed={seed} dimension={dimension} expected={expected:#018x} actual={actual:#018x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
