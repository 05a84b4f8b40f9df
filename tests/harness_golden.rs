//! Golden replay digests: the executable form of "harness reports are
//! byte-identical". Each constant is the FNV-1a/64 digest of a seeded
//! harness report captured at commit `b144500`; a refactor of the stack
//! under the harness must reproduce every one of them. `durable` seeds 1
//! and 3 and `snapshot` seed 3 were re-captured when subscription
//! anti-entropy became a digest plus a pull: control traffic is part of
//! what those reports show (an in-flight control frame's size in a cut,
//! and arrival orders that follow the simulator's shared loss and latency
//! draws). `durable` seeds 1 and 2 and `snapshot` seeds 1–3 were
//! re-captured when `Certified` moved onto the delivery layer:
//!
//! - `durable` 1 and 2: only the order in which a recovered subscriber
//!   receives retransmissions moves (seed 1 `inc#1 got=[4, 3, 5]` →
//!   `[3, 4, 5]`; seed 2 `[2, 4, 3, 5]` → `[3, 4, 2, 5]` and `[6, 7]` →
//!   `[7, 6]`), because the layer retransmits every 40 ms where `Certified`
//!   waited 50 ms (with the interval at 50 ms both digests are unchanged);
//! - `snapshot` 1–3: only the epoch moves: every certified capture reads
//!   `epoch=1` and names ids `o0e1:` where the constant epoch read
//!   `epoch=0` and `o0e0:`, as the epoch is now persisted per incarnation
//!   from 1.
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
            (1, 0xf678_2636_d663_cb95),
            (2, 0xc3db_bd13_fa33_8687),
            (3, 0x9ee1_1f3c_22a2_d2bc),
        ],
    ),
    (
        "snapshot",
        &[
            (1, 0x99c7_6e69_eeba_6e3f),
            (2, 0xcc71_bfa9_5f62_ea94),
            (3, 0x60c4_ce4e_56f2_7360),
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
