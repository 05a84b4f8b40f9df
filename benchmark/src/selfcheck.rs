//! `--selfcheck N`: the repeatability evidence.
//!
//! Runs each workload `2 × N` times as two interleaved sets (A, B, A, B, …),
//! every run a fresh process with its own seed, and prints per end-to-end
//! metric both medians, each set's quartile spread and the bound. It fails
//! if a pair of medians differs by more than the metric's bound, if a spread
//! (other than `setup_s`'s) exceeds the bound, or if any run failed an
//! operation — the same rules the pipeline applies to its two sets of ten.
//! (With fewer than three runs per set the quartiles are extrapolated, so the
//! spread is printed but not judged.)
//! Later issues use it to size what gain can be claimed at all.

use std::process::{Command, ExitCode};

use psc_telemetry::json::JsonValue;

use crate::metrics::END_TO_END;
use crate::stats::{median, spread};
use crate::workload::Workload;

/// One child run's end-to-end metric values, in [`END_TO_END`] order.
fn child_run(workload: Workload, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        JsonValue::parse(last).map_err(|e| format!("seed {seed}: no result line ({e})"))?;
    let failed = result
        .get("failed")
        .and_then(JsonValue::as_u64)
        .unwrap_or(u64::MAX);
    if !output.status.success() || failed != 0 {
        return Err(format!(
            "seed {seed}: exit {:?}, failed {failed}",
            output.status.code()
        ));
    }
    END_TO_END
        .iter()
        .map(|(name, ..)| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("seed {seed}: metric {name} missing"))
        })
        .collect()
}

pub fn run(n: usize, seconds: u64, only: Option<Workload>) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        // sets[set][metric] = values
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for run in 0..2 * n {
            let seed = 1 + run as u64;
            match child_run(workload, seed, seconds) {
                Ok(values) => {
                    println!(
                        "{} set {} seed {seed}: {values:?}",
                        workload.name(),
                        ["A", "B"][run % 2]
                    );
                    for (slot, value) in sets[run % 2].iter_mut().zip(values) {
                        slot.push(value);
                    }
                }
                Err(err) => {
                    println!("{} FAILED RUN: {err}", workload.name());
                    ok = false;
                }
            }
        }
        println!(
            "{:<16} {:<20} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}  verdict",
            "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound"
        );
        for (i, (name, _, _, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[1][i]);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let diff = (mb - ma).abs() / ma.abs().max(f64::MIN_POSITIVE);
            let (sa, sb) = (spread(a), spread(b));
            let steady = *name == "setup_s" || n < 3 || (sa <= *bound && sb <= *bound);
            let pass = diff <= *bound && steady;
            ok &= pass;
            println!(
                "{:<16} {:<20} {:>12.4} {:>12.4} {:>7.1}% {:>8.1}% {:>8.1}% {:>5.0}%  {}",
                workload.name(),
                name,
                ma,
                mb,
                100.0 * diff,
                100.0 * sa,
                100.0 * sb,
                100.0 * bound,
                if pass { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
