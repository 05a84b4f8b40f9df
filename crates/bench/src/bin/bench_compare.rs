//! Count-regression gate: holds freshly emitted `BENCH_*.json` reports
//! against the committed baselines and exits non-zero on a regression.
//!
//! ```text
//! cargo run --release -p psc-bench --bin bench_compare -- <fresh_dir> [baseline_dir]
//! ```
//!
//! `baseline_dir` defaults to the current directory (the repository root in
//! CI). Every baseline report that carries a top-level `"gates"` array is
//! walked; each gate `{"section", "key", "metric"}` names an array of rows,
//! the integer field that identifies a row, and the numeric field to hold.
//! The gates are read from the **baseline**, so a fresh run cannot drop its
//! own gate. Rows are matched by key: CI emits the fresh reports in
//! `BENCH_QUICK` mode, which covers fewer sweep points, so a baseline row
//! without a fresh counterpart is skipped — but every gate must match at
//! least one row, and a matched row must carry the metric on both sides.
//! Anything else (missing or unparsable fresh report, missing field, gate
//! matching nothing) fails, naming the file, section and metric.
//!
//! Only deterministic counts are gated (encodes per publish, index probes,
//! snapshot markers …): a fresh value may exceed its baseline by at most
//! [`TOLERANCE`]; a baseline of zero admits only zero. Wall-clock claims
//! are the business of `benchmark/`, not of this gate.

use std::path::Path;
use std::process::ExitCode;

use psc_telemetry::json::JsonValue;

/// Fractional headroom over the baseline (+25 %). Improvements never fail.
const TOLERANCE: f64 = 0.25;

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))?;
    JsonValue::parse(&text).map_err(|err| format!("{}: parse error: {err}", path.display()))
}

/// `doc[section]`'s row whose integer field `key` equals `k`.
fn row<'a>(doc: &'a JsonValue, section: &str, key: &str, k: u64) -> Option<&'a JsonValue> {
    doc.get(section)?
        .items()
        .iter()
        .find(|row| row.get(key).and_then(JsonValue::as_u64) == Some(k))
}

/// Walks one baseline's gates against its fresh counterpart. Returns the
/// number of comparisons made; every problem is pushed onto `failures`.
fn walk(file: &str, base: &JsonValue, fresh: &JsonValue, failures: &mut Vec<String>) -> usize {
    let mut compared = 0;
    for gate in base.get("gates").map(JsonValue::items).unwrap_or_default() {
        let field = |name| gate.get(name).and_then(JsonValue::as_str);
        let (Some(section), Some(key), Some(metric)) = (field("section"), field("key"), field("metric"))
        else {
            failures.push(format!("{file}: malformed gate {}", gate.render()));
            continue;
        };
        let mut matched = 0;
        for base_row in base.get(section).map(JsonValue::items).unwrap_or_default() {
            let Some(k) = base_row.get(key).and_then(JsonValue::as_u64) else { continue };
            let Some(fresh_row) = row(fresh, section, key, k) else { continue };
            matched += 1;
            let label = format!("{file} {section}[{key}={k}] {metric}");
            let value = |row: &JsonValue| row.get(metric).and_then(JsonValue::as_f64);
            match (value(base_row), value(fresh_row)) {
                (Some(b), Some(f)) if f <= b * (1.0 + TOLERANCE) => {
                    println!("ok   {label}: baseline {b:.4}, fresh {f:.4}");
                }
                (Some(b), Some(f)) => failures.push(format!(
                    "{label}: {f:.4} exceeds baseline {b:.4} by more than {:.0}%",
                    TOLERANCE * 100.0
                )),
                (None, _) => failures.push(format!("{label}: missing from the baseline")),
                (_, None) => failures.push(format!("{label}: missing from the fresh report")),
            }
        }
        if matched == 0 {
            failures.push(format!("{file} {section} {metric}: gate matched no row (key {key})"));
        }
        compared += matched;
    }
    compared
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(fresh_dir) = args.next() else {
        eprintln!("usage: bench_compare <fresh_dir> [baseline_dir]");
        return ExitCode::from(2);
    };
    let base_dir = args.next().unwrap_or_else(|| ".".to_string());
    println!(
        "bench_compare: fresh={fresh_dir} baseline={base_dir} tolerance=+{:.0}%",
        TOLERANCE * 100.0
    );

    let mut reports: Vec<String> = match std::fs::read_dir(&base_dir) {
        Ok(dir) => dir
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect(),
        Err(err) => {
            eprintln!("bench_compare: {base_dir}: {err}");
            return ExitCode::from(2);
        }
    };
    reports.sort();

    let mut failures = Vec::new();
    let mut compared = 0;
    for file in &reports {
        let base = match load(&Path::new(&base_dir).join(file)) {
            Ok(base) => base,
            Err(err) => {
                failures.push(format!("baseline {err}"));
                continue;
            }
        };
        if base.get("gates").is_none() {
            println!("skip {file}: no gates block");
            continue;
        }
        match load(&Path::new(&fresh_dir).join(file)) {
            Ok(fresh) => compared += walk(file, &base, &fresh, &mut failures),
            Err(err) => failures.push(format!("fresh {err}")),
        }
    }

    if compared == 0 {
        failures.push(format!("nothing compared: no gated row under {base_dir}"));
    }
    if failures.is_empty() {
        println!("bench_compare: {compared} gated count(s) within tolerance");
        return ExitCode::SUCCESS;
    }
    eprintln!("bench_compare: {} failure(s):", failures.len());
    for failure in &failures {
        eprintln!("  FAIL {failure}");
    }
    ExitCode::FAILURE
}
