//! Bench-regression gate: diffs freshly emitted `BENCH_*.json` reports
//! against the committed baselines and fails (non-zero exit) on a
//! regression beyond tolerance.
//!
//! ```text
//! cargo run --release -p psc-bench --bin bench_compare -- <fresh_dir> [baseline_dir]
//! ```
//!
//! `baseline_dir` defaults to the current directory (the repository root in
//! CI, where the baselines are committed). Only **scale-invariant**
//! per-publish / per-round metrics are compared, matched by their
//! `fanout` / `receivers` keys — CI emits the fresh reports in
//! `BENCH_QUICK` mode, whose absolute counts differ from the full-size
//! committed runs, but whose amortized costs must not. Rows present on one
//! side only (a quick run covering fewer fan-out points) are skipped.
//!
//! Tolerance: a fresh value may exceed its baseline by at most
//! `BENCH_COMPARE_TOLERANCE` (fractional, default `0.25` — i.e. +25%).
//! Improvements never fail. Deterministic count metrics (encodes per
//! publish) use the same gate, so a lost serialize-once fan-out shows up as
//! an 8× "regression" long before wall-clock noise matters.

use std::process::ExitCode;

use psc_telemetry::json::JsonValue;

struct Gate {
    tolerance: f64,
    failures: Vec<String>,
    compared: usize,
}

impl Gate {
    fn new(tolerance: f64) -> Gate {
        Gate { tolerance, failures: Vec::new(), compared: 0 }
    }

    /// One metric comparison: fail when `fresh > base * (1 + tolerance)`.
    /// Baselines of zero only fail if the fresh value is positive (a
    /// metric that was free and no longer is).
    fn check(&mut self, label: &str, base: f64, fresh: f64) {
        self.compared += 1;
        let limit = if base == 0.0 { 0.0 } else { base * (1.0 + self.tolerance) };
        if fresh > limit {
            self.failures.push(format!(
                "{label}: {fresh:.4} exceeds baseline {base:.4} by more than {:.0}%",
                self.tolerance * 100.0
            ));
        } else {
            println!("ok   {label}: baseline {base:.4}, fresh {fresh:.4}");
        }
    }

    /// A wall-clock-derived comparison. Wall metrics only gate when both
    /// runs were the same size (`same_scale`): a `BENCH_QUICK` run
    /// amortizes its fixed setup over far fewer iterations than the
    /// committed full-size baseline, so a cross-scale wall diff measures
    /// the amortization, not a regression. Cross-scale results are printed
    /// as advisory so the trend stays visible in CI logs; the
    /// deterministic count metrics carry the gate there.
    fn check_wall(&mut self, label: &str, base: f64, fresh: f64, same_scale: bool) {
        if same_scale {
            self.check(label, base, fresh);
        } else {
            println!("note {label}: baseline {base:.4}, fresh {fresh:.4} (scale differs; advisory)");
        }
    }
}

fn load(dir: &str, name: &str) -> Option<JsonValue> {
    let path = std::path::Path::new(dir).join(name);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("skip {}: {err}", path.display());
            return None;
        }
    };
    match JsonValue::parse(&text) {
        Ok(doc) => Some(doc),
        Err(err) => {
            eprintln!("skip {}: parse error: {err}", path.display());
            None
        }
    }
}

fn field_f64(row: &JsonValue, key: &str) -> Option<f64> {
    row.get(key).and_then(JsonValue::as_f64)
}

/// Index `rows` by an integer key (`fanout`, `receivers`), so quick and
/// full runs match only on the sizes both measured.
fn by_key<'a>(rows: &'a JsonValue, key: &str) -> Vec<(u64, &'a JsonValue)> {
    rows.items()
        .iter()
        .filter_map(|row| row.get(key).and_then(JsonValue::as_u64).map(|k| (k, row)))
        .collect()
}

/// Metric over one keyed row: extractor plus whether it is wall-clock
/// derived (gated only at matching scale) or a deterministic count (always
/// gated).
struct Metric {
    name: &'static str,
    wall: bool,
    extract: fn(&JsonValue) -> Option<f64>,
}

fn compare_keyed(
    gate: &mut Gate,
    context: &str,
    key: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    same_scale: bool,
    metrics: &[Metric],
) {
    let base_rows = by_key(base, key);
    for (k, fresh_row) in by_key(fresh, key) {
        let Some((_, base_row)) = base_rows.iter().find(|(bk, _)| *bk == k) else {
            continue;
        };
        for metric in metrics {
            let label = format!("{context}[{key}={k}] {}", metric.name);
            match ((metric.extract)(base_row), (metric.extract)(fresh_row)) {
                (Some(b), Some(f)) if metric.wall => gate.check_wall(&label, b, f, same_scale),
                (Some(b), Some(f)) => gate.check(&label, b, f),
                _ => eprintln!("skip {label}: missing on one side"),
            }
        }
    }
}

fn compare_serialize_once(gate: &mut Gate, base: &JsonValue, fresh: &JsonValue) {
    let file = "BENCH_exp_serialize_once.json";
    let same_scale = base.get("quick").map(|v| v.render()) == fresh.get("quick").map(|v| v.render());
    if let (Some(b), Some(f)) = (base.get("mechanism"), fresh.get("mechanism")) {
        compare_keyed(
            gate,
            &format!("{file} mechanism"),
            "fanout",
            b,
            f,
            same_scale,
            &[
                // The mechanism micro-bench is per-publish by construction,
                // so its wall figure is scale-free: always gate it.
                Metric {
                    name: "shared_us_per_publish",
                    wall: false,
                    extract: |r| field_f64(r, "shared_us_per_publish"),
                },
                Metric {
                    name: "shared_encodes_per_publish",
                    wall: false,
                    extract: |r| field_f64(r, "shared_encodes_per_publish"),
                },
            ],
        );
    }
    if let (Some(b), Some(f)) = (base.get("end_to_end"), fresh.get("end_to_end")) {
        compare_keyed(
            gate,
            &format!("{file} end_to_end"),
            "fanout",
            b,
            f,
            same_scale,
            &[
                Metric {
                    name: "wall_ms_per_publish",
                    wall: true,
                    extract: |r| Some(field_f64(r, "wall_ms")? / field_f64(r, "publishes")?),
                },
                Metric {
                    name: "codec_encodes_per_publish",
                    wall: false,
                    extract: |r| Some(field_f64(r, "codec_encodes")? / field_f64(r, "publishes")?),
                },
            ],
        );
    }
}

fn compare_fanout(gate: &mut Gate, base: &JsonValue, fresh: &JsonValue) {
    let file = "BENCH_fanout.json";
    let rounds = |doc: &JsonValue| doc.get("rounds").and_then(JsonValue::as_f64);
    let (Some(base_rounds), Some(fresh_rounds)) = (rounds(base), rounds(fresh)) else {
        eprintln!("skip {file}: rounds missing");
        return;
    };
    let same_scale = base_rounds == fresh_rounds;
    let (Some(b), Some(f)) = (base.get("rows"), fresh.get("rows")) else {
        eprintln!("skip {file}: rows missing");
        return;
    };
    let base_rows = by_key(b, "receivers");
    for (k, fresh_row) in by_key(f, "receivers") {
        let Some((_, base_row)) = base_rows.iter().find(|(bk, _)| *bk == k) else {
            continue;
        };
        if let (Some(bv), Some(fv)) = (
            field_f64(base_row, "pubsub_us_per_round"),
            field_f64(fresh_row, "pubsub_us_per_round"),
        ) {
            gate.check_wall(
                &format!("{file} rows[receivers={k}] pubsub_us_per_round"),
                bv,
                fv,
                same_scale,
            );
        }
        let encodes = |row: &JsonValue, rounds: f64| {
            row.get("codec")
                .and_then(|c| c.get("codec.encodes"))
                .and_then(JsonValue::as_f64)
                .map(|e| e / rounds)
        };
        if let (Some(bv), Some(fv)) = (
            encodes(base_row, base_rounds),
            encodes(fresh_row, fresh_rounds),
        ) {
            gate.check(&format!("{file} rows[receivers={k}] codec_encodes_per_round"), bv, fv);
        }
    }
}

fn compare_match_scale(gate: &mut Gate, base: &JsonValue, fresh: &JsonValue) {
    let file = "BENCH_exp_match_scale.json";
    let same_scale = base.get("quick").map(|v| v.render()) == fresh.get("quick").map(|v| v.render());
    let (Some(b), Some(f)) = (base.get("rows"), fresh.get("rows")) else {
        eprintln!("skip {file}: rows missing");
        return;
    };
    compare_keyed(
        gate,
        &format!("{file} rows"),
        "key",
        b,
        f,
        same_scale,
        &[
            Metric {
                name: "us_per_event",
                wall: true,
                extract: |r| field_f64(r, "us_per_event"),
            },
            // Probe and candidate counts are deterministic functions of the
            // seeded workload: losing the attribute index (probes blow up to
            // the predicate population) or the access-predicate gating
            // (candidates blow up to the satisfied-filter population) trips
            // these regardless of machine speed.
            Metric {
                name: "probes_per_event",
                wall: false,
                extract: |r| field_f64(r, "probes_per_event"),
            },
            Metric {
                name: "candidates_per_event",
                wall: false,
                extract: |r| field_f64(r, "candidates_per_event"),
            },
        ],
    );
}

fn compare_real_wire(gate: &mut Gate, base: &JsonValue, fresh: &JsonValue) {
    let file = "BENCH_exp_real_wire.json";
    let same_scale = base.get("quick").map(|v| v.render()) == fresh.get("quick").map(|v| v.render());
    if let (Some(b), Some(f)) = (base.get("single_process"), fresh.get("single_process")) {
        compare_keyed(
            gate,
            &format!("{file} single_process"),
            "seed",
            b,
            f,
            same_scale,
            &[
                // A baseline of zero mismatches means any fresh mismatch
                // fails outright: the real wire diverging from the
                // simulator is a correctness regression, not noise.
                Metric {
                    name: "delivery_mismatches",
                    wall: false,
                    extract: |r| field_f64(r, "delivery_mismatches"),
                },
                // Deterministic functions of the seeded scenario: losing
                // serialize-once (encodes grow with fan-out) or flooding
                // the wire (msgs/bytes per publish grow) trips these on
                // any machine.
                Metric {
                    name: "encodes_per_publish",
                    wall: false,
                    extract: |r| field_f64(r, "encodes_per_publish"),
                },
                Metric {
                    name: "msgs_per_publish",
                    wall: false,
                    extract: |r| field_f64(r, "msgs_per_publish"),
                },
                Metric {
                    name: "bytes_per_publish",
                    wall: false,
                    extract: |r| field_f64(r, "bytes_per_publish"),
                },
                // The publish window is paced by real sleeps, so its wall
                // figure is scale-free per publish but still machine-bound:
                // advisory across scales.
                Metric {
                    name: "wall_ms_per_publish",
                    wall: true,
                    extract: |r| Some(field_f64(r, "wall_ms")? / field_f64(r, "publishes")?),
                },
            ],
        );
    }
    if let (Some(b), Some(f)) = (base.get("multi_process"), fresh.get("multi_process")) {
        compare_keyed(
            gate,
            &format!("{file} multi_process"),
            "seed",
            b,
            f,
            same_scale,
            &[
                Metric {
                    name: "delivery_mismatches",
                    wall: false,
                    extract: |r| field_f64(r, "delivery_mismatches"),
                },
                Metric {
                    name: "wall_ms_per_publish",
                    wall: true,
                    extract: |r| Some(field_f64(r, "wall_ms")? / field_f64(r, "publishes")?),
                },
            ],
        );
    }
}

fn compare_durable_log(gate: &mut Gate, base: &JsonValue, fresh: &JsonValue) {
    let file = "BENCH_exp_durable_log.json";
    let same_scale = base.get("quick").map(|v| v.render()) == fresh.get("quick").map(|v| v.render());
    if let (Some(b), Some(f)) = (base.get("append"), fresh.get("append")) {
        compare_keyed(
            gate,
            &format!("{file} append"),
            "wal",
            b,
            f,
            same_scale,
            &[
                // The simulated sections run a fixed-size workload in both
                // quick and full mode, so the per-publish record counts are
                // deterministic and always gated: appends/pub growing means
                // the log schema got chattier, syncs/pub growing means the
                // fsync barrier lost its batching.
                Metric {
                    name: "appends_per_publish",
                    wall: false,
                    extract: |r| field_f64(r, "appends_per_publish"),
                },
                Metric {
                    name: "syncs_per_publish",
                    wall: false,
                    extract: |r| field_f64(r, "syncs_per_publish"),
                },
                // Baseline 0: any fresh mismatch is a lost or duplicated
                // certified delivery, which fails outright.
                Metric {
                    name: "delivery_mismatches",
                    wall: false,
                    extract: |r| field_f64(r, "delivery_mismatches"),
                },
                Metric {
                    name: "route_us_per_publish",
                    wall: true,
                    extract: |r| field_f64(r, "route_us_per_publish"),
                },
            ],
        );
    }
    if let (Some(b), Some(f)) = (base.get("recovery"), fresh.get("recovery")) {
        for (name, wall) in [
            ("replay_records", false),
            ("redeliveries", false),
            ("replay_wall_ms", true),
        ] {
            let label = format!("{file} recovery {name}");
            match (field_f64(b, name), field_f64(f, name)) {
                (Some(bv), Some(fv)) if wall => gate.check_wall(&label, bv, fv, same_scale),
                (Some(bv), Some(fv)) => gate.check(&label, bv, fv),
                _ => eprintln!("skip {label}: missing on one side"),
            }
        }
    }
    if let (Some(b), Some(f)) = (base.get("fsync"), fresh.get("fsync")) {
        compare_keyed(
            gate,
            &format!("{file} fsync"),
            "batch",
            b,
            f,
            same_scale,
            &[Metric {
                name: "us_per_append",
                wall: true,
                extract: |r| field_f64(r, "us_per_append"),
            }],
        );
    }
}

fn compare_snapshot(gate: &mut Gate, base: &JsonValue, fresh: &JsonValue) {
    let file = "BENCH_exp_snapshot.json";
    let same_scale = base.get("quick").map(|v| v.render()) == fresh.get("quick").map(|v| v.render());
    // Both sections share the row shape, so they share the metric set.
    // Baselines of zero for `incomplete` and `byte_mismatch` mean any
    // fresh occurrence fails outright: a wave that stops completing or a
    // cluster image that stops being byte-stable is a correctness
    // regression, not noise.
    let correctness = [
        Metric {
            name: "incomplete",
            wall: false,
            extract: |r| field_f64(r, "incomplete"),
        },
        Metric {
            name: "byte_mismatch",
            wall: false,
            extract: |r| field_f64(r, "byte_mismatch"),
        },
        // Deterministic functions of the seeded workload: the marker
        // flood growing means the wave protocol got chattier; the wave's
        // virtual completion time growing means markers or fragments
        // started needing retries they didn't before.
        Metric {
            name: "markers_sent",
            wall: false,
            extract: |r| field_f64(r, "markers_sent"),
        },
        Metric {
            name: "wave_virtual_ms",
            wall: false,
            extract: |r| field_f64(r, "wave_virtual_ms"),
        },
        Metric {
            name: "retries",
            wall: false,
            extract: |r| field_f64(r, "retries"),
        },
        Metric {
            name: "capture_wall_ms",
            wall: true,
            extract: |r| field_f64(r, "capture_wall_ms"),
        },
    ];
    if let (Some(b), Some(f)) = (base.get("capture"), fresh.get("capture")) {
        compare_keyed(gate, &format!("{file} capture"), "publishes", b, f, same_scale, &correctness);
    }
    if let (Some(b), Some(f)) = (base.get("loss"), fresh.get("loss")) {
        compare_keyed(gate, &format!("{file} loss"), "loss_pct", b, f, same_scale, &correctness);
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(fresh_dir) = args.next() else {
        eprintln!("usage: bench_compare <fresh_dir> [baseline_dir]");
        return ExitCode::from(2);
    };
    let base_dir = args.next().unwrap_or_else(|| ".".to_string());
    let tolerance: f64 = std::env::var("BENCH_COMPARE_TOLERANCE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.25);
    println!(
        "bench_compare: fresh={fresh_dir} baseline={base_dir} tolerance=+{:.0}%",
        tolerance * 100.0
    );

    let mut gate = Gate::new(tolerance);
    if let (Some(base), Some(fresh)) = (
        load(&base_dir, "BENCH_exp_serialize_once.json"),
        load(&fresh_dir, "BENCH_exp_serialize_once.json"),
    ) {
        compare_serialize_once(&mut gate, &base, &fresh);
    }
    if let (Some(base), Some(fresh)) = (
        load(&base_dir, "BENCH_fanout.json"),
        load(&fresh_dir, "BENCH_fanout.json"),
    ) {
        compare_fanout(&mut gate, &base, &fresh);
    }
    if let (Some(base), Some(fresh)) = (
        load(&base_dir, "BENCH_exp_match_scale.json"),
        load(&fresh_dir, "BENCH_exp_match_scale.json"),
    ) {
        compare_match_scale(&mut gate, &base, &fresh);
    }
    if let (Some(base), Some(fresh)) = (
        load(&base_dir, "BENCH_exp_real_wire.json"),
        load(&fresh_dir, "BENCH_exp_real_wire.json"),
    ) {
        compare_real_wire(&mut gate, &base, &fresh);
    }
    if let (Some(base), Some(fresh)) = (
        load(&base_dir, "BENCH_exp_durable_log.json"),
        load(&fresh_dir, "BENCH_exp_durable_log.json"),
    ) {
        compare_durable_log(&mut gate, &base, &fresh);
    }
    if let (Some(base), Some(fresh)) = (
        load(&base_dir, "BENCH_exp_snapshot.json"),
        load(&fresh_dir, "BENCH_exp_snapshot.json"),
    ) {
        compare_snapshot(&mut gate, &base, &fresh);
    }

    if gate.compared == 0 {
        eprintln!("bench_compare: nothing compared — treat as failure");
        return ExitCode::from(2);
    }
    if gate.failures.is_empty() {
        println!("bench_compare: {} metric(s) within tolerance", gate.compared);
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_compare: {} regression(s):", gate.failures.len());
        for failure in &gate.failures {
            eprintln!("  REGRESSION {failure}");
        }
        ExitCode::FAILURE
    }
}
