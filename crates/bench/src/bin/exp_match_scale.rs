//! E11 report — million-subscription matching: the attribute-indexed
//! counting engine vs naive per-filter evaluation.
//!
//! Sweeps the live-subscription count (1k → 1M) against the event width
//! (attributes per obvent) and reports events/sec through
//! [`FilterIndex::matching`], the per-event telemetry of the counting
//! engine (`filter.index.probes` / `candidates` / `shortcircuits`) and the
//! speedup over `naive_matching` where the naive pass is affordable (the
//! naive baseline is skipped at 1M subscriptions — it is the point of the
//! index that nobody should run that).
//!
//! Run with `cargo run --release -p psc-bench --bin exp_match_scale`.
//! Set `BENCH_QUICK=1` for a seconds-scale smoke configuration.

use std::time::Instant;

use psc_bench::{fmt_f, gates, scaled_filters, wide_events, write_bench_json, Table};
use psc_filter::{FilterIndex, Value};
use psc_telemetry::json::JsonValue;
use psc_telemetry::Snapshot;

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name) - before.counter(name)
}

/// Times `matching` over `events` (one warm-up pass, then timed passes)
/// and returns (µs per event, matches on the last event).
fn measure_indexed(index: &FilterIndex, events: &[Value], passes: usize) -> (f64, usize) {
    let mut matches = 0usize;
    for event in events {
        matches = index.matching(event).len();
    }
    let start = Instant::now();
    for _ in 0..passes {
        for event in events {
            matches = index.matching(event).len();
        }
    }
    let micros = start.elapsed().as_secs_f64() * 1e6 / (events.len() * passes) as f64;
    (micros, matches)
}

fn measure_naive(index: &FilterIndex, events: &[Value]) -> (f64, usize) {
    let mut matches = 0usize;
    let start = Instant::now();
    for event in events {
        matches = index.naive_matching(event).len();
    }
    let micros = start.elapsed().as_secs_f64() * 1e6 / events.len() as f64;
    (micros, matches)
}

fn main() {
    psc_telemetry::set_global_enabled(true);
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let sweep: &[(usize, usize)] = if quick {
        &[(1_000, 8), (10_000, 8)]
    } else {
        &[
            (1_000, 8),
            (10_000, 8),
            (100_000, 8),
            (1_000_000, 8),
            (1_000, 32),
            (10_000, 32),
            (100_000, 32),
            (1_000_000, 32),
        ]
    };
    let events_n = 200usize;
    // Naive is O(filters) per event: cap the population it runs against and
    // the events it chews through so the report stays minutes-scale.
    let naive_max_subs = 100_000usize;
    let naive_events = 20usize;

    println!("E11: match scale — attribute-indexed counting engine vs naive evaluation");
    println!("workload: wide numeric events; filters = narrow band + guard conjunctions\n");

    let mut table = Table::new(&[
        "subscriptions",
        "attrs",
        "build ms",
        "us/event",
        "events/sec",
        "probes/event",
        "candidates/event",
        "shortcircuit %",
        "naive us/event",
        "speedup",
    ]);
    let mut rows = JsonValue::arr();
    for &(subs, attrs) in sweep {
        let events = wide_events(0xeb11, events_n, attrs);
        let build_start = Instant::now();
        let mut index = FilterIndex::new();
        for f in scaled_filters(1, subs, attrs) {
            index.insert(f);
        }
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

        let passes = if subs >= 1_000_000 { 2 } else { 5 };
        let before = psc_telemetry::global().snapshot();
        let (us, _) = measure_indexed(&index, &events, passes);
        let after = psc_telemetry::global().snapshot();
        let calls = counter_delta(&before, &after, "filter.matching_calls").max(1) as f64;
        let probes = counter_delta(&before, &after, "filter.index.probes") as f64 / calls;
        let candidates = counter_delta(&before, &after, "filter.index.candidates") as f64 / calls;
        let shortcircuits =
            counter_delta(&before, &after, "filter.index.shortcircuits") as f64 / calls;
        let shortcircuit_pct = 100.0 * shortcircuits / subs as f64;

        let (naive_cells, naive_json) = if subs <= naive_max_subs {
            let probe_events = &events[..naive_events.min(events.len())];
            let (naive_us, naive_m) = measure_naive(&index, probe_events);
            // Honest speedup: the indexed figure over the same event subset.
            let (indexed_us, indexed_m) = measure_indexed(&index, probe_events, 1);
            assert_eq!(naive_m, indexed_m, "indexed and naive must agree");
            let speedup = naive_us / indexed_us;
            (
                (fmt_f(naive_us), format!("{speedup:.0}x")),
                Some((naive_us, speedup)),
            )
        } else {
            (("-".to_string(), "-".to_string()), None)
        };

        table.row(&[
            subs.to_string(),
            attrs.to_string(),
            fmt_f(build_ms),
            fmt_f(us),
            fmt_f(1e6 / us),
            fmt_f(probes),
            fmt_f(candidates),
            format!("{shortcircuit_pct:.1}"),
            naive_cells.0,
            naive_cells.1,
        ]);
        let mut row = JsonValue::obj()
            // Composite sweep key for the regression gate (subscription
            // count and attribute width are both part of the identity).
            .set("key", (subs * 100 + attrs) as u64)
            .set("subscriptions", subs as u64)
            .set("attrs", attrs as u64)
            .set("build_ms", build_ms)
            .set("us_per_event", us)
            .set("events_per_sec", 1e6 / us)
            .set("probes_per_event", probes)
            .set("candidates_per_event", candidates)
            .set("shortcircuits_per_event", shortcircuits);
        if let Some((naive_us, speedup)) = naive_json {
            row = row.set("naive_us_per_event", naive_us).set("speedup", speedup);
        }
        rows = rows.push(row);
    }
    table.print();

    let doc = JsonValue::obj()
        .set("experiment", "match_scale")
        .set("quick", quick)
        .set("events", events_n as u64)
        // Deterministic functions of the seeded workload: losing the
        // attribute index blows probes up to the predicate population,
        // losing the access-predicate gating blows candidates up to the
        // satisfied-filter population, on any machine.
        .set(
            "gates",
            gates(&[
                ("rows", "key", "probes_per_event"),
                ("rows", "key", "candidates_per_event"),
            ]),
        )
        .set("rows", rows);
    let path = write_bench_json("exp_match_scale", &doc).expect("write BENCH json");
    println!("\nmetrics written to {}", path.display());
    println!(
        "\nexpected shape: probes/event tracks the attribute count, not the\n\
         subscription count; candidates/event stays a tiny fraction of the\n\
         population, so us/event grows sub-linearly while naive grows linearly —\n\
         the speedup column should clear 50x by 100k subscriptions."
    );
}
