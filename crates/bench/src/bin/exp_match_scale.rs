//! E11 report — million-subscription matching: the attribute-indexed
//! counting engine vs naive per-filter evaluation.
//!
//! Sweeps the live-subscription count (1k → 1M) against the event width
//! (attributes per obvent) and reports events/sec through
//! [`psc_filter::FilterIndex::matching`], the per-event telemetry of the
//! counting engine (`filter.index.probes` / `candidates` /
//! `shortcircuits`) and the speedup over `naive_matching` where the naive
//! pass is affordable (the naive baseline is skipped at 1M subscriptions —
//! it is the point of the index that nobody should run that).
//!
//! Run with `cargo run --release -p psc-bench --bin exp_match_scale`.

use psc_bench::match_scale::row;
use psc_bench::{fmt_f, Table};

fn main() {
    psc_telemetry::set_global_enabled(true);
    let sweep = [
        (1_000, 8),
        (10_000, 8),
        (100_000, 8),
        (1_000_000, 8),
        (1_000, 32),
        (10_000, 32),
        (100_000, 32),
        (1_000_000, 32),
    ];

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
    for (subs, attrs) in sweep {
        let passes = if subs >= 1_000_000 { 2 } else { 5 };
        let r = row(subs, attrs, passes);
        let per_call = |count: u64| count as f64 / r.calls.max(1) as f64;
        let (naive_us, speedup) = match r.naive {
            Some((naive_us, speedup)) => (fmt_f(naive_us), format!("{speedup:.0}x")),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row(&[
            subs.to_string(),
            attrs.to_string(),
            fmt_f(r.build_ms),
            fmt_f(r.us_per_event),
            fmt_f(1e6 / r.us_per_event),
            fmt_f(per_call(r.probes)),
            fmt_f(per_call(r.candidates)),
            format!("{:.1}", 100.0 * per_call(r.shortcircuits) / subs as f64),
            naive_us,
            speedup,
        ]);
    }
    table.print();

    println!(
        "\nexpected shape: probes/event tracks the attribute count, not the\n\
         subscription count; candidates/event stays a tiny fraction of the\n\
         population, so us/event grows sub-linearly while naive grows linearly —\n\
         the speedup column should clear 50x by 100k subscriptions."
    );
}
