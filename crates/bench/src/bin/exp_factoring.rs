//! E1 report — compound-filter factoring vs naive per-filter matching.
//!
//! Regenerates the EXPERIMENTS.md series: matching time per obvent and the
//! predicate-sharing statistics, for overlapping and disjoint subscription
//! populations. `probed preds` is `IndexStats::indexed_preds`: the distinct
//! predicates that sit in a batched bucket because some filter counts
//! them; the rest are evaluated only when a candidate needs them. Run with
//! `cargo run --release -p psc-bench --bin exp_factoring`.

use std::time::Instant;

use psc_bench::{disjoint_filters, fmt_f, overlapping_filters, quote_values, Table};
use psc_filter::FilterIndex;

fn measure(index: &mut FilterIndex, events: &[psc_filter::Value], naive: bool) -> (f64, usize) {
    // One full warm-up pass, then time several passes for stable numbers.
    let mut matches = 0usize;
    for event in events {
        matches = if naive {
            index.naive_matching(event).len()
        } else {
            index.matching(event).len()
        };
    }
    let passes = 5usize;
    let start = Instant::now();
    for _ in 0..passes {
        for event in events {
            matches = if naive {
                index.naive_matching(event).len()
            } else {
                index.matching(event).len()
            };
        }
    }
    let micros = start.elapsed().as_secs_f64() * 1e6 / (events.len() * passes) as f64;
    (micros, matches)
}

fn main() {
    println!("E1: filter factoring (ASS+99-style compound index vs naive evaluation)");
    println!("workload: stock quotes; filters = conjunctions on price/company\n");

    for (pop, make) in [
        (
            "overlapping (coarse price grid, shared tickers)",
            overlapping_filters as fn(u64, usize) -> Vec<psc_filter::RemoteFilter>,
        ),
        ("disjoint (unique price bands)", disjoint_filters),
    ] {
        println!("population: {pop}");
        let mut table = Table::new(&[
            "subscriptions",
            "unique preds",
            "probed preds",
            "naive us/event",
            "factored us/event",
            "speedup",
        ]);
        let events = quote_values(7, 512);
        for &n in &[10usize, 100, 1_000, 5_000, 10_000] {
            let mut index = FilterIndex::new();
            for f in make(1, n) {
                index.insert(f);
            }
            let stats = index.stats();
            let (naive_us, m1) = measure(&mut index, &events, true);
            let (fact_us, m2) = measure(&mut index, &events, false);
            assert_eq!(m1, m2, "factored and naive must agree on the last event");
            table.row(&[
                n.to_string(),
                stats.unique_predicates.to_string(),
                stats.indexed_preds.to_string(),
                fmt_f(naive_us),
                fmt_f(fact_us),
                format!("{:.1}x", naive_us / fact_us),
            ]);
        }
        table.print();
        println!();
    }
}
