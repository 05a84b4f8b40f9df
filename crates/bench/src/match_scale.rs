//! E11 scenario — one row of the million-subscription sweep: the
//! attribute-indexed counting engine vs naive per-filter evaluation.

use std::time::Instant;

use psc_filter::{FilterIndex, Value};

use crate::{scaled_filters, wide_events};

/// Events matched per row.
pub const EVENTS: usize = 200;

/// Naive is O(filters) per event: it runs only up to this population, on
/// the first [`NAIVE_EVENTS`] events, so the report stays minutes-scale.
const NAIVE_MAX_SUBS: usize = 100_000;

/// Events the naive comparison chews through.
const NAIVE_EVENTS: usize = 20;

/// One row's figures.
pub struct Row {
    /// Wall-clock ms to insert the population.
    pub build_ms: f64,
    /// Wall-clock µs per indexed `matching` call.
    pub us_per_event: f64,
    /// Counting-engine telemetry over one pass of the [`EVENTS`] events
    /// (`filter.matching_calls`, `filter.index.probes`, `…candidates`,
    /// `…shortcircuits`); zero unless the global registry is enabled.
    pub calls: u64,
    pub probes: u64,
    pub candidates: u64,
    pub shortcircuits: u64,
    /// Naive µs per event and the indexed speedup over the same events,
    /// when the population is small enough to run naive at all.
    pub naive: Option<(f64, f64)>,
}

/// Times `matching` over `events` (`passes` timed passes) and returns
/// (µs per event, matches on the last event).
fn measure_indexed(index: &FilterIndex, events: &[Value], passes: usize) -> (f64, usize) {
    let mut matches = 0usize;
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

/// Builds `subs` equality-gated band + guard conjunctions over `attrs`
/// attributes and matches [`EVENTS`] wide events against them: one
/// counted warm-up pass, then `passes` timed ones.
pub fn row(subs: usize, attrs: usize, passes: usize) -> Row {
    let events = wide_events(0xeb11, EVENTS, attrs);
    let build_start = Instant::now();
    let mut index = FilterIndex::new();
    for f in scaled_filters(1, subs, attrs) {
        index.insert(f);
    }
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let counters = [
        "filter.matching_calls",
        "filter.index.probes",
        "filter.index.candidates",
        "filter.index.shortcircuits",
    ]
    .map(|name| psc_telemetry::global().counter(name));
    let before = counters.each_ref().map(|c| c.get());
    for event in &events {
        index.matching(event);
    }
    let [calls, probes, candidates, shortcircuits] =
        std::array::from_fn(|i| counters[i].get() - before[i]);
    let (us_per_event, _) = measure_indexed(&index, &events, passes);

    let naive = (subs <= NAIVE_MAX_SUBS).then(|| {
        let probe_events = &events[..NAIVE_EVENTS];
        let (naive_us, naive_m) = measure_naive(&index, probe_events);
        // Honest speedup: the indexed figure over the same event subset,
        // re-warmed after the naive walk of the whole population.
        for event in probe_events {
            index.matching(event);
        }
        let (indexed_us, indexed_m) = measure_indexed(&index, probe_events, 1);
        assert_eq!(naive_m, indexed_m, "indexed and naive must agree");
        (naive_us, naive_us / indexed_us)
    });
    Row {
        build_ms,
        us_per_event,
        calls,
        probes,
        candidates,
        shortcircuits,
        naive,
    }
}
