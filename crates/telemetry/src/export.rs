//! Exporters: canonical text rendering and machine-readable JSON.
//!
//! Both renderings are **deterministic**: metrics are emitted in
//! lexicographic name order (`BTreeMap` iteration), so two identical runs
//! export byte-identical documents — the property the harness's determinism
//! oracle relies on.

use std::collections::BTreeMap;

use crate::json::JsonValue;
use crate::metrics::HistogramSnapshot;

/// A point-in-time image of a [`Registry`](crate::Registry).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram images by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram image, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Canonical text rendering: one metric per line, name-sorted,
    /// byte-stable across identical runs.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} = {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge {name} = {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} mean={:.2} p50={} p90={} p99={} max={}\n",
                h.count,
                h.sum,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max,
            ));
            for (i, &bucket) in h.buckets.iter().enumerate() {
                if bucket == 0 {
                    continue;
                }
                match h.bounds.get(i) {
                    Some(bound) => out.push_str(&format!("  le {bound} : {bucket}\n")),
                    None => out.push_str(&format!("  le +inf : {bucket}\n")),
                }
            }
        }
        out
    }

    /// Machine-readable JSON value (`{"counters":{…},"gauges":{…},
    /// "histograms":{…}}`), what `psc-node --snapshot <file>` writes.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::obj();
        for (name, &value) in &self.counters {
            counters = counters.set(name.clone(), value);
        }
        let mut gauges = JsonValue::obj();
        for (name, &value) in &self.gauges {
            gauges = gauges.set(name.clone(), value);
        }
        let mut histograms = JsonValue::obj();
        for (name, h) in &self.histograms {
            let mut bounds = JsonValue::arr();
            for &b in &h.bounds {
                bounds = bounds.push(b);
            }
            let mut buckets = JsonValue::arr();
            for &b in &h.buckets {
                buckets = buckets.push(b);
            }
            histograms = histograms.set(
                name.clone(),
                JsonValue::obj()
                    .set("bounds", bounds)
                    .set("buckets", buckets)
                    .set("count", h.count)
                    .set("sum", h.sum)
                    .set("max", h.max)
                    .set("p50", h.percentile(0.50))
                    .set("p90", h.percentile(0.90))
                    .set("p99", h.percentile(0.99)),
            );
        }
        JsonValue::obj()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms)
    }

    /// Compact JSON text of [`Snapshot::to_json`].
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}
