//! The metric tables: every name, unit and direction the benchmark prints,
//! in the order it prints them. `BENCHMARK.json` repeats them (the pipeline
//! reads that file); a unit test keeps the two in step.

/// `(name, unit, lower is better, bound)` of every end-to-end metric. The
/// bound is the share of the parent's median by which the metric may worsen
/// before a later change is rejected; see the README for how they were set.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("setup_s", "s", true, 0.25),
    ("deliver_p50_us", "us", true, 0.25),
    ("deliver_p75_us", "us", true, 0.25),
    ("rss_mb", "MiB", true, 0.25),
];

/// `(name, unit, lower is better)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str, bool); 59] = [
    ("codec.encode_us", "us", true),
    ("codec.decode_us", "us", true),
    ("codec.frame_us", "us", true),
    ("codec.encodes_per_publish", "count", true),
    ("codec.pool_hit_share", "ratio", false),
    ("obvent.view_us", "us", true),
    ("filter.index_match_us", "us", true),
    ("filter.candidates_per_event", "count", true),
    ("filter.index_insert_us", "us", true),
    ("filter.index_remove_us", "us", true),
    ("core.deliver_us", "us", true),
    ("core.subscribe_us", "us", true),
    ("group.msgs_per_publish", "count", true),
    ("group.acks_per_publish", "count", true),
    ("group.retransmits_per_publish", "count", true),
    ("group.broadcast_us", "us", true),
    ("group.on_message_us", "us", true),
    ("dace.publish_cb_us", "us", true),
    ("dace.recv_cb_us", "us", true),
    ("dace.ctl_cb_us_per_s", "us/s", true),
    ("dace.timer_cb_us_per_s", "us/s", true),
    ("dace.callbacks_per_delivery", "count", true),
    ("dace.self_us_per_publish", "us", true),
    ("dace.control_msgs_per_s", "1/s", true),
    ("dace.publish_cb_us_last_over_first", "ratio", true),
    ("wal.appends_per_publish", "count", true),
    ("wal.syncs_per_publish", "count", true),
    ("wal.bytes_per_publish", "B", true),
    ("wal.apply_us_per_publish", "us", true),
    ("wal.fsync_floor_us", "us", true),
    ("net.act_sync_us", "us", true),
    ("net.transit_us", "us", true),
    ("net.msgs_per_delivery", "count", true),
    ("net.bytes_per_delivery", "B", true),
    ("net.ctx_switches_per_delivery", "count", true),
    ("net.threads", "count", true),
    ("net.backpressure_waits", "count", true),
    ("net.queue_dropped", "count", true),
    ("telemetry.tax_share", "ratio", true),
    ("stack.deliveries_per_s", "1/s", false),
    ("stack.us_per_publish", "us", true),
    ("trace.overhead_share", "ratio", true),
    ("budget.unattributed_share", "ratio", true),
    ("budget.harness_share", "ratio", true),
    ("budget.filter_core_share", "ratio", true),
    ("gen.offered_per_s", "1/s", false),
    ("gen.lag_p99_us", "us", true),
    ("gen.cpu_share", "ratio", true),
    ("tail.deliver_p90_us", "us", true),
    ("tail.deliver_p99_us", "us", true),
    ("tail.deliver_max_us", "us", true),
    ("closed.deliveries_per_s", "1/s", false),
    ("host.ref_ns", "ns", true),
    ("host.ref_swing", "ratio", true),
    ("raw.setup_s", "s", true),
    ("raw.deliver_p50_us", "us", true),
    ("raw.cpu_us_per_delivery", "us", true),
    ("live.cpu_us_per_delivery", "us", true),
    ("mem.peak_rss_mb", "MiB", true),
];

/// A reported metric: name, unit, value, and how many samples are behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Pairs measured `(name, value, samples)` with the table `names_units`
/// comes from, in table order. A table entry without a value is a bug in
/// this program, not in the run.
pub fn tabulate(
    names_units: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64, usize)],
) -> Vec<Metric> {
    names_units
        .map(|(name, unit)| {
            let (_, value, samples) = values
                .iter()
                .find(|(n, ..)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            Metric {
                name,
                unit,
                value: if value.is_finite() { *value } else { 0.0 },
                samples: *samples,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_telemetry::json::JsonValue;

    /// `BENCHMARK.json` at the repository root lists exactly these metrics,
    /// with these units, directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let field = |entry: &JsonValue, key: &str| {
            entry
                .get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let direction = |lower: bool| if lower { "lower" } else { "higher" };

        let listed = doc.get("end_to_end").expect("end_to_end").items();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, (name, unit, lower, bound)) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), direction(lower));
            let listed_bound = entry
                .get("bound")
                .and_then(JsonValue::as_f64)
                .expect("bound");
            assert!(
                (listed_bound - bound).abs() < 1e-12,
                "{name}: bound {listed_bound} vs {bound}"
            );
            assert!(bound <= 0.25);
        }
        let listed = doc.get("per_layer").expect("per_layer").items();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, (name, unit, lower)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), direction(lower));
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
