//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! psc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! psc-benchmark --selfcheck <N> [--seconds <s>] [--workload <name>]
//! ```
//!
//! `--trace 0` runs the live driver and prints the end-to-end metrics;
//! `--trace 1` runs the live driver, the layer probes and three replays of
//! the same inputs, prints the per-layer metrics and writes the spans. The
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit status is
//! non-zero when any operation failed.

mod hostref;
mod live;
mod metrics;
mod oracle;
mod probe;
mod procfs;
mod replay;
mod selfcheck;
mod sink;
mod span;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use psc_telemetry::json::JsonValue;

use live::LiveReport;
use metrics::{Metric, END_TO_END, PER_LAYER};
use probe::Probes;
use replay::{Mode, Replay};
use workload::{Inputs, Workload};

/// Where WAL data and span files go: `benchmark/target/`, scratch and
/// untracked, on the checkout's own disk.
fn scratch_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("target")
}

fn end_to_end(live: &LiveReport) -> Vec<Metric> {
    let values = [
        ("setup_s", live.setup_s, live.setup_samples.len()),
        (
            "deliver_p50_us",
            live.deliver_p50_us,
            live.paced_deliveries as usize,
        ),
        (
            "deliver_p75_us",
            live.deliver_p75_us,
            live.paced_deliveries as usize,
        ),
        ("rss_mb", live.rss_mb, live.rss_samples.len()),
    ];
    metrics::tabulate(
        END_TO_END.iter().map(|&(name, unit, ..)| (name, unit)),
        &values,
    )
}

/// `(count, total duration ns, self time ns)` of the spans named `name`.
fn row(totals: &[span::NameTotals], name: &str) -> (u64, u64, u64) {
    totals
        .iter()
        .find(|t| t.0 == name)
        .map_or((0, 0, 0), |t| (t.1, t.2, t.3))
}

fn per_layer(
    inputs: &Inputs,
    live: &LiveReport,
    probes: &Probes,
    plain: &Replay,
    traced: &Replay,
    bare: &Replay,
    totals: &[span::NameTotals],
) -> Vec<Metric> {
    let spans = &traced
        .spans
        .as_ref()
        .expect("traced replay keeps spans")
        .spans;
    let counts = &traced.counts;
    let publishes = counts.publishes.max(1) as f64;
    let deliveries = counts.deliveries.max(1) as f64;
    let wall = traced.wall_ns.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let count = |name: &str| row(totals, name).0 as usize;
    let total_us = |name: &str| us(row(totals, name).1);
    let mean_us = |name: &str| total_us(name) / count(name).max(1) as f64;
    let per_virtual_s = |name: &str| total_us(name) / traced.virtual_s;

    // Every measured-region span sits under a `replay.event` root.
    let (_, root_total, harness_self) = row(totals, "replay.event");
    let callback_self: u64 = totals
        .iter()
        .filter(|t| t.0.starts_with("dace."))
        .map(|t| t.3)
        .sum();
    let filter_core: u64 = totals
        .iter()
        .filter(|t| t.0.starts_with("filter.") || t.0 == "core.deliver")
        .map(|t| t.2)
        .sum();
    let publish_cbs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "dace.publish_cb")
        .map(|s| us(s.duration()))
        .collect();
    let fifth = (publish_cbs.len() / 5).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let drift = mean(&publish_cbs[publish_cbs.len().saturating_sub(fifth)..])
        / mean(&publish_cbs[..fifth.min(publish_cbs.len())]).max(1e-9);
    let messages = (counts.data_msgs + counts.control_msgs).max(1) as f64;
    let plain_wall = plain.wall_ns.max(1) as f64;
    let n = counts.publishes as usize;
    let windows = live.host_ref_samples.len();

    let values = [
        // codec
        ("codec.encode_us", probes.encode_us, probe::CALLS),
        ("codec.decode_us", probes.decode_us, probe::CALLS),
        (
            "codec.frame_us",
            total_us("codec.frame") / messages,
            count("codec.frame"),
        ),
        (
            "codec.encodes_per_publish",
            counts.encodes as f64 / publishes,
            n,
        ),
        ("codec.pool_hit_share", plain.pool_hit_share, n),
        // obvent
        ("obvent.view_us", probes.view_us, probe::CALLS),
        // filter
        ("filter.index_match_us", probes.index_match_us, probe::CALLS),
        (
            "filter.candidates_per_event",
            probes.candidates_per_event,
            probe::CALLS,
        ),
        (
            "filter.index_insert_us",
            probes.index_insert_us,
            inputs.subs.len(),
        ),
        (
            "filter.index_remove_us",
            probes.index_remove_us,
            inputs.subs.len(),
        ),
        // core
        ("core.deliver_us", probes.deliver_us, probe::CALLS),
        ("core.subscribe_us", probes.subscribe_us, inputs.subs.len()),
        // group
        (
            "group.msgs_per_publish",
            counts.data_msgs as f64 / publishes,
            n,
        ),
        ("group.acks_per_publish", counts.acks as f64 / publishes, n),
        (
            "group.retransmits_per_publish",
            live.retransmits_per_publish,
            1,
        ),
        ("group.broadcast_us", probes.broadcast_us, probe::SAMPLE),
        ("group.on_message_us", probes.on_message_us, probe::SAMPLE),
        // dace
        (
            "dace.publish_cb_us",
            mean_us("dace.publish_cb"),
            publish_cbs.len(),
        ),
        (
            "dace.recv_cb_us",
            mean_us("dace.recv_cb"),
            count("dace.recv_cb"),
        ),
        (
            "dace.ctl_cb_us_per_s",
            per_virtual_s("dace.ctl_cb"),
            count("dace.ctl_cb"),
        ),
        (
            "dace.timer_cb_us_per_s",
            per_virtual_s("dace.timer_cb"),
            count("dace.timer_cb"),
        ),
        (
            "dace.callbacks_per_delivery",
            counts.callbacks as f64 / deliveries,
            n,
        ),
        ("dace.self_us_per_publish", us(callback_self) / publishes, n),
        ("dace.control_msgs_per_s", live.control_msgs_per_s, 1),
        ("dace.publish_cb_us_last_over_first", drift, fifth),
        // simnet / WAL
        (
            "wal.appends_per_publish",
            counts.wal_appends as f64 / publishes,
            n,
        ),
        (
            "wal.syncs_per_publish",
            counts.wal_syncs as f64 / publishes,
            n,
        ),
        (
            "wal.bytes_per_publish",
            counts.wal_bytes as f64 / publishes,
            n,
        ),
        (
            "wal.apply_us_per_publish",
            total_us("wal.apply") / publishes,
            n,
        ),
        (
            "wal.fsync_floor_us",
            probes.fsync_floor_us,
            probe::FSYNC_SAMPLES,
        ),
        // net (live)
        (
            "net.act_sync_us",
            live.act_sync_us,
            live.paced_publishes as usize,
        ),
        (
            "net.transit_us",
            live.transit_us,
            live.paced_deliveries as usize,
        ),
        ("net.msgs_per_delivery", live.msgs_per_delivery, 1),
        ("net.bytes_per_delivery", live.bytes_per_delivery, 1),
        (
            "net.ctx_switches_per_delivery",
            live.ctx_switches_per_delivery,
            1,
        ),
        ("net.threads", live.threads, 1),
        ("net.backpressure_waits", live.backpressure_waits, 1),
        ("net.queue_dropped", live.queue_dropped as f64, 1),
        // telemetry
        (
            "telemetry.tax_share",
            (plain_wall - bare.wall_ns as f64) / plain_wall,
            1,
        ),
        // whole stack / harness
        (
            "stack.deliveries_per_s",
            plain.counts.deliveries as f64 / (plain_wall / 1e9),
            n,
        ),
        ("stack.us_per_publish", plain_wall / 1e3 / publishes, n),
        ("trace.overhead_share", (wall - plain_wall) / plain_wall, 1),
        (
            "budget.unattributed_share",
            1.0 - root_total as f64 / wall,
            spans.len(),
        ),
        (
            "budget.harness_share",
            harness_self as f64 / wall,
            spans.len(),
        ),
        (
            "budget.filter_core_share",
            filter_core as f64 / wall,
            spans.len(),
        ),
        (
            "gen.offered_per_s",
            live.offered_per_s,
            live.paced_publishes as usize,
        ),
        (
            "gen.lag_p99_us",
            live.lag_p99_us,
            live.paced_publishes as usize,
        ),
        ("gen.cpu_share", live.gen_cpu_share, 1),
        (
            "tail.deliver_p90_us",
            live.tail_p90_us,
            live.paced_deliveries as usize,
        ),
        (
            "tail.deliver_p99_us",
            live.tail_p99_us,
            live.paced_deliveries as usize,
        ),
        (
            "tail.deliver_max_us",
            live.tail_max_us,
            live.paced_deliveries as usize,
        ),
        (
            "closed.deliveries_per_s",
            live.closed_deliveries_per_s,
            live.slice_samples.len(),
        ),
        ("host.ref_ns", live.host_ref_ns, windows),
        ("host.ref_swing", live.host_ref_swing, windows),
        (
            "raw.setup_s",
            live.raw_setup_s,
            live.raw_setup_samples.len(),
        ),
        ("raw.deliver_p50_us", live.raw_p50_us, windows),
        ("raw.cpu_us_per_delivery", live.raw_cpu_us, windows),
        (
            "live.cpu_us_per_delivery",
            live.cpu_us_per_delivery,
            live.cpu_samples.len(),
        ),
        ("mem.peak_rss_mb", live.peak_rss_mb, 1),
    ];
    metrics::tabulate(
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)),
        &values,
    )
}

/// The traced run: probes, then the same inputs replayed untraced, traced,
/// and untraced with telemetry off. Returns the metrics and what failed.
fn traced_run(inputs: &Inputs, live: &LiveReport, scratch: &Path) -> (Vec<Metric>, u64) {
    let data = scratch.join("data").join(format!(
        "{}-{}-replay",
        inputs.workload.name(),
        std::process::id()
    ));
    let publishes = inputs.workload.sizing().replay_publishes as usize;
    // The codec and filter counters live in the process-global registry,
    // which production leaves off (and so does the live run above); the
    // replays need them to count calls per callback.
    psc_telemetry::set_global_enabled(true);
    let probes = probe::run(inputs, &data);
    let replay = |traced, observability| {
        let mode = Mode {
            traced,
            observability,
        };
        replay::run(inputs, publishes, mode, &data)
    };
    let plain = replay(false, true);
    let mut traced = replay(true, true);
    let bare = replay(false, false);
    let _ = std::fs::remove_dir_all(&data);

    let mut failed = plain.verdict.failed() + traced.verdict.failed() + bare.verdict.failed();
    // Replay determinism: later issues may rest a claim on these counts.
    if plain.counts != traced.counts {
        println!("replay counts differ between two replays of the same seed:");
        println!("  untraced: {:?}", plain.counts);
        println!("  traced:   {:?}", traced.counts);
        failed += 1;
    }

    let store = traced.spans.as_mut().expect("traced replay keeps spans");
    store.expand_charges(|layer| probes.exclusive_ns(layer));
    let path = scratch
        .join("out")
        .join(format!("{}.spans.jsonl", inputs.workload.name()));
    match store.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", store.spans.len(), path.display()),
        Err(err) => println!("spans: could not write {}: {err}", path.display()),
    }
    println!(
        "layer budget of the traced replay ({} publishes, {:.1} ms wall):",
        traced.counts.publishes,
        traced.wall_ns as f64 / 1e6
    );
    println!(
        "  {:<22} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "total_us", "self_us", "self%"
    );
    let totals = span::totals_by_name(&store.spans);
    for &(name, count, total, own) in &totals {
        println!(
            "  {:<22} {:>9} {:>12.1} {:>12.1} {:>6.1}%",
            name,
            count,
            total as f64 / 1e3,
            own as f64 / 1e3,
            100.0 * own as f64 / traced.wall_ns.max(1) as f64
        );
    }
    let metrics = per_layer(inputs, live, &probes, &plain, &traced, &bare, &totals);
    (metrics, failed)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: workload::REFERENCE_SECONDS,
        trace: false,
        selfcheck: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--selfcheck" => args.selfcheck = Some(number()?.max(1) as usize),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("psc-benchmark: {err}");
            eprintln!(
                "usage: psc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            eprintln!("       psc-benchmark --selfcheck <N> [--seconds <s>] [--workload <name>]");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.selfcheck {
        return selfcheck::run(n, args.seconds, args.workload);
    }
    let Some(workload) = args.workload else {
        eprintln!("psc-benchmark: --workload is required");
        return ExitCode::from(2);
    };

    let inputs = Inputs::generate(workload, args.seed, args.seconds);
    let scratch = scratch_dir();
    println!(
        "workload {} seed {} seconds {} trace {} inputs_digest {:016x} cores {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.digest(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let data = scratch
        .join("data")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let live = live::run(&inputs, args.seconds, &data);
    let _ = std::fs::remove_dir_all(&data);

    let mut failed = live.failed();
    println!(
        "live: attempted {} missing {} duplicates {} misfiltered {} backlog {} queue_dropped {}",
        live.verdict.attempted,
        live.verdict.missing,
        live.verdict.duplicates,
        live.verdict.misfiltered,
        live.backlog_failed,
        live.queue_dropped
    );
    println!(
        "live: closed phase {:.0} publishes/s, paced rate {} /s ({:.0} % of it); generator lag p99 {:.1} us of a {:.1} us gap, cpu share {:.3}",
        live.closed_publishes_per_s,
        inputs.paced_per_s,
        100.0 * inputs.paced_per_s as f64 / live.closed_publishes_per_s.max(1.0),
        live.lag_p99_us,
        1e6 / inputs.paced_per_s as f64,
        live.gen_cpu_share
    );
    println!(
        "live: set-ups s {:.4?} as the clock read them, {:.4?} with the computing part at the reference host speed",
        live.raw_setup_samples, live.setup_samples
    );
    println!(
        "live: settled rss at round ends MiB {:.1?}, peak (VmHWM) {:.1}",
        live.rss_samples, live.peak_rss_mb
    );
    println!("live: closed slices 1/s {:?}", live.slice_samples);
    println!(
        "live: closed loop of {} outstanding: {:.0} deliveries/s (median of the slices; diagnostic, not gated)",
        workload::CLOSED_OUTSTANDING, live.closed_deliveries_per_s
    );
    println!(
        "live: host reference {:.0} ns per sample (nominal {:.0}), swing {:.2}x over the run's windows: {:.0?}",
        live.host_ref_ns,
        hostref::NOMINAL_NS,
        live.host_ref_swing,
        live.host_ref_samples
    );
    println!(
        "live: raw (what the clock read): p50 {:.1} us, cpu {:.1} us/delivery; tail p90 {:.1} us, p99 {:.1} us, max {:.1} us (diagnostic, not gated)",
        live.raw_p50_us, live.raw_cpu_us, live.tail_p90_us, live.tail_p99_us, live.tail_max_us
    );
    println!("live: paced windows, at the reference host speed:");
    println!("live:   p50 us {:.1?}", live.p50_samples);
    println!("live:   p75 us {:.1?}", live.p75_samples);
    println!("live:   cpu us/delivery {:.1?}", live.cpu_samples);

    let metrics = if args.trace {
        let (metrics, replay_failed) = traced_run(&inputs, &live, &scratch);
        failed += replay_failed;
        metrics
    } else {
        end_to_end(&live)
    };
    for m in &metrics {
        println!(
            "{:<36} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }

    let mut rendered = JsonValue::obj();
    for m in &metrics {
        rendered = rendered.set(
            m.name,
            JsonValue::obj().set("value", m.value).set("unit", m.unit),
        );
    }
    let result = JsonValue::obj()
        .set("correct", failed == 0)
        .set("attempted", live.verdict.attempted.max(1))
        .set("failed", failed)
        .set("metrics", rendered);
    println!("{}", result.render());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
