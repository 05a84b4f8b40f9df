//! E15 report — consistent cluster snapshots: capture cost, wave latency
//! under loss, and byte stability of the rendered cluster image.
//!
//! Three claims, one section each:
//!
//! 1. **capture** — a 3-node cluster delivers a 256-publish certified
//!    burst; the snapshot wave is initiated while the tail of the burst
//!    is still in flight. The row reports the wall cost of the initiate
//!    call (local fragment capture + marker flood — the only part that
//!    runs on the caller), the virtual time until the cut assembles, the
//!    deterministic marker/fragment message counts, and how many in-flight
//!    obvents the cut recorded.
//! 2. **byte stability** — every capture row runs its workload twice and
//!    diffs the rendered cluster images; `byte_mismatch` must be 0 (the
//!    rendering is the determinism oracle, same as the harness uses).
//! 3. **loss** — the same wave with the chaos window kept lossy through
//!    marker delivery, swept over drop probabilities. Liveness comes from
//!    the `SnapRetry` re-floods; the row reports the virtual completion
//!    time and the retry/force-close counts, all deterministic for the
//!    fixed seed and therefore gated.
//!
//! Run with `cargo run --release -p psc-bench --bin exp_snapshot`. The
//! workload is fixed-size in quick and full mode (the simulator costs
//! milliseconds), so every deterministic count is directly comparable
//! across scales.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psc_bench::{fmt_f, gates, write_bench_json, Table};
use psc_dace::{DaceConfig, DaceNode};
use psc_obvent::builtin::Certified;
use psc_obvent::declare_obvent_model;
use psc_simnet::{
    Duration as SimDuration, LatencyModel, NodeId, SimConfig, SimNet, SimTime,
};
use psc_telemetry::json::JsonValue;
use psc_telemetry::{Registry, Tracer};
use pubsub_core::FilterSpec;

declare_obvent_model! {
    /// The snapshot workload: a certified tick, so the capture carries a
    /// real delivered set and a live retransmission log.
    pub class SnapBenchTick implements [Certified] { n: u64 }
}

const PUBLISHES: u64 = 256;

/// Tail burst published by n1 at the cut instant: pre-cut traffic still in
/// flight toward the initiator when it captures, so the cut's in-flight
/// recordings are exercised (the initiator's own outbound burst can never
/// land in its *incoming* recording window).
const TAIL: u64 = 32;

fn attach(sim: &mut SimNet, id: NodeId) -> Arc<AtomicU64> {
    let delivered = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&delivered);
    DaceNode::drive(sim, id, move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |_t: SnapBenchTick| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        sub.activate().expect("attach subscriber");
        sub.detach();
    });
    delivered
}

struct WaveRun {
    capture_wall_ms: f64,
    wave_virtual_ms: u64,
    completed: bool,
    markers_sent: u64,
    frags_received: u64,
    inflight_recorded: u64,
    retries: u64,
    forced: u64,
    render: String,
}

/// One full wave: warm up, burst the certified workload, initiate the
/// snapshot with the tail of the burst (and `loss`) still in flight, and
/// step virtual time until the cut assembles.
fn run_wave(loss: f64) -> WaveRun {
    let mut sim = SimNet::new(SimConfig {
        seed: 15,
        latency: LatencyModel::Uniform {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(5),
        },
        drop_probability: 0.0,
    });
    let ids: Vec<NodeId> = (0..3u64).map(NodeId).collect();
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::default());
    tracer.set_enabled(false);
    let config = DaceConfig::default();
    for (i, _) in ids.iter().enumerate() {
        sim.add_node(
            format!("n{i}"),
            DaceNode::factory_with_telemetry(
                ids.clone(),
                config.clone(),
                Arc::clone(&registry),
                Arc::clone(&tracer),
            ),
        );
    }
    let sinks = [attach(&mut sim, ids[1]), attach(&mut sim, ids[2])];
    sim.run_until(SimTime::from_millis(40));

    DaceNode::drive(&mut sim, ids[0], move |domain| {
        for n in 0..PUBLISHES {
            domain.publish(SnapBenchTick::new(n)).expect("publish tick");
        }
    });
    // Let part of the burst drain, then cut while the rest (plus the
    // certified ack machinery) is in flight, under the section's loss.
    sim.set_drop_probability(loss);
    let mid = sim.now() + SimDuration::from_millis(2);
    sim.run_until(mid);
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        for n in 0..TAIL {
            domain.publish(SnapBenchTick::new(PUBLISHES + n)).expect("publish tail");
        }
    });

    let capture_start = Instant::now();
    DaceNode::snapshot_from(&mut sim, ids[0]);
    let capture_wall_ms = capture_start.elapsed().as_secs_f64() * 1e3;

    let wave_start = sim.now();
    let deadline = wave_start + SimDuration::from_millis(10_000);
    while DaceNode::snapshot_cut_of(&mut sim, ids[0]).is_none() && sim.now() < deadline {
        let step = sim.now() + SimDuration::from_millis(1);
        sim.run_until(step);
    }
    let wave_virtual_ms = (sim.now().as_micros() - wave_start.as_micros()) / 1_000;

    // Lossless settle so the delivery sanity check below is meaningful.
    sim.set_drop_probability(0.0);
    let settle = sim.now() + SimDuration::from_millis(3_000);
    sim.run_until(settle);
    for sink in &sinks {
        assert_eq!(
            sink.load(Ordering::Relaxed),
            PUBLISHES + TAIL,
            "the snapshot plane must not perturb certified delivery"
        );
    }

    let cut = DaceNode::snapshot_cut_of(&mut sim, ids[0]);
    let snapshot = registry.snapshot();
    WaveRun {
        capture_wall_ms,
        wave_virtual_ms,
        completed: cut.is_some(),
        markers_sent: snapshot.counter("snapshot.markers.sent"),
        frags_received: snapshot.counter("snapshot.frags.received"),
        inflight_recorded: snapshot.counter("snapshot.inflight.recorded"),
        retries: snapshot.counter("snapshot.retries"),
        forced: snapshot.counter("snapshot.forced"),
        render: cut.map(|c| c.render()).unwrap_or_default(),
    }
}

/// Appends one wave's figures to `row` (which already holds the section's
/// sweep key, if it has one).
fn wave_row(row: JsonValue, first: &WaveRun, replay: &WaveRun) -> JsonValue {
    row.set("publishes", PUBLISHES)
        .set("capture_wall_ms", first.capture_wall_ms)
        .set("wave_virtual_ms", first.wave_virtual_ms)
        .set("incomplete", u64::from(!first.completed))
        .set("byte_mismatch", u64::from(first.render != replay.render))
        .set("render_bytes", first.render.len() as u64)
        .set("markers_sent", first.markers_sent)
        .set("frags_received", first.frags_received)
        .set("inflight_recorded", first.inflight_recorded)
        .set("retries", first.retries)
        .set("forced", first.forced)
}

fn main() {
    psc_telemetry::set_global_enabled(true);
    let quick = std::env::var_os("BENCH_QUICK").is_some();

    println!("E15: consistent cluster snapshots — capture cost, wave latency, byte stability\n");

    let mut capture_table = Table::new(&[
        "capture ms",
        "wave virt ms",
        "complete",
        "byte-stable",
        "markers",
        "inflight rec",
    ]);
    let first = run_wave(0.0);
    let replay = run_wave(0.0);
    capture_table.row(&[
        fmt_f(first.capture_wall_ms),
        first.wave_virtual_ms.to_string(),
        u64::from(first.completed).to_string(),
        u64::from(first.render == replay.render).to_string(),
        first.markers_sent.to_string(),
        first.inflight_recorded.to_string(),
    ]);
    let capture_rows = JsonValue::arr().push(wave_row(JsonValue::obj(), &first, &replay));
    capture_table.print();
    println!();

    let mut loss_table = Table::new(&[
        "loss %",
        "wave virt ms",
        "complete",
        "retries",
        "forced",
        "markers",
    ]);
    let mut loss_rows = JsonValue::arr();
    for &loss in &[0.0f64, 0.1, 0.3] {
        let first = run_wave(loss);
        let replay = run_wave(loss);
        loss_table.row(&[
            format!("{:.0}", loss * 100.0),
            first.wave_virtual_ms.to_string(),
            u64::from(first.completed).to_string(),
            first.retries.to_string(),
            u64::from(first.forced > 0).to_string(),
            first.markers_sent.to_string(),
        ]);
        let row = JsonValue::obj().set("loss_pct", (loss * 100.0) as u64);
        loss_rows = loss_rows.push(wave_row(row, &first, &replay));
    }
    loss_table.print();

    // Both sections share the row shape and the gated counts. Baselines of
    // zero for `incomplete` / `byte_mismatch` make any occurrence a failure;
    // markers, retries and the wave's virtual completion time growing means
    // the wave protocol got chattier or started needing retries.
    let mut gated = Vec::new();
    for (section, key) in [("capture", "publishes"), ("loss", "loss_pct")] {
        for metric in ["incomplete", "byte_mismatch", "markers_sent", "wave_virtual_ms", "retries"] {
            gated.push((section, key, metric));
        }
    }
    let doc = JsonValue::obj()
        .set("experiment", "snapshot")
        .set("quick", quick)
        .set("publishes", PUBLISHES)
        .set("gates", gates(&gated))
        .set("capture", capture_rows)
        .set("loss", loss_rows)
        .set("metrics", psc_telemetry::global().snapshot().to_json());
    let path = write_bench_json("exp_snapshot", &doc).expect("write BENCH json");
    println!("\nmetrics snapshot written to {}", path.display());
    println!(
        "\nexpected shape: the capture call costs well under a millisecond and the wave\n\
         assembles within a few virtual round trips at loss 0; every row is complete\n\
         and byte-stable across replays (the render is the determinism oracle); under\n\
         loss the SnapRetry re-floods keep the wave live at a bounded retry count."
    );
}
