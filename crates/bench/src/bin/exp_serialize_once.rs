//! E8 report — serialize-once fan-out: shared wire buffers vs per-member
//! encoding on the hot publish path.
//!
//! Two measurements, both over fan-out ∈ {8, 64, 512}:
//!
//! 1. **mechanism** — the transport envelope of one publish is either
//!    re-encoded for every destination (the pre-refactor behaviour) or
//!    encoded once into a pooled [`psc_codec::WireBytes`] and shared by
//!    reference; wall-clock and `codec.encodes` quantify the gap.
//! 2. **end-to-end** — a simulated DACE deployment (1 publisher, F
//!    all-accepting subscribers, publisher-side placement) publishing a
//!    quote stream; the global telemetry delta shows how many encodes,
//!    pool hits and coalesced control batches the whole stack performs.
//!
//! Run with `cargo run --release -p psc-bench --bin exp_serialize_once`.
//! Set `BENCH_QUICK=1` for a seconds-scale smoke configuration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psc_bench::{fmt_f, gates, quote_obvents, write_bench_json, BenchQuote, Table};
use psc_codec::WireBytes;
use psc_dace::{DaceConfig, DaceNode};
use psc_obvent::WireObvent;
use psc_simnet::{NodeId, SimConfig, SimNet, SimTime};
use psc_telemetry::json::JsonValue;
use psc_telemetry::{Registry, Snapshot, Tracer};
use pubsub_core::FilterSpec;
use serde::{Deserialize, Serialize};

/// Stand-in for the per-destination transport envelope (`NodeMsg::Data`
/// carries exactly this shape: a channel id plus the protocol bytes).
#[derive(Serialize, Deserialize)]
struct Envelope {
    channel: u64,
    bytes: WireBytes,
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name) - before.counter(name)
}

/// The mechanism comparison: encode the envelope per destination (cloned)
/// vs encode once and share the buffer (shared). Returns (µs per publish,
/// codec.encodes per publish).
fn mechanism(fanout: usize, rounds: usize, shared: bool) -> (f64, f64) {
    let payload: WireBytes = psc_codec::to_wire_bytes(
        &WireObvent::encode(&BenchQuote::new("Telco Mobiles".into(), 80.0, 10)).unwrap(),
    )
    .unwrap();
    let mut sink: Vec<WireBytes> = Vec::with_capacity(fanout);
    let before = psc_telemetry::global().snapshot();
    let start = Instant::now();
    for _ in 0..rounds {
        sink.clear();
        if shared {
            let encoded = psc_codec::to_wire_bytes(&Envelope {
                channel: 7,
                bytes: payload.clone(),
            })
            .unwrap();
            for _ in 0..fanout {
                sink.push(encoded.clone());
            }
        } else {
            for _ in 0..fanout {
                let encoded = psc_codec::to_wire_bytes(&Envelope {
                    channel: 7,
                    bytes: payload.clone(),
                })
                .unwrap();
                sink.push(encoded);
            }
        }
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    let after = psc_telemetry::global().snapshot();
    let encodes = counter_delta(&before, &after, "codec.encodes") as f64 / rounds as f64;
    (us, encodes)
}

/// End-to-end DACE fan-out in the simulator. Returns (wall-clock ms for the
/// publish phase, global-counter deltas of the publish phase, delivered).
fn end_to_end(fanout: usize, publishes: usize) -> (f64, Snapshot, Snapshot, u64, u64) {
    let mut sim = SimNet::new(SimConfig::with_seed(7));
    let ids: Vec<NodeId> = (0..(fanout as u64 + 1)).map(NodeId).collect();
    let config = DaceConfig {
        // Keep periodic re-announcements out of the publish window.
        announce_interval: psc_simnet::Duration::from_secs(30),
        ..DaceConfig::default()
    };
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::default());
    tracer.set_enabled(false);
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
    let delivered = Arc::new(AtomicU64::new(0));
    for &id in &ids[1..] {
        let d = delivered.clone();
        // Three subscriptions per node, activated in one callback: their
        // control floods to each peer coalesce into a single batch frame.
        DaceNode::drive(&mut sim, id, move |domain| {
            for _ in 0..3 {
                let d = d.clone();
                let sub = domain.subscribe(FilterSpec::accept_all(), move |_q: BenchQuote| {
                    d.fetch_add(1, Ordering::Relaxed);
                });
                sub.activate().unwrap();
                sub.detach();
            }
        });
    }
    sim.run_until(SimTime::from_millis(50));

    let before = psc_telemetry::global().snapshot();
    let start = Instant::now();
    for q in quote_obvents(11, publishes) {
        DaceNode::publish_from(&mut sim, ids[0], q);
    }
    let deadline = sim.now() + psc_simnet::Duration::from_secs(2);
    sim.run_until(deadline);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let after = psc_telemetry::global().snapshot();
    // Let one periodic announce round fire: each node re-floods all its
    // subscriptions in one timer callback, which is where the per-peer
    // control batching takes effect. Coalescing is counted in the
    // deployment registry (covering setup, publish and announce phases).
    let announce_deadline = sim.now() + psc_simnet::Duration::from_secs(31);
    sim.run_until(announce_deadline);
    let coalesced = registry.snapshot().counter("dace.batch.coalesced");
    (wall_ms, before, after, delivered.load(Ordering::Relaxed), coalesced)
}

fn main() {
    psc_telemetry::set_global_enabled(true);
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let fanouts: &[usize] = if quick { &[8] } else { &[8, 64, 512] };
    let rounds = if quick { 200 } else { 2000 };
    let publishes = if quick { 5 } else { 20 };

    println!("E8: serialize-once fan-out — shared wire buffers vs per-member encoding\n");

    println!("mechanism: one publish envelope to F destinations ({rounds} rounds)");
    let mut table = Table::new(&[
        "fanout",
        "cloned us/pub",
        "shared us/pub",
        "speedup",
        "cloned encodes/pub",
        "shared encodes/pub",
    ]);
    let mut mech_rows = JsonValue::arr();
    for &f in fanouts {
        let (cloned_us, cloned_encodes) = mechanism(f, rounds, false);
        let (shared_us, shared_encodes) = mechanism(f, rounds, true);
        table.row(&[
            f.to_string(),
            fmt_f(cloned_us),
            fmt_f(shared_us),
            format!("{:.1}x", cloned_us / shared_us),
            fmt_f(cloned_encodes),
            fmt_f(shared_encodes),
        ]);
        mech_rows = mech_rows.push(
            JsonValue::obj()
                .set("fanout", f)
                .set("cloned_us_per_publish", cloned_us)
                .set("shared_us_per_publish", shared_us)
                .set("cloned_encodes_per_publish", cloned_encodes)
                .set("shared_encodes_per_publish", shared_encodes),
        );
    }
    table.print();

    println!("\nend-to-end: DACE publisher-placement fan-out ({publishes} publishes)");
    let mut table = Table::new(&[
        "fanout",
        "wall ms",
        "encodes/pub",
        "pool hit rate",
        "ctl batched",
        "delivered",
    ]);
    let mut e2e_rows = JsonValue::arr();
    for &f in fanouts {
        let (wall_ms, before, after, delivered, coalesced) = end_to_end(f, publishes);
        let encodes = counter_delta(&before, &after, "codec.encodes");
        let hits = counter_delta(&before, &after, "codec.pool.hits");
        let misses = counter_delta(&before, &after, "codec.pool.misses");
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        table.row(&[
            f.to_string(),
            fmt_f(wall_ms),
            fmt_f(encodes as f64 / publishes as f64),
            format!("{:.0}%", hit_rate * 100.0),
            coalesced.to_string(),
            delivered.to_string(),
        ]);
        e2e_rows = e2e_rows.push(
            JsonValue::obj()
                .set("fanout", f)
                .set("publishes", publishes as u64)
                .set("wall_ms", wall_ms)
                .set("codec_encodes", encodes)
                .set("codec_encodes_per_publish", encodes as f64 / publishes as f64)
                .set("codec_pool_hits", hits)
                .set("codec_pool_misses", misses)
                .set("dace_batch_coalesced", coalesced)
                .set("delivered", delivered),
        );
    }
    table.print();

    let doc = JsonValue::obj()
        .set("experiment", "serialize_once")
        .set("quick", quick)
        .set(
            "gates",
            gates(&[
                ("mechanism", "fanout", "shared_encodes_per_publish"),
                ("end_to_end", "fanout", "codec_encodes_per_publish"),
            ]),
        )
        .set("mechanism", mech_rows)
        .set("end_to_end", e2e_rows)
        .set("metrics", psc_telemetry::global().snapshot().to_json());
    let path = write_bench_json("exp_serialize_once", &doc).expect("write BENCH json");
    println!("\nmetrics snapshot written to {}", path.display());
    println!(
        "\nexpected shape: cloned encoding grows linearly in F while shared encoding is\n\
         flat (one envelope encode per publish, F reference clones); end-to-end encodes\n\
         per publish stay near-constant in F under the serialize-once fan-out."
    );
}
