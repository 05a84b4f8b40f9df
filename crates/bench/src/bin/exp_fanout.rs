//! E6 report — pub/sub vs sequential RMI for 1→N notification (§5.4).
//!
//! Wall-clock time to notify N receivers of one quote: a single publish on
//! the bus versus N blocking remote invocations. Run with
//! `cargo run --release -p psc-bench --bin exp_fanout`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psc_bench::{fmt_f, gates, quote_obvents, write_bench_json, BenchQuote, Table};
use psc_dace::inproc::Bus;
use psc_rmi::{remote_iface, DgcMode, RmiError, RmiNetwork};
use psc_telemetry::{json::JsonValue, Registry};
use pubsub_core::FilterSpec;

remote_iface! {
    pub trait QuoteSink {
        fn notify(&self, company: String, price: f64, amount: u32) -> ();
    }
}

struct Sink {
    count: Arc<AtomicU64>,
}

impl QuoteSink for Sink {
    fn notify(&self, _c: String, _p: f64, _a: u32) -> Result<(), RmiError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn main() {
    // The codec's encode/pool counters live in the process-global registry;
    // the per-deployment registry below only sees core.* counters.
    psc_telemetry::set_global_enabled(true);
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    println!("E6: 1-to-N notification — one publish vs N sequential remote invocations\n");
    let quotes = quote_obvents(5, 64);
    let rounds = if quick { 20usize } else { 200usize };
    // The sequential-RMI side spawns one runtime thread per receiver, so the
    // list stops at 128; the 512-way fan-out point is measured on the DACE
    // publish path by `exp_serialize_once` (E8), where serialize-once applies.
    let receivers: &[usize] = if quick {
        &[1, 4]
    } else {
        &[1, 4, 16, 64, 128]
    };
    let mut table = Table::new(&[
        "receivers",
        "pubsub us/round",
        "rmi us/round",
        "rmi/pubsub",
    ]);

    let mut json_rows = JsonValue::arr();
    for &n in receivers {
        let global_before = psc_telemetry::global().snapshot();
        // pub/sub — all domains record into one registry, so the snapshot's
        // `core.published` / `core.delivered` cover the whole fan-out.
        let registry = Registry::new();
        let bus = Bus::new();
        let publisher = bus.domain_inline();
        publisher.attach_telemetry(&registry);
        let received = Arc::new(AtomicU64::new(0));
        let domains: Vec<_> = (0..n)
            .map(|_| {
                let d = bus.domain_inline();
                d.attach_telemetry(&registry);
                let r = received.clone();
                let sub = d.subscribe(FilterSpec::accept_all(), move |_q: BenchQuote| {
                    r.fetch_add(1, Ordering::Relaxed);
                });
                sub.activate().unwrap();
                sub.detach();
                d
            })
            .collect();
        let start = Instant::now();
        for i in 0..rounds {
            publisher.publish(quotes[i % quotes.len()].clone()).unwrap();
        }
        let pubsub_us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        assert_eq!(received.load(Ordering::Relaxed) as usize, rounds * n);
        drop(domains);

        // sequential RMI
        let net = RmiNetwork::new(n + 1, DgcMode::Strong);
        let rts = net.runtimes();
        let count = Arc::new(AtomicU64::new(0));
        let stubs: Vec<QuoteSinkStub> = (1..=n)
            .map(|i| {
                let r = QuoteSinkStub::export(
                    &rts[i],
                    Arc::new(Sink {
                        count: count.clone(),
                    }),
                );
                QuoteSinkStub::attach(&rts[0], r).unwrap()
            })
            .collect();
        let start = Instant::now();
        for i in 0..rounds {
            let q = &quotes[i % quotes.len()];
            for stub in &stubs {
                stub.notify(q.company().clone(), *q.price(), *q.amount())
                    .unwrap();
            }
        }
        let rmi_us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        assert_eq!(count.load(Ordering::Relaxed) as usize, rounds * n);

        table.row(&[
            n.to_string(),
            fmt_f(pubsub_us),
            fmt_f(rmi_us),
            format!("{:.1}x", rmi_us / pubsub_us),
        ]);
        // Per-row delta of the global codec counters (encode traffic and
        // buffer-pool effectiveness across both transports).
        let global_after = psc_telemetry::global().snapshot();
        let encodes = global_after.counter("codec.encodes") - global_before.counter("codec.encodes");
        let mut codec = JsonValue::obj();
        for (name, &after) in &global_after.counters {
            if name.starts_with("codec.") {
                codec = codec.set(name.clone(), after - global_before.counter(name));
            }
        }
        json_rows = json_rows.push(
            JsonValue::obj()
                .set("receivers", n)
                .set("pubsub_us_per_round", pubsub_us)
                .set("rmi_us_per_round", rmi_us)
                .set("rmi_over_pubsub", rmi_us / pubsub_us)
                // Serialize-once guard: one publish to N in-process
                // receivers must not encode once per receiver.
                .set("codec_encodes_per_round", encodes as f64 / rounds as f64)
                .set("codec", codec)
                .set("metrics", registry.snapshot().to_json()),
        );
    }
    table.print();
    let doc = JsonValue::obj()
        .set("experiment", "fanout")
        .set("rounds", rounds as u64)
        .set("gates", gates(&[("rows", "receivers", "codec_encodes_per_round")]))
        .set("rows", json_rows)
        .set("global_metrics", psc_telemetry::global().snapshot().to_json());
    let path = write_bench_json("fanout", &doc).expect("write BENCH json");
    println!("\nmetrics snapshot written to {}", path.display());
    println!(
        "\nexpected shape: RMI cost grows linearly in N (one synchronous round-trip per\n\
         receiver); pub/sub grows far more slowly (single publish, fabric fan-out) —\n\
         the decoupling argument for disseminating quotes via pub/sub."
    );
}
