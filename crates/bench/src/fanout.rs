//! E6 scenario — one publish vs N sequential remote invocations (§5.4).
//!
//! Each side notifies `n` receivers of `rounds` quotes and reports its wall
//! time and the `codec.encodes` spent inside the timed loop; setting up
//! (subscribing, exporting and attaching stubs) happens before it. The
//! codec counts only while the process-global registry is enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psc_dace::inproc::Bus;
use psc_rmi::{remote_iface, DgcMode, RmiError, RmiNetwork};
use pubsub_core::FilterSpec;

use crate::{quote_obvents, BenchQuote};

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

/// One side's figures for `rounds` notifications of `n` receivers.
pub struct Side {
    /// Wall-clock µs per round (one quote to every receiver).
    pub us_per_round: f64,
    /// `codec.encodes` spent in the timed loop.
    pub encodes: u64,
}

fn timed(rounds: usize, mut round: impl FnMut(usize)) -> Side {
    let encodes = psc_telemetry::global().counter("codec.encodes");
    let before = encodes.get();
    let start = Instant::now();
    for i in 0..rounds {
        round(i);
    }
    let us_per_round = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    Side {
        us_per_round,
        encodes: encodes.get() - before,
    }
}

/// One publish per round on an in-process bus with `n` subscribed domains.
pub fn pubsub(n: usize, rounds: usize) -> Side {
    let quotes = quote_obvents(5, 64);
    let bus = Bus::new();
    let publisher = bus.domain_inline();
    let received = Arc::new(AtomicU64::new(0));
    let _domains: Vec<_> = (0..n)
        .map(|_| {
            let d = bus.domain_inline();
            let r = received.clone();
            let sub = d.subscribe(FilterSpec::accept_all(), move |_q: BenchQuote| {
                r.fetch_add(1, Ordering::Relaxed);
            });
            sub.activate().unwrap();
            sub.detach();
            d
        })
        .collect();
    let side = timed(rounds, |i| {
        publisher.publish(quotes[i % quotes.len()].clone()).unwrap()
    });
    assert_eq!(received.load(Ordering::Relaxed) as usize, rounds * n);
    side
}

/// `n` blocking remote invocations per round, one per receiver.
pub fn rmi(n: usize, rounds: usize) -> Side {
    let quotes = quote_obvents(5, 64);
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
    let side = timed(rounds, |i| {
        let q = &quotes[i % quotes.len()];
        for stub in &stubs {
            stub.notify(q.company().clone(), *q.price(), *q.amount())
                .unwrap();
        }
    });
    assert_eq!(count.load(Ordering::Relaxed) as usize, rounds * n);
    side
}
