//! One test, alone in its process on purpose: it reads the process-global
//! telemetry registry (`filter.*`), which any other test's delivery would
//! bump concurrently.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use psc_filter::{CmpOp, Predicate, RemoteFilter};
use pubsub_core::{obvent, Domain, FilterSpec};

obvent! {
    pub class Quote { symbol: String, price: f64 }
}

const BANDS: u32 = 4;
const BAND_WIDTH: f64 = 25.0;

/// `symbol == s && lo <= price < hi`: the benchmark's `filter_match` shape.
fn band(symbol: &str, band: u32) -> RemoteFilter {
    let lo = f64::from(band) * BAND_WIDTH;
    RemoteFilter::conjunction(vec![
        Predicate::new("symbol", CmpOp::Eq, symbol),
        Predicate::new("price", CmpOp::Ge, lo),
        Predicate::new("price", CmpOp::Lt, lo + BAND_WIDTH),
    ])
}

/// What one delivery costs is a property of the obvent, not of how many
/// subscriptions exist. Counted, not timed: per obvent the domain asks its
/// index once, and the index walks only the filters whose equality gate
/// the obvent opened — the four bands of its symbol — whether 200 or 2 000
/// are subscribed. Those four walks are also the only `RemoteFilter::matches`
/// calls that can happen: an active subscription's filter lives inside the
/// index and nowhere else, so the domain has nothing to call it on.
#[test]
fn one_delivery_costs_the_same_among_200_and_2000_subscriptions() {
    psc_telemetry::set_global_enabled(true);
    let candidates = psc_telemetry::global().counter("filter.index.candidates");
    let matching_calls = psc_telemetry::global().counter("filter.matching_calls");

    let costs: Vec<(u64, u64, u32)> = [50u32, 500]
        .into_iter()
        .map(|symbols| {
            let domain = Domain::in_process();
            let hits = Arc::new(AtomicU32::new(0));
            for symbol in 0..symbols {
                for b in 0..BANDS {
                    let hits = Arc::clone(&hits);
                    let sub = domain.subscribe(
                        FilterSpec::remote(band(&format!("S{symbol}"), b)),
                        move |_: Quote| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        },
                    );
                    sub.activate().unwrap();
                    sub.detach();
                }
            }
            assert_eq!(domain.active_subscriptions() as u32, symbols * BANDS);
            let before = (candidates.get(), matching_calls.get());
            domain.publish(Quote::new("S7".into(), 30.0)).unwrap();
            (
                candidates.get() - before.0,
                matching_calls.get() - before.1,
                hits.load(Ordering::SeqCst),
            )
        })
        .collect();

    assert_eq!(
        costs[0], costs[1],
        "(candidates, index calls, handlers run)"
    );
    assert_eq!(costs[0], (u64::from(BANDS), 1, 1));
}
