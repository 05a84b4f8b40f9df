//! The four workloads: obvent types, sizing constants, seeded input
//! generation and the exact delivery oracle.
//!
//! Everything a driver needs is generated here, up front, from `--seed`:
//! the subscription population, the closed and paced publish schedules, the
//! churn schedule and — by evaluating every publish against every
//! subscription's filter in plain Rust, independent of the stack under
//! test — the expected `(subscription, tag)` deliveries. The drivers (live
//! and replay) see only an [`Inputs`] value.

use std::collections::HashMap;
use std::sync::Arc;

use psc_obvent::builtin::{Certified, Reliable};
use psc_obvent::{declare_obvent_model, WireObvent};
use pubsub_core::{Domain, FilterSpec, Subscription};

use crate::sink::Sink;

declare_obvent_model! {
    /// Supertype of [`Tick`]; subscribing to it exercises prefix decoding.
    pub class MarketEvent { tag: u64, sent_ns: u64 }
}

declare_obvent_model! {
    /// `reliable_fanout`'s obvent: the smallest message the stack carries.
    pub class Tick extends MarketEvent implements [Reliable] { body: String }
}

declare_obvent_model! {
    /// `certified_wal`'s obvent.
    pub class Payment implements [Certified] { tag: u64, sent_ns: u64, body: String }
}

declare_obvent_model! {
    /// `filter_match` / `sub_churn`'s obvent. No delivery marker: default
    /// (unreliable) kinds are the ones DACE routes through the
    /// publisher-side `FilterIndex` (`direct_publish`); a `Reliable` kind
    /// is group-broadcast to every member node and never consults it.
    pub class Quote {
        tag: u64,
        sent_ns: u64,
        symbol: String,
        price: f64,
        volume: u32,
        body: String,
    }
}

/// Tags at or above this value are setup probes, never part of the oracle.
pub const PROBE_BASE: u64 = 1 << 62;
/// `--seconds` the sizing constants below are stated for.
pub const REFERENCE_SECONDS: u64 = 30;
/// Share of `--seconds` spent in the paced phases (24 s of 30): every gated
/// figure but `setup_s` comes from them, so they get nearly the whole run.
pub const PACED_SHARE: f64 = 0.8;
/// Closed-loop window: publishes whose deliveries may be outstanding.
pub const CLOSED_OUTSTANDING: usize = 4;
/// Leading share of the closed phase that is warm-up and untimed.
pub const WARMUP_SHARE: f64 = 0.2;
/// Equal slices each timed closed phase is cut into.
pub const CLOSED_SLICES: usize = 5;
/// Windows each paced phase is cut into (one second each at 30 s).
pub const WINDOWS: usize = 4;
/// Cluster incarnations a run measures. With the host's own speed taken out
/// (`crate::hostref`), what is left of the run-to-run differences on the
/// reference box is mostly differences between incarnations (where the
/// scheduler happened to put ~20 threads, which order a `HashMap` scans
/// in, how fast the WAL's directory syncs), so a run samples several and
/// reports medians over all their windows.
pub const ROUNDS: usize = 6;
/// Price bands per symbol in the filter population.
const BANDS: u32 = 4;
const BAND_WIDTH: f64 = 25.0;

/// One of the four fixed workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReliableFanout,
    CertifiedWal,
    FilterMatch,
    SubChurn,
}

/// Sizing of a workload at [`REFERENCE_SECONDS`]. The paced rate was sized
/// once on the 2-vCPU reference box to 20–50 % of the closed-phase publish
/// rate (README, "How the paced constants were sized"); it is a constant,
/// not an option.
pub struct Sizing {
    pub nodes: usize,
    pub closed_publishes: u64,
    pub paced_per_s: u64,
    pub body_len: usize,
    /// Symbols with four price-band subscriptions each (Quote workloads).
    pub symbols: u32,
    /// Publishes between two churn pairs (0 = no churn).
    pub churn_every: u64,
    /// Subscriptions on never-published symbols that the churn rotates.
    pub churn_slots: u32,
    /// Publishes the traced replay drives: the first round's paced schedule,
    /// or a prefix of it that keeps the span file in the tens of megabytes.
    pub replay_publishes: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReliableFanout,
        Workload::CertifiedWal,
        Workload::FilterMatch,
        Workload::SubChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReliableFanout => "reliable_fanout",
            Workload::CertifiedWal => "certified_wal",
            Workload::FilterMatch => "filter_match",
            Workload::SubChurn => "sub_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn sizing(self) -> Sizing {
        match self {
            Workload::ReliableFanout => Sizing {
                nodes: 3,
                closed_publishes: 24_000,
                paced_per_s: 3_000,
                body_len: 32,
                symbols: 0,
                churn_every: 0,
                churn_slots: 0,
                replay_publishes: 4_000,
            },
            Workload::CertifiedWal => Sizing {
                nodes: 2,
                closed_publishes: 2_000,
                paced_per_s: 250,
                body_len: 256,
                symbols: 0,
                churn_every: 0,
                churn_slots: 0,
                replay_publishes: 1_000,
            },
            Workload::FilterMatch => Sizing {
                nodes: 2,
                closed_publishes: 3_000,
                paced_per_s: 400,
                body_len: 64,
                symbols: 500,
                churn_every: 0,
                churn_slots: 0,
                replay_publishes: 1_600,
            },
            Workload::SubChurn => Sizing {
                nodes: 2,
                closed_publishes: 10_500,
                paced_per_s: 1_500,
                body_len: 64,
                symbols: 25,
                churn_every: 10,
                churn_slots: 16,
                replay_publishes: 6_000,
            },
        }
    }

    /// Whether the workload's nodes run with a `data_dir` (real WAL files).
    pub fn durable(self) -> bool {
        self == Workload::CertifiedWal
    }
}

/// What a subscription subscribes to.
#[derive(Debug, Clone, PartialEq)]
pub enum SubKind {
    Tick,
    MarketEvent,
    Payment,
    /// `symbol == s && price >= lo && price < hi`
    Quote {
        symbol: String,
        lo: f64,
        hi: f64,
    },
}

/// One subscription of the initial population.
#[derive(Debug, Clone, PartialEq)]
pub struct SubSpec {
    pub node: usize,
    pub kind: SubKind,
    /// `activate_with_id` identity (certified workload).
    pub durable_id: Option<u64>,
}

/// One publish of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Publish {
    pub tag: u64,
    pub symbol: String,
    pub price: f64,
    pub volume: u32,
    pub body: String,
    /// Deliveries the oracle expects for this publish.
    pub expect: u32,
}

/// One churn pair: before publish `before` of its phase, the subscription
/// in `slot` is deactivated and dropped and a fresh one on `symbol` (never
/// published) takes the slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOp {
    pub before: usize,
    pub slot: usize,
    pub symbol: String,
}

/// A publish schedule with its churn schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Phase {
    pub publishes: Vec<Publish>,
    pub churn: Vec<ChurnOp>,
}

impl Phase {
    pub fn expected_deliveries(&self) -> u64 {
        self.publishes.iter().map(|p| u64::from(p.expect)).sum()
    }
}

/// What one cluster incarnation is driven with.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Round {
    pub closed: Phase,
    pub paced: Phase,
}

impl Round {
    pub fn expected_deliveries(&self) -> u64 {
        self.closed.expected_deliveries() + self.paced.expected_deliveries()
    }
}

/// Everything a driver is given.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub nodes: usize,
    /// Initial population; the last `churn_slots` entries are the churn
    /// slots' first occupants.
    pub subs: Vec<SubSpec>,
    pub churn_slots: usize,
    /// One probe publish matching the *last* subscription installed on each
    /// subscribing node (control traffic is FIFO per connection, so once the
    /// last one is routable all are).
    pub probes: Vec<(usize, Publish)>,
    /// [`ROUNDS`] equal shares of the closed and paced schedules, one per
    /// cluster incarnation; every incarnation starts from `subs`.
    pub rounds: Vec<Round>,
    pub paced_per_s: u64,
    /// Per initial subscription: the tags it must receive, sorted.
    pub expected: Vec<Vec<u64>>,
}

/// SplitMix64: a fixed, dependency-free generator so the same seed gives
/// byte-identical inputs on every build.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn body(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char)
            .collect()
    }
}

fn symbol_name(i: u32) -> String {
    format!("S{i:04}")
}

impl Inputs {
    /// Generates the inputs of `workload` for a run of `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let sizing = workload.sizing();
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0000 ^ workload.name().len() as u64);
        let subscriber_nodes: Vec<usize> = (1..sizing.nodes).collect();

        // ---- subscription population --------------------------------
        let mut subs = Vec::new();
        match workload {
            Workload::ReliableFanout => {
                for &node in &subscriber_nodes {
                    subs.push(SubSpec {
                        node,
                        kind: SubKind::Tick,
                        durable_id: None,
                    });
                    subs.push(SubSpec {
                        node,
                        kind: SubKind::MarketEvent,
                        durable_id: None,
                    });
                }
            }
            Workload::CertifiedWal => subs.push(SubSpec {
                node: 1,
                kind: SubKind::Payment,
                durable_id: Some(7_001),
            }),
            Workload::FilterMatch | Workload::SubChurn => {
                for s in 0..sizing.symbols {
                    for band in 0..BANDS {
                        subs.push(SubSpec {
                            node: 1,
                            kind: SubKind::Quote {
                                symbol: symbol_name(s),
                                lo: f64::from(band) * BAND_WIDTH,
                                hi: f64::from(band + 1) * BAND_WIDTH,
                            },
                            durable_id: None,
                        });
                    }
                }
            }
        }
        // Churn slots subscribe to symbols no publish names, over the full
        // price range, so any delivery to them is a mis-filtered one.
        let mut churn_symbol = 0u32;
        let mut next_churn_symbol = || {
            churn_symbol += 1;
            format!("C{churn_symbol:06}")
        };
        for _ in 0..sizing.churn_slots {
            subs.push(SubSpec {
                node: 1,
                kind: SubKind::Quote {
                    symbol: next_churn_symbol(),
                    lo: 0.0,
                    hi: 100.0,
                },
                durable_id: None,
            });
        }

        // ---- publish schedules --------------------------------------
        let per_round = |n: f64| ((n / ROUNDS as f64).round() as u64).max(1);
        let closed_count =
            per_round((sizing.closed_publishes * seconds) as f64 / REFERENCE_SECONDS as f64);
        let paced_count = per_round((sizing.paced_per_s * seconds) as f64 * PACED_SHARE);
        let mut next_tag = 1u64;
        let mut churn_cursor = 0usize;
        let mut make_phase = |count: u64, rng: &mut SplitMix64| {
            let mut phase = Phase::default();
            for i in 0..count {
                if sizing.churn_every > 0 && i > 0 && i % sizing.churn_every == 0 {
                    phase.churn.push(ChurnOp {
                        before: i as usize,
                        slot: churn_cursor % sizing.churn_slots as usize,
                        symbol: next_churn_symbol(),
                    });
                    churn_cursor += 1;
                }
                let (symbol, price, volume) = if sizing.symbols > 0 {
                    // 10 % of publishes name a symbol nobody subscribed to.
                    let symbol = if rng.below(10) == 0 {
                        format!("U{:04}", rng.below(10_000))
                    } else {
                        symbol_name(rng.below(u64::from(sizing.symbols)) as u32)
                    };
                    // Two decimals, strictly inside [0, 100).
                    let price = rng.below(10_000) as f64 / 100.0;
                    (symbol, price, 1 + rng.below(1_000) as u32)
                } else {
                    (String::new(), 0.0, 0)
                };
                phase.publishes.push(Publish {
                    tag: next_tag,
                    symbol,
                    price,
                    volume,
                    body: rng.body(sizing.body_len),
                    expect: 0,
                });
                next_tag += 1;
            }
            phase
        };
        let mut rounds: Vec<Round> = (0..ROUNDS)
            .map(|_| Round {
                closed: make_phase(closed_count, &mut rng),
                paced: make_phase(paced_count, &mut rng),
            })
            .collect();

        // ---- oracle --------------------------------------------------
        let by_symbol: HashMap<&str, Vec<usize>> = {
            let mut map: HashMap<&str, Vec<usize>> = HashMap::new();
            for (i, sub) in subs.iter().enumerate() {
                if let SubKind::Quote { symbol, .. } = &sub.kind {
                    map.entry(symbol.as_str()).or_default().push(i);
                }
            }
            map
        };
        let unfiltered: Vec<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s.kind, SubKind::Quote { .. }))
            .map(|(i, _)| i)
            .collect();
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); subs.len()];
        let publishes = rounds.iter_mut().flat_map(|r| {
            r.closed
                .publishes
                .iter_mut()
                .chain(r.paced.publishes.iter_mut())
        });
        for publish in publishes {
            let candidates = by_symbol
                .get(publish.symbol.as_str())
                .map_or(&[][..], Vec::as_slice);
            for &i in unfiltered.iter().chain(candidates) {
                if subs[i].kind.accepts(publish) {
                    expected[i].push(publish.tag);
                    publish.expect += 1;
                }
            }
        }

        // ---- probes --------------------------------------------------
        let probes = subscriber_nodes
            .iter()
            .enumerate()
            .map(|(k, &node)| {
                let last = subs
                    .iter()
                    .rposition(|s| s.node == node)
                    .expect("node subscribes");
                let (symbol, price) = match &subs[last].kind {
                    SubKind::Quote { symbol, lo, .. } => (symbol.clone(), *lo),
                    _ => (String::new(), 0.0),
                };
                let probe = Publish {
                    tag: PROBE_BASE + k as u64,
                    symbol,
                    price,
                    volume: 0,
                    body: rng.body(sizing.body_len),
                    expect: 0,
                };
                (last, probe)
            })
            .collect();

        Inputs {
            workload,
            seed,
            nodes: sizing.nodes,
            subs,
            churn_slots: sizing.churn_slots as usize,
            probes,
            rounds,
            paced_per_s: sizing.paced_per_s,
            expected,
        }
    }

    /// The schedule the traced replay and the layer probes take their
    /// publishes from: the first round's paced phase.
    pub fn replay_phase(&self) -> &Phase {
        &self.rounds[0].paced
    }

    /// Canonical byte rendering of every generated value, for the
    /// seed → byte-identical-inputs check and the printed digest.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut text = |s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        text(self.workload.name());
        text(&format!(
            "{}/{}/{}/{}",
            self.seed, self.nodes, self.churn_slots, self.paced_per_s
        ));
        for sub in &self.subs {
            text(&format!("{sub:?}"));
        }
        for (target, probe) in &self.probes {
            text(&format!("{target}:{probe:?}"));
        }
        for phase in self.rounds.iter().flat_map(|r| [&r.closed, &r.paced]) {
            for publish in &phase.publishes {
                text(&format!(
                    "{}|{}|{:016x}|{}|{}|{}",
                    publish.tag,
                    publish.symbol,
                    publish.price.to_bits(),
                    publish.volume,
                    publish.body,
                    publish.expect
                ));
            }
            for op in &phase.churn {
                text(&format!("{}|{}|{}", op.before, op.slot, op.symbol));
            }
        }
        for tags in &self.expected {
            out.extend_from_slice(&(tags.len() as u64).to_le_bytes());
            for tag in tags {
                out.extend_from_slice(&tag.to_le_bytes());
            }
        }
        out
    }

    /// FNV-1a of [`Inputs::to_bytes`].
    pub fn digest(&self) -> u64 {
        self.to_bytes()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }
}

impl SubKind {
    /// The oracle's reading of the subscription: plain Rust, no stack code.
    pub fn accepts(&self, publish: &Publish) -> bool {
        match self {
            SubKind::Quote { symbol, lo, hi } => {
                *symbol == publish.symbol && publish.price >= *lo && publish.price < *hi
            }
            _ => true,
        }
    }

    fn quote_filter(symbol: &str, lo: f64, hi: f64) -> FilterSpec<Quote> {
        let schema = Quote::schema();
        let expr =
            schema.symbol().eq_(symbol.to_string()) & schema.price().ge(lo) & schema.price().lt(hi);
        FilterSpec::remote(expr.into_filter())
    }

    /// The subscription's migratable filter, if it has one (layer probes).
    pub fn remote_filter(&self) -> Option<psc_filter::RemoteFilter> {
        match self {
            SubKind::Quote { symbol, lo, hi } => SubKind::quote_filter(symbol, *lo, *hi)
                .remote_part()
                .cloned(),
            _ => None,
        }
    }
}

/// Creates and activates `spec` on `domain`; `handler` gets each delivered
/// obvent's `(tag, sent_ns)`. Used by both drivers and the core probe, so
/// all three install identical subscriptions.
pub fn subscribe_with(
    domain: &Domain,
    spec: &SubSpec,
    handler: impl Fn(u64, u64) + Send + Sync + 'static,
) -> Subscription {
    let sub = match &spec.kind {
        SubKind::Tick => domain.subscribe(FilterSpec::accept_all(), move |e: Tick| {
            handler(*e.tag(), *e.sent_ns())
        }),
        SubKind::MarketEvent => domain
            .subscribe(FilterSpec::accept_all(), move |e: MarketEvent| {
                handler(*e.tag(), *e.sent_ns())
            }),
        SubKind::Payment => domain.subscribe(FilterSpec::accept_all(), move |e: Payment| {
            handler(*e.tag(), *e.sent_ns())
        }),
        SubKind::Quote { symbol, lo, hi } => domain
            .subscribe(SubKind::quote_filter(symbol, *lo, *hi), move |e: Quote| {
                handler(*e.tag(), *e.sent_ns())
            }),
    };
    match spec.durable_id {
        Some(id) => sub.activate_with_id(id).expect("durable activate"),
        None => sub.activate().expect("activate"),
    }
    sub
}

/// [`subscribe_with`] a handler that appends to `sink`'s log `log`.
pub fn subscribe(domain: &Domain, spec: &SubSpec, sink: &Arc<Sink>, log: usize) -> Subscription {
    let sink = Arc::clone(sink);
    subscribe_with(domain, spec, move |tag, sent_ns| {
        sink.record(log, tag, sent_ns)
    })
}

/// `publish` as the workload's obvent type, stamped `sent_ns`, encoded.
pub fn to_wire(workload: Workload, publish: &Publish, sent_ns: u64) -> WireObvent {
    let body = publish.body.clone();
    let wire = match workload {
        Workload::ReliableFanout => {
            WireObvent::encode(&Tick::new(MarketEvent::new(publish.tag, sent_ns), body))
        }
        Workload::CertifiedWal => WireObvent::encode(&Payment::new(publish.tag, sent_ns, body)),
        Workload::FilterMatch | Workload::SubChurn => WireObvent::encode(&Quote::new(
            publish.tag,
            sent_ns,
            publish.symbol.clone(),
            publish.price,
            publish.volume,
            body,
        )),
    };
    wire.expect("obvents encode")
}

/// Publishes `publish` on `domain` (what `Domain::publish` does: encode
/// once, hand the wire obvent to the fabric).
pub fn publish(domain: &Domain, workload: Workload, publish: &Publish, sent_ns: u64) {
    domain
        .publish_wire(to_wire(workload, publish, sent_ns))
        .expect("publish");
}

/// Decodes `wire` as the workload's published type (codec probe).
pub fn decode(workload: Workload, wire: &WireObvent) {
    match workload {
        Workload::ReliableFanout => drop(std::hint::black_box(wire.decode_as::<Tick>())),
        Workload::CertifiedWal => drop(std::hint::black_box(wire.decode_as::<Payment>())),
        Workload::FilterMatch | Workload::SubChurn => {
            drop(std::hint::black_box(wire.decode_as::<Quote>()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 42, 2);
            let b = Inputs::generate(workload, 42, 2);
            assert_eq!(a.to_bytes(), b.to_bytes(), "{}", workload.name());
            assert_eq!(a.digest(), b.digest());
            let c = Inputs::generate(workload, 43, 2);
            assert_ne!(
                a.to_bytes(),
                c.to_bytes(),
                "{}: seed must matter",
                workload.name()
            );
        }
    }

    #[test]
    fn counts_are_fixed_by_seconds_not_by_seed() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 1, 15);
            let b = Inputs::generate(workload, 2, 15);
            assert_eq!(a.rounds.len(), ROUNDS);
            for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
                assert_eq!(ra.closed.publishes.len(), rb.closed.publishes.len());
                assert_eq!(ra.paced.publishes.len(), rb.paced.publishes.len());
                // 15 s × 0.8 paced, split over six rounds: 2 s each.
                assert_eq!(
                    ra.paced.publishes.len() as u64,
                    2 * workload.sizing().paced_per_s
                );
            }
            assert_eq!(a.subs.len(), b.subs.len());
        }
    }

    #[test]
    fn oracle_matches_the_workload_descriptions() {
        let fanout = Inputs::generate(Workload::ReliableFanout, 7, 2);
        assert_eq!(fanout.subs.len(), 4);
        assert!(fanout
            .rounds
            .iter()
            .all(|r| r.closed.publishes.iter().all(|p| p.expect == 4)));

        let filter = Inputs::generate(Workload::FilterMatch, 7, 5);
        assert_eq!(filter.subs.len(), 2_000);
        let all: Vec<&Publish> = filter
            .rounds
            .iter()
            .flat_map(|r| r.closed.publishes.iter().chain(&r.paced.publishes))
            .collect();
        // Tags are unique across rounds.
        let mut tags: Vec<u64> = all.iter().map(|p| p.tag).collect();
        tags.dedup();
        assert_eq!(tags.len(), all.len());
        assert!(all.iter().all(|p| p.expect <= 1));
        let unknown = all.iter().filter(|p| p.expect == 0).count() as f64 / all.len() as f64;
        assert!(
            (0.07..0.13).contains(&unknown),
            "unknown-symbol share {unknown}"
        );
        assert_eq!(
            filter
                .expected
                .iter()
                .map(|tags| tags.len() as u64)
                .sum::<u64>(),
            all.iter().map(|p| u64::from(p.expect)).sum::<u64>()
        );

        let churn = Inputs::generate(Workload::SubChurn, 7, 5);
        assert_eq!(churn.subs.len(), 100 + 16);
        assert_eq!(churn.churn_slots, 16);
        let paced = &churn.rounds[1].paced;
        assert_eq!(paced.churn.len(), paced.publishes.len().div_ceil(10) - 1);
        assert!(paced
            .churn
            .iter()
            .all(|op| op.before < paced.publishes.len()));
        // Churned subscriptions never match a publish.
        let slots = &churn.expected[100..];
        assert!(slots.iter().all(Vec::is_empty));
        // Every probe targets the last subscription installed on its node.
        assert_eq!(churn.probes.len(), 1);
        assert_eq!(churn.probes[0].0, churn.subs.len() - 1);
        assert!(churn.subs[churn.probes[0].0]
            .kind
            .accepts(&churn.probes[0].1));
    }
}
