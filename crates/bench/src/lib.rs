//! Shared workload generators and experiment scenarios.
//!
//! Every experiment binary builds its inputs from these
//! helpers, so the workloads stay comparable across experiments: a stock
//! ticker in the paper's own domain (quotes with company / price / amount),
//! plus subscription populations with controllable overlap and
//! selectivity.
//!
//! The experiments whose counts are deterministic keep their scenario here
//! rather than in their binary: the binary runs the full sweep and prints
//! its table, and `tests/experiment_counts.rs` runs a small point of the
//! same function and pins the counts exactly.

pub mod delivery;
pub mod fanout;
pub mod match_scale;
pub mod placement;
pub mod serialize_once;
pub mod snapshot;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psc_filter::{CmpOp, Predicate, RemoteFilter, Value};
use psc_obvent::declare_obvent_model;

declare_obvent_model! {
    /// The workload obvent: a stock quote (paper Fig. 2).
    pub class BenchQuote {
        company: String,
        price: f64,
        amount: u32,
    }
}

/// Ticker symbols used by the generators.
pub const COMPANIES: [&str; 8] = [
    "Telco Mobiles",
    "Telco Fixed",
    "Banco Verde",
    "Banco Azul",
    "Aero Dynamics",
    "Hydro Power",
    "Agri Foods",
    "Micro Devices",
];

/// Deterministic stream of quote property records (for filter benches).
pub fn quote_values(seed: u64, n: usize) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Value::record([
                (
                    "company",
                    Value::from(COMPANIES[rng.gen_range(0..COMPANIES.len())]),
                ),
                ("price", Value::from(rng.gen_range(1.0..200.0))),
                ("amount", Value::from(rng.gen_range(1u32..1000))),
            ])
        })
        .collect()
}

/// Deterministic stream of quote obvents (for end-to-end benches).
pub fn quote_obvents(seed: u64, n: usize) -> Vec<BenchQuote> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            BenchQuote::new(
                COMPANIES[rng.gen_range(0..COMPANIES.len())].to_string(),
                rng.gen_range(1.0..200.0),
                rng.gen_range(1u32..1000),
            )
        })
        .collect()
}

/// A population of `n` subscriptions with heavy predicate overlap — the
/// factoring-friendly case the paper's brokers exhibit (everyone watches
/// similar price bands on the same tickers).
pub fn overlapping_filters(seed: u64, n: usize) -> Vec<RemoteFilter> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Thresholds snap to a coarse grid so many subscriptions share
            // predicates verbatim.
            let threshold = (rng.gen_range(1..20) * 10) as f64;
            let company = COMPANIES[rng.gen_range(0..COMPANIES.len())];
            RemoteFilter::conjunction(vec![
                Predicate::new("price", CmpOp::Lt, threshold),
                Predicate::new("company", CmpOp::Eq, company),
            ])
        })
        .collect()
}

/// A population of `n` subscriptions with unique, non-overlapping
/// predicates — the factoring-hostile case.
pub fn disjoint_filters(seed: u64, n: usize) -> Vec<RemoteFilter> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let lo = rng.gen_range(0.0..190.0) + (i as f64) * 1e-7;
            RemoteFilter::conjunction(vec![
                Predicate::new("price", CmpOp::Ge, lo),
                Predicate::new("price", CmpOp::Lt, lo + rng.gen_range(1.0..10.0)),
            ])
        })
        .collect()
}

/// Symbol vocabulary size for the match-scale workload (events and
/// filters draw from the same `s0..s999` pool).
pub const SCALE_VOCAB: usize = 1_000;

/// Deterministic stream of wide property records for the match-scale
/// experiment: a symbol drawn from a [`SCALE_VOCAB`]-wide vocabulary plus
/// `attrs` numeric attributes `f0..f{attrs-1}`, uniform in `0..100`.
pub fn wide_events(seed: u64, n: usize, attrs: usize) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let sym = format!("s{}", rng.gen_range(0..SCALE_VOCAB));
            Value::record(
                std::iter::once(("sym".to_string(), Value::from(sym))).chain(
                    (0..attrs).map(|a| (format!("f{a}"), Value::from(rng.gen_range(0.0..100.0)))),
                ),
            )
        })
        .collect()
}

/// A population of `n` subscriptions over `attrs` attributes: each pins
/// one symbol from the shared vocabulary and adds a narrow numeric band on
/// one random attribute plus a half-open guard on another. This is the
/// counting engine's target workload: the equality predicate is the access
/// gate (hash-bucket probe touches only the ~`n`/[`SCALE_VOCAB`] filters
/// on the event's symbol), and the wide numeric predicates are verified
/// only on those candidates instead of being counted across the whole
/// population.
pub fn scaled_filters(seed: u64, n: usize, attrs: usize) -> Vec<RemoteFilter> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let sym = format!("s{}", rng.gen_range(0..SCALE_VOCAB));
            let band_attr = format!("f{}", rng.gen_range(0..attrs));
            let guard_attr = format!("f{}", rng.gen_range(0..attrs));
            let lo = rng.gen_range(0.0..95.0);
            let width = rng.gen_range(0.5..5.0);
            RemoteFilter::conjunction(vec![
                Predicate::new("sym", CmpOp::Eq, sym.as_str()),
                Predicate::new(band_attr.as_str(), CmpOp::Ge, lo),
                Predicate::new(band_attr.as_str(), CmpOp::Lt, lo + width),
                Predicate::new(guard_attr.as_str(), CmpOp::Lt, rng.gen_range(5.0..100.0)),
            ])
        })
        .collect()
}

/// Simple text table printer for the experiment report binaries.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                out.push_str(&format!("{cell:>w$}  ", w = w));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w + 2))
                .collect::<String>()
                .trim_end()
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a float compactly for tables.
pub fn fmt_f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}
