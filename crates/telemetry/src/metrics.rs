//! The metrics registry: hierarchically named counters, gauges and
//! fixed-bucket histograms.
//!
//! Hot paths hold a pre-created handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) and touch only a relaxed atomic per event; the registry's
//! name map is locked only at handle-creation and snapshot time. A registry
//! (or a single handle) can be **disabled**, turning every recording
//! operation into a load-and-branch — the zero-overhead mode the
//! deterministic benchmarks compare against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::export::Snapshot;

/// Shared enabled flag: one relaxed load gates every recording.
type Enabled = Arc<AtomicBool>;

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
}

#[derive(Debug)]
struct HistogramCell {
    /// Upper bounds (inclusive) of the finite buckets, strictly increasing;
    /// an implicit overflow bucket catches everything above the last bound.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets (the last is the overflow bucket).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Largest observed value — exact, so percentile estimation has a real
    /// upper edge for the otherwise unbounded overflow bucket.
    max: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: Vec<u64>) -> HistogramCell {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCell {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// A monotonically increasing counter handle (cheap to clone).
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
    enabled: Enabled,
}

impl Counter {
    /// A detached counter that records into nothing (always disabled).
    pub fn noop() -> Counter {
        Counter {
            cell: Arc::new(CounterCell::default()),
            enabled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a signed value that can move both ways.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
    enabled: Enabled,
}

impl Gauge {
    /// A detached gauge that records into nothing (always disabled).
    pub fn noop() -> Gauge {
        Gauge {
            cell: Arc::new(GaugeCell::default()),
            enabled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Subtracts `delta`.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram handle (latencies, message sizes).
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
    enabled: Enabled,
}

impl Histogram {
    /// A detached histogram that records into nothing (always disabled).
    pub fn noop() -> Histogram {
        Histogram {
            cell: Arc::new(HistogramCell::new(vec![1])),
            enabled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.record(value);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }

    /// Largest observation so far (0 before any recording).
    pub fn max(&self) -> u64 {
        self.cell.max.load(Ordering::Relaxed)
    }
}

/// Point-in-time image of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; one longer than `bounds` (overflow
    /// bucket last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 with no observations).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation. Defined as 0 for an empty histogram (never
    /// NaN), and computed from the exact running `sum`, so it is not
    /// subject to bucket-resolution error — including values that landed
    /// in the overflow bucket.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Estimates the `q`-quantile (`q` in `[0,1]`, clamped) from the fixed
    /// buckets.
    ///
    /// The estimate is the inclusive upper bound of the bucket holding the
    /// rank-`⌈q·count⌉` observation — a conservative (never optimistic)
    /// figure that is exactly reproducible across runs. Two refinements
    /// keep the tails honest:
    ///
    /// - the overflow bucket reports the exact tracked [`max`], not
    ///   `+inf`;
    /// - any estimate is capped at [`max`], so a single-bucket histogram
    ///   reports its real extremum rather than a coarse bound.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// [`max`]: HistogramSnapshot::max
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&bound) => bound.min(self.max),
                    None => self.max, // overflow bucket
                };
            }
        }
        self.max
    }
}

/// Exponential bucket bounds: `start, start*factor, …` (`n` bounds).
/// The conventional shape for latency and size histograms.
pub fn exp_buckets(start: u64, factor: u64, n: usize) -> Vec<u64> {
    let mut bounds = Vec::with_capacity(n);
    let mut b = start.max(1);
    for _ in 0..n {
        bounds.push(b);
        b = b.saturating_mul(factor.max(2));
    }
    bounds
}

#[derive(Default)]
struct Maps {
    counters: BTreeMap<String, Arc<CounterCell>>,
    gauges: BTreeMap<String, Arc<GaugeCell>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
}

/// Looks `name` up and inserts `make()` only on a miss, so the common hit
/// allocates nothing.
fn cell<T>(map: &mut BTreeMap<String, Arc<T>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    let cell = Arc::new(make());
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

/// A named-metric registry. Cloning shares the underlying store.
///
/// Names are hierarchical by convention, dot-separated with the owning
/// layer first: `dace.channel.<kind>.published`, `group.causal.holdback`,
/// `codec.encode_bytes`, `simnet.dropped_loss`, `core.delivered`.
#[derive(Clone)]
pub struct Registry {
    maps: Arc<Mutex<Maps>>,
    enabled: Enabled,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            maps: Arc::new(Mutex::new(Maps::default())),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// An empty registry that starts disabled (recording is a no-op until
    /// [`Registry::set_enabled`] flips it on).
    pub fn disabled() -> Registry {
        let r = Registry::new();
        r.set_enabled(false);
        r
    }

    /// Turns recording on or off for every handle of this registry.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut maps = self.maps.lock().expect("registry poisoned");
        let cell = cell(&mut maps.counters, name, CounterCell::default);
        Counter {
            cell,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut maps = self.maps.lock().expect("registry poisoned");
        let cell = cell(&mut maps.gauges, name, GaugeCell::default);
        Gauge {
            cell,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Gets or creates the histogram `name` with the given bucket bounds
    /// (ignored if the histogram already exists).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut maps = self.maps.lock().expect("registry poisoned");
        let cell = cell(&mut maps.histograms, name, || HistogramCell::new(bounds.to_vec()));
        Histogram {
            cell,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Convenience: bumps counter `name` by `delta` under the registry
    /// lock, without building a handle (hot paths should still hold a
    /// [`Counter`] instead).
    pub fn bump(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut maps = self.maps.lock().expect("registry poisoned");
        if let Some(cell) = maps.counters.get(name) {
            cell.value.fetch_add(delta, Ordering::Relaxed);
        } else {
            let value = AtomicU64::new(delta);
            maps.counters.insert(name.to_string(), Arc::new(CounterCell { value }));
        }
    }

    /// A point-in-time snapshot of every metric. Individual values are read
    /// with relaxed ordering: each value is internally consistent and
    /// monotone across successive snapshots, but a snapshot is not a global
    /// atomic cut across metrics.
    pub fn snapshot(&self) -> Snapshot {
        let maps = self.maps.lock().expect("registry poisoned");
        Snapshot {
            counters: maps
                .counters
                .iter()
                .map(|(name, cell)| (name.clone(), cell.value.load(Ordering::Relaxed)))
                .collect(),
            gauges: maps
                .gauges
                .iter()
                .map(|(name, cell)| (name.clone(), cell.value.load(Ordering::Relaxed)))
                .collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(name, cell)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            bounds: cell.bounds.clone(),
                            buckets: cell
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: cell.count.load(Ordering::Relaxed),
                            sum: cell.sum.load(Ordering::Relaxed),
                            max: cell.max.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let maps = self.maps.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("counters", &maps.counters.len())
            .field("gauges", &maps.gauges.len())
            .field("histograms", &maps.histograms.len())
            .finish()
    }
}
