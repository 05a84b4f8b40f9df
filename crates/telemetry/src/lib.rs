#![warn(missing_docs)]

//! # psc-telemetry — stack-wide observability
//!
//! The paper delegates all substrate performance to external measurement;
//! this reproduction measures itself. Three pieces:
//!
//! 1. a **metrics registry** ([`Registry`]) of lock-cheap atomic
//!    [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s,
//!    hierarchically named (`dace.channel.<kind>.published`,
//!    `group.causal.holdback`, `codec.encode_bytes`), with a zero-overhead
//!    disabled mode and a deterministic [`Snapshot`] API;
//! 2. **causal event tracing** ([`TraceId`], [`Tracer`]): every publish
//!    mints a trace id carried in the wire envelope through codec framing,
//!    group-protocol hops, DACE routing, remote-filter evaluation and
//!    handler dispatch, so a single obvent's publish→filter→deliver path
//!    can be reconstructed per node — deterministically, because ids derive
//!    from `(node, publish seq)` and events are stamped with virtual time;
//! 3. **exporters**: canonical text ([`Snapshot::render_text`]) and
//!    machine-readable JSON ([`Snapshot::render_json`], [`json::JsonValue`],
//!    what `psc-node --snapshot <file>` writes);
//! 4. a **diagnosis layer**: latency [`span`]s derived from the trace
//!    stream (per-stage and per-QoS-class end-to-end histograms with
//!    p50/p90/p99/max), a per-node [`recorder::FlightRecorder`] that dumps
//!    deterministic post-mortems, a stall watchdog
//!    ([`health::HealthMonitor`]) sweeping protocol queue depths, and an
//!    [`Inspect`] trait for deterministic state reports.
//!
//! The crate is dependency-free (serde only) and sits at the bottom of the
//! workspace DAG so every layer — `psc-codec`, `psc-group`, `psc-dace`,
//! `pubsub-core`, `psc-simnet` — can record into it.
//!
//! ```
//! use psc_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let published = registry.counter("dace.channel.StockQuote.published");
//! let sizes = registry.histogram("codec.encode_bytes", &[16, 64, 256, 1024]);
//! published.inc();
//! sizes.record(120);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("dace.channel.StockQuote.published"), 1);
//! assert_eq!(snap.histogram("codec.encode_bytes").unwrap().count, 1);
//! ```

mod export;
pub mod health;
pub mod inspect;
pub mod json;
mod metrics;
pub mod recorder;
pub mod span;
mod trace;

pub use export::Snapshot;
pub use health::{HealthConfig, HealthMonitor};
pub use inspect::{Inspect, ReportBuilder};
pub use metrics::{
    exp_buckets, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
};
pub use recorder::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use span::{derive_spans, record_spans, record_tracer_spans, ObventSpan, SpanStage};
pub use trace::{TraceEvent, TraceId, TraceStage, Tracer, DEFAULT_TRACE_CAPACITY};

use std::sync::OnceLock;

/// The process-global registry: shared by instrumentation sites that have
/// no per-component registry to record into (e.g. the codec's encode/decode
/// counters). **Starts disabled** so un-instrumented programs pay only a
/// relaxed load per site; flip it on with [`set_global_enabled`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::disabled)
}

/// Enables or disables the process-global registry.
pub fn set_global_enabled(enabled: bool) {
    global().set_enabled(enabled);
}

#[cfg(test)]
mod tests;
