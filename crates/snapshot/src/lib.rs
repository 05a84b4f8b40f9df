#![warn(missing_docs)]

//! # psc-snapshot — consistent cluster snapshots and causal clocks
//!
//! The per-node observability planes (telemetry registry, flight
//! recorders, `Inspect` reports) answer "what is *this* node doing?";
//! this crate supplies the vocabulary for the cluster-level question —
//! "what is the state of the *whole* system right now?" — as a
//! Chandy–Lamport [CL85] consistent global snapshot:
//!
//! - [`causal`] — vector clocks keyed by raw node id. A
//!   [`CausalStamp`] (snapshot wave id + vector clock) rides in every
//!   wire envelope next to the `TraceId`: the wave id propagates the
//!   snapshot cut even when marker messages are lost or overtaken
//!   (Lai–Yang-style piggybacking, so the protocol stays correct over
//!   the non-FIFO simulated network), and the vector clocks let an
//!   oracle *check* the assembled cut for consistency.
//! - [`capture`] — the cut data model: each participant captures a
//!   [`NodeFrag`] (per-channel protocol state via `ProtoCapture`,
//!   parked obvents, durable-subscription table, its clock) plus the
//!   obvents recorded in flight on each incoming link between its own
//!   capture and that link's marker; the initiator assembles the
//!   fragments into a [`ClusterCut`] whose [`ClusterCut::render`] is
//!   deterministic and byte-stable (sorted, no wall-clock, no
//!   addresses) — the harness compares replays of one seed
//!   byte-for-byte, and `psc-node snapshot` prints the same image for
//!   a live TCP cluster.
//!
//! The crate is deliberately leaf-level (serde + codec + report
//! rendering only): `psc-obvent` stamps envelopes with it, `psc-group`
//! protocols describe themselves through it, and `psc-dace` runs the
//! marker protocol over it.

pub mod capture;
pub mod causal;

pub use capture::{
    ChannelFrag, ClusterCut, InFlightObvent, InFlightRec, MsgRef, NodeFrag, ProtoCapture,
    RetransmitEntry,
};
pub use causal::{CausalStamp, Causality, VClock};
