#![warn(missing_docs)]

//! # psc-group — the group-communication substrate
//!
//! The paper's DACE architecture maps every obvent class to a *multicast
//! class* "implemented with different multicast protocols with guarantees
//! ranging from strong guarantees (exploiting a broad variety of primitives
//! from group communication [BJ87] …) to primitives with weaker guarantees
//! but strong focus on scalability (… gossip-based protocols, e.g.
//! [EGH+01])" (§4.2). This crate implements that protocol menu from scratch
//! as **sans-io state machines**: every protocol is a plain struct whose
//! callbacks receive a [`GroupIo`] capability and emit sends, deliveries,
//! timers and stable-storage writes — so the same code runs under the
//! deterministic simulator, in step-by-step unit tests, and inside the DACE
//! dissemination layer.
//!
//! | protocol | paper semantics (§3.1.2) | mechanism |
//! |---|---|---|
//! | [`BestEffort`] | *Unreliable* (the default) | one send per member |
//! | [`Reliable`] | *Reliable* | eager re-forwarding, origin retransmission until acked, bounded duplicate suppression |
//! | [`Fifo`] | *FIFO ordered* | `Reliable`'s delivery layer + per-origin hold-back |
//! | [`Causal`] | *Causally ordered* | `Reliable`'s delivery layer + vector-clock hold-back |
//! | [`Total`] | *Totally ordered* | `Reliable`'s delivery layer, unrelayed: submissions to a fixed sequencer, which orders each publisher's in publish order |
//! | [`Certified`] | *Certified* | `Reliable`'s delivery layer on stable storage, unrelayed: the origin's unacked frames, the delivered records and one epoch per incarnation persist, so retransmission spans crashes at either end |
//! | [`Lpbcast`] | scalable best-effort (gossip) | periodic push gossip with bounded event buffer |
//!
//! [`sim_host`] adapts any protocol into a `psc-simnet` node for
//! experiments; `psc-dace` embeds the same state machines per multicast
//! class.
//!
//! ```
//! use psc_group::{sim_host::GroupNode, BestEffort};
//! use psc_simnet::{SimConfig, SimNet};
//!
//! let mut sim = SimNet::new(SimConfig::default());
//! let ids: Vec<_> = (0..3)
//!     .map(|i| sim.add_node(format!("n{i}"), || GroupNode::boxed(BestEffort::new())))
//!     .collect();
//! for &id in &ids {
//!     GroupNode::set_members(&mut sim, id, ids.clone());
//! }
//! GroupNode::broadcast(&mut sim, ids[0], b"tick".to_vec());
//! sim.run_to_quiescence();
//! assert_eq!(GroupNode::delivered(&mut sim, ids[1]).len(), 1);
//! ```

mod besteffort;
mod causal;
mod dedup;
mod fifo;
mod io;
mod lpbcast;
mod reliable;
pub mod sim_host;
mod total;

pub use besteffort::BestEffort;
pub use causal::Causal;
pub use fifo::Fifo;
pub use io::{GroupIo, Multicast, TimerToken};
pub use lpbcast::{Lpbcast, LpbcastConfig};
pub use reliable::{Certified, Reliable};
pub use sim_host::{GroupNode, Watchdog};
pub use total::Total;

/// Best-effort decode of a protocol frame's message identity, for the
/// snapshot plane's in-flight recorder: given the protocol a channel runs
/// and raw protocol bytes, returns `(origin, epoch, seq)` when the frame
/// carries an application payload (for `"total"`, the publisher's id on
/// both the submission and the ordered frame). Control traffic (acks,
/// gossip digests) and undecodable bytes return `None` and are counted,
/// not identified.
pub fn peek_data_id(proto: &str, bytes: &[u8]) -> Option<(u64, u64, u64)> {
    match proto {
        "reliable" | "certified" => reliable::Reliable::peek_id(bytes),
        "fifo" => fifo::Fifo::peek_id(bytes),
        "causal" => causal::Causal::peek_id(bytes),
        "total" => total::Total::peek_id(bytes),
        _ => None,
    }
    .map(|id| (id.origin.0, id.epoch, id.seq))
}

#[cfg(test)]
mod tests;
