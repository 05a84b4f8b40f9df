#![warn(missing_docs)]

//! # psc-simnet — the network substrate
//!
//! The paper evaluates its runtime (DACE) on real networks and defers
//! performance to companion publications; this reproduction needs a network
//! it can measure, so it builds one: a **deterministic discrete-event
//! simulator** for protocol experiments, plus a **threaded in-process
//! transport** for live examples (real concurrency, real thread policies).
//!
//! ## Simulated network
//!
//! - [`SimNet`] owns a set of [`Node`]s (address spaces) and a virtual
//!   clock; events (message deliveries, timers, injected actions) execute in
//!   deterministic timestamp order from a seeded RNG.
//! - [`SimConfig`] controls latency distribution, message loss, and the
//!   random seed; partitions are installed and healed at runtime.
//! - Nodes crash and recover ([`SimNet::crash`] / [`SimNet::recover`]):
//!   a crashed node loses its volatile state (the node value is rebuilt by
//!   its factory) but keeps its [`Storage`] — the stable storage that
//!   certified delivery (paper §3.1.2) relies on.
//! - [`NetStats`] counts messages/bytes sent, delivered and dropped, so
//!   experiments can report protocol overhead precisely.
//!
//! ## Threaded transport
//!
//! [`inproc`] provides N endpoints wired all-to-all with channels; each
//! endpoint can run a receiver thread. `psc-rmi` and `psc-tuplespace` run
//! over it.
//!
//! ```
//! use psc_simnet::{Ctx, Node, NodeId, SimConfig, SimNet};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
//!         if payload == b"ping" {
//!             ctx.send(from, b"pong".to_vec());
//!         }
//!     }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = SimNet::new(SimConfig::default());
//! let a = sim.add_node("a", || Box::new(Echo));
//! let b = sim.add_node("b", || Box::new(Echo));
//! sim.send_external(a, b, b"ping".to_vec());
//! sim.run_to_quiescence();
//! assert_eq!(sim.stats().delivered, 2); // ping and pong
//! ```

mod config;
mod host;
pub mod inproc;
mod node;
mod sim;
mod storage;
mod time;

pub use config::{LatencyModel, SimConfig};
pub use host::{HostEffect, NodeHost};
pub use node::{Ctx, Node, NodeId, TimerId};
pub use sim::{NetStats, SimNet};
pub use storage::{DiskFault, ScopedStorage, Storage, WalCommit, WalOp, WalReplay, WalSegment};
pub use time::{Duration, SimTime};

#[cfg(test)]
mod tests;
