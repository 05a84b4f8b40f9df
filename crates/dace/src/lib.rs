#![warn(missing_docs)]

//! # psc-dace — the Distributed Asynchronous Computing Environment
//!
//! The paper's runtime substrate (§4.2): "every obvent class is mapped to a
//! dissemination channel, representing a multicast group, which we refer to
//! as **multicast class**. … such multicast classes are then implemented
//! with different multicast protocols", and control traffic is *reflexive*:
//! "we have adopted a reflexive approach, by using specific channels to
//! disseminate protocol messages, like subscription/unsubscription requests,
//! or the advertisement of the publishing of obvents. Such messages are
//! obvents themselves."
//!
//! This crate implements that architecture over the workspace's substrates:
//!
//! - **class-based dissemination** ([`node::DaceNode`]): one channel per
//!   concrete obvent kind; a subscription to kind `K` joins the channel of
//!   every known subtype of `K`, and joins later-advertised subtypes when
//!   their [`control`] advertisements arrive;
//! - **QoS-driven protocol selection**: each channel runs the `psc-group`
//!   protocol its kind's resolved QoS demands (best-effort / reliable /
//!   FIFO / causal / total / certified, optionally gossip for scalable
//!   best-effort);
//! - **filter placement** ([`config::Placement`]): remote filters are
//!   factored in a [`FilterIndex`](psc_filter::FilterIndex) either at the
//!   publisher, at a designated filtering host (broker), or applied at
//!   subscribers only — the trade-off experiment E2 measures;
//! - **transmission semantics**: on best-effort channels (the only place
//!   the Fig. 4 precedence rules allow them) the direct sends of one
//!   callback leave highest `priority` first, and a `Timely` obvent that
//!   arrives after its deadline is dropped by the receiver;
//! - an **in-process bus** ([`inproc`]) wiring several live domains
//!   together for the runnable examples.
//!
//! The deterministic deployment is [`node::DaceNode`] inside `psc-simnet`;
//! the live one is the same node over TCP, hosted by `psc_net::DaceEndpoint`.
//! [`inproc::Bus`] is the in-process fabric of the runnable examples.

pub mod config;
pub mod control;
pub mod inproc;
pub mod node;
pub(crate) mod snapshot;

pub use config::{DaceConfig, Placement};
pub use node::DaceNode;

#[cfg(test)]
mod tests;
