//! Driving a [`Node`] outside the simulator.
//!
//! The sans-io contract says a node is a plain state machine: every
//! callback receives a [`Ctx`] and queues effects instead of doing I/O.
//! Inside [`crate::SimNet`] those effects feed the virtual-time event
//! queue; a *real* transport needs the same callbacks but wants to apply
//! the effects itself (write sockets, arm wall-clock timers). `Ctx` is
//! deliberately not constructible from outside this crate, so the bridge
//! lives here: [`NodeHost`] owns one node plus its stable storage and
//! RNG, runs callbacks at host-supplied timestamps, and hands the queued
//! effects back as [`HostEffect`]s for the caller to execute.
//!
//! Timer-cancellation semantics match the simulator exactly: a cancelled
//! timer that is already queued is suppressed *at fire time* (the host
//! keeps calling [`NodeHost::timer`]; cancelled ids are dropped here), so
//! a protocol observes the same schedule under both drivers.
//!
//! A host that writes a callback's log records *after* the callback (a
//! file-backed WAL) may hold the sends a node marked with
//! [`Ctx::send_ahead`] apart and put them on the wire first; see
//! [`NodeHost::enable_sends_ahead`].

use std::any::Any;
use std::collections::HashSet;

use psc_codec::WireBytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::node::{Ctx, Effect, Node, NodeId, TimerId};
use crate::storage::Storage;
use crate::time::{Duration, SimTime};

/// An effect a hosted node requested from its transport.
///
/// Sends and timer arms are returned to the caller; timer *cancels* are
/// absorbed by the host (see [`NodeHost::timer`]), mirroring the
/// simulator's fire-time suppression.
#[derive(Debug)]
pub enum HostEffect {
    /// Deliver `payload` to node `to`. `to` may equal the hosted node's
    /// own id — the simulator loops self-sends back, and transports must
    /// do the same.
    Send {
        /// Destination node.
        to: NodeId,
        /// Shared encoded buffer (clone the handle per destination).
        payload: WireBytes,
    },
    /// Arm a timer to fire `after` the current callback's timestamp.
    SetTimer {
        /// Timer id to report back via [`NodeHost::timer`].
        id: TimerId,
        /// Delay relative to the callback timestamp.
        after: Duration,
    },
}

/// Hosts one [`Node`] outside the simulator: same callbacks, same effect
/// semantics, caller-supplied clock.
pub struct NodeHost {
    id: NodeId,
    node: Box<dyn Node>,
    storage: Storage,
    rng: StdRng,
    next_timer: u64,
    cancelled: HashSet<TimerId>,
    scratch: Vec<Effect>,
    /// The last callback's sends ahead of its log records, once enabled.
    ahead: Option<Vec<(NodeId, WireBytes)>>,
}

impl NodeHost {
    /// Creates a host for `node`, identified as `id`, with a seeded RNG
    /// (deterministic given the same seed and call sequence).
    pub fn new(id: NodeId, node: Box<dyn Node>, seed: u64) -> NodeHost {
        NodeHost {
            id,
            node,
            storage: Storage::new(),
            rng: StdRng::seed_from_u64(seed),
            next_timer: 0,
            cancelled: HashSet::new(),
            scratch: Vec::new(),
            ahead: None,
        }
    }

    /// Creates a host whose stable storage is pre-populated — how a real
    /// transport hands back state reloaded from disk before the node's
    /// first callback runs.
    pub fn with_storage(id: NodeId, node: Box<dyn Node>, seed: u64, storage: Storage) -> NodeHost {
        let mut host = NodeHost::new(id, node, seed);
        host.storage = storage;
        host
    }

    /// The hosted node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The hosted node's stable storage (e.g. to drain the WAL journal a
    /// file backend mirrors to disk after each callback).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Holds the sends a node marks with [`Ctx::send_ahead`] apart from
    /// the effects its callbacks return, for
    /// [`NodeHost::take_sends_ahead`]. A marked send stays among the effects
    /// when it goes to the node itself (looping it back would run another
    /// callback before this one's records are written) or to a node the
    /// same callback already sent a plain message to (it must not overtake
    /// that message). Off by default: every send is then an effect, in
    /// order.
    pub fn enable_sends_ahead(&mut self) {
        self.ahead.get_or_insert_with(Vec::new);
    }

    /// Drains the sends the last callback left ahead of its log records,
    /// in send order; empty unless [`NodeHost::enable_sends_ahead`] was
    /// called.
    pub fn take_sends_ahead(&mut self) -> Vec<(NodeId, WireBytes)> {
        self.ahead.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn run(&mut self, now: SimTime, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) -> Vec<HostEffect> {
        debug_assert!(self.scratch.is_empty());
        let mut ctx = Ctx {
            node: self.id,
            now,
            effects: &mut self.scratch,
            storage: &mut self.storage,
            rng: &mut self.rng,
            next_timer: &mut self.next_timer,
        };
        f(self.node.as_mut(), &mut ctx);
        let mut out = Vec::with_capacity(self.scratch.len());
        // Peers this callback sent a plain message to.
        let mut plain_to: Vec<NodeId> = Vec::new();
        for effect in self.scratch.drain(..) {
            match effect {
                Effect::Send { to, payload, ahead, .. } => match self.ahead.as_mut() {
                    Some(early) if ahead && to != self.id && !plain_to.contains(&to) => {
                        early.push((to, payload));
                    }
                    splitting => {
                        if splitting.is_some() {
                            plain_to.push(to);
                        }
                        out.push(HostEffect::Send { to, payload });
                    }
                },
                Effect::SetTimer { id, after, .. } => {
                    // Re-arming an id that was cancelled earlier must fire.
                    self.cancelled.remove(&id);
                    out.push(HostEffect::SetTimer { id, after });
                }
                Effect::CancelTimer { id, .. } => {
                    self.cancelled.insert(id);
                }
            }
        }
        out
    }

    /// Runs `on_start` at `now`.
    pub fn start(&mut self, now: SimTime) -> Vec<HostEffect> {
        self.run(now, |node, ctx| node.on_start(ctx))
    }

    /// Delivers `payload` from `from` at `now`.
    pub fn message(&mut self, now: SimTime, from: NodeId, payload: &[u8]) -> Vec<HostEffect> {
        self.run(now, |node, ctx| node.on_message(ctx, from, payload))
    }

    /// Fires timer `id` at `now`. Returns `None` (and runs nothing) if the
    /// timer was cancelled since it was armed — the caller does not need
    /// to track cancellation itself, matching [`crate::SimNet`]'s
    /// fire-time suppression.
    pub fn timer(&mut self, now: SimTime, id: TimerId) -> Option<Vec<HostEffect>> {
        if self.cancelled.remove(&id) {
            return None;
        }
        Some(self.run(now, |node, ctx| node.on_timer(ctx, id)))
    }

    /// Runs `on_recover` at `now` (the node value itself must already be
    /// the post-crash rebuild; storage is preserved by this host).
    pub fn recover(&mut self, now: SimTime) -> Vec<HostEffect> {
        self.run(now, |node, ctx| node.on_recover(ctx))
    }

    /// Runs an arbitrary closure against the node with a live `Ctx` —
    /// the out-of-band injection hook transports use for local API calls
    /// (publish, subscribe) that must queue effects like any callback.
    pub fn act(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) -> Vec<HostEffect> {
        self.run(now, f)
    }

    /// Downcasts the hosted node to a concrete type (read/modify without a
    /// `Ctx`; effects cannot be queued here).
    pub fn node_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.node.as_any_mut().downcast_mut::<T>()
    }
}
