//! The node interface: what a simulated address space implements.

use std::any::Any;
use std::fmt;

use psc_codec::WireBytes;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::storage::Storage;
use crate::time::{Duration, SimTime};

/// Identifier of a simulated node (address space / process).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Behaviour of a simulated node. Implementations are plain state machines:
/// all I/O goes through the [`Ctx`] passed to each callback, which is what
/// keeps protocols testable step by step and the schedule deterministic.
pub trait Node: Send {
    /// Called once when the node is added (and *not* on recovery).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]);

    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId) {}

    /// Called on the **fresh** node value after a crash–recover cycle;
    /// volatile state is gone, [`Ctx::storage`] persists.
    fn on_recover(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Downcast support so tests and drivers can reach the concrete node
    /// type behind `dyn Node`. Implement as `fn as_any_mut(&mut self) ->
    /// &mut dyn Any { self }`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Side-effect interface handed to node callbacks.
///
/// All sends, timers, randomness and stable storage go through the context;
/// the simulator applies latency/loss/partitions and keeps the global event
/// order deterministic.
pub struct Ctx<'a> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) storage: &'a mut Storage,
    pub(crate) rng: &'a mut dyn RngCore,
    pub(crate) next_timer: &'a mut u64,
}

/// An effect queued by a node callback, applied by the simulator afterwards.
#[derive(Debug)]
pub(crate) enum Effect {
    Send {
        from: NodeId,
        to: NodeId,
        payload: WireBytes,
        /// Depends on no log record its callback wrote; see
        /// [`Ctx::send_ahead`].
        ahead: bool,
    },
    SetTimer {
        node: NodeId,
        id: TimerId,
        after: Duration,
    },
    CancelTimer {
        node: NodeId,
        id: TimerId,
    },
}

impl Ctx<'_> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `payload` to `to` (possibly to itself). Delivery is subject to
    /// the simulation's latency, loss and partition configuration.
    ///
    /// Fan-out callers should pass a shared [`WireBytes`] (clone the handle
    /// per destination) so the encoded buffer is never deep-copied.
    pub fn send(&mut self, to: NodeId, payload: impl Into<WireBytes>) {
        self.effects.push(Effect::Send {
            from: self.node,
            to,
            payload: payload.into(),
            ahead: false,
        });
    }

    /// Like [`send`](Self::send), for a message that depends on no log
    /// record this callback wrote: a host may put it on the wire before
    /// the callback's records reach the disk (see
    /// [`NodeHost::take_sends_ahead`](crate::NodeHost::take_sends_ahead)).
    /// The simulator applies every effect after the callback's commit, so
    /// there it is a plain send.
    pub fn send_ahead(&mut self, to: NodeId, payload: impl Into<WireBytes>) {
        self.effects.push(Effect::Send {
            from: self.node,
            to,
            payload: payload.into(),
            ahead: true,
        });
    }

    /// Arms a timer that fires on this node after `after`.
    pub fn set_timer(&mut self, after: Duration) -> TimerId {
        *self.next_timer += 1;
        let id = TimerId(*self.next_timer);
        self.effects.push(Effect::SetTimer {
            node: self.node,
            id,
            after,
        });
        id
    }

    /// Cancels a pending timer; firing of already-queued timers is
    /// suppressed.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer {
            node: self.node,
            id,
        });
    }

    /// This node's stable storage: survives crashes, not visible to other
    /// nodes.
    pub fn storage(&mut self) -> &mut Storage {
        self.storage
    }

    /// Deterministic randomness (one generator per simulation).
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}
