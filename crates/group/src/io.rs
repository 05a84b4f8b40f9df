//! The sans-io protocol interface.

use rand::RngCore;

use psc_codec::WireBytes;
use psc_simnet::{Duration, NodeId, ScopedStorage, SimTime};

/// Protocol-chosen timer token, echoed back on expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// Capabilities a multicast protocol instance uses to act on the world.
///
/// Hosts (the simulator adapter, the DACE engine, unit-test harnesses)
/// implement this; protocols never touch sockets, clocks or disks directly,
/// which keeps them deterministic and unit-testable step by step.
pub trait GroupIo {
    /// This process's id.
    fn self_id(&self) -> NodeId;

    /// Current members of the group (destination set). Membership is
    /// host-managed; protocols treat it as read-only per callback.
    fn members(&self) -> &[NodeId];

    /// Current (virtual) time.
    fn now(&self) -> SimTime;

    /// Sends protocol bytes to one member. The buffer is `Arc`-shared:
    /// fanning the same encoded message out to N members means one encode
    /// and N handle clones, never N copies.
    fn send(&mut self, to: NodeId, bytes: WireBytes);

    /// Sends protocol bytes that depend on no log record this callback
    /// wrote, so a host may put them on the wire before the callback's
    /// records reach the disk (`psc_simnet::Ctx::send_ahead`). Default: a
    /// plain [`send`](Self::send).
    fn send_ahead(&mut self, to: NodeId, bytes: WireBytes) {
        self.send(to, bytes);
    }

    /// Hands a payload up to the application, attributed to its original
    /// broadcaster.
    fn deliver(&mut self, origin: NodeId, payload: WireBytes);

    /// Arms a timer; `token` comes back via [`Multicast::on_timer`].
    fn set_timer(&mut self, after: Duration, token: TimerToken);

    /// This process's stable storage (survives crashes), scoped by the
    /// host so several protocol instances share one disk.
    fn storage(&mut self) -> ScopedStorage<'_>;

    /// Deterministic randomness.
    fn rng(&mut self) -> &mut dyn RngCore;

    /// Records a protocol metric (`name` is the suffix under the host's
    /// `group.` namespace, e.g. `reliable.retransmits`). Default no-op so
    /// hosts without telemetry — unit-test harnesses, minimal adapters —
    /// need not care.
    fn metric(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }
}

/// A broadcast protocol instance for one group (one multicast class).
///
/// All methods are synchronous state transitions; effects go through the
/// [`GroupIo`].
pub trait Multicast: Send {
    /// Broadcasts an application payload to the group.
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes);

    /// Handles a protocol message from a peer.
    fn on_message(&mut self, io: &mut dyn GroupIo, from: NodeId, bytes: &[u8]);

    /// Handles an armed timer's expiry.
    fn on_timer(&mut self, _io: &mut dyn GroupIo, _token: TimerToken) {}

    /// Called on a fresh instance after a crash–recover cycle; persistent
    /// protocols rebuild from [`GroupIo::storage`].
    fn on_recover(&mut self, _io: &mut dyn GroupIo) {}

    /// Called once when the host starts (protocols with periodic timers arm
    /// them here).
    fn on_start(&mut self, _io: &mut dyn GroupIo) {}

    /// Stable short name used in health metrics and state reports
    /// (`"fifo"`, `"total"`, …).
    fn proto_name(&self) -> &'static str {
        "multicast"
    }

    /// Captures the protocol's instantaneous state for a global snapshot
    /// (Chandy–Lamport style): sequence counters, delivery watermarks,
    /// retransmission sets, pending queues. The capture must be a pure
    /// read of protocol state — no sends, no delivers, no timer changes —
    /// so that taking a snapshot never perturbs the run. The default
    /// returns an empty capture tagged with the protocol name, for
    /// protocols with no snapshot-relevant state.
    fn capture(&mut self, io: &mut dyn GroupIo) -> psc_snapshot::ProtoCapture {
        let _ = io;
        psc_snapshot::ProtoCapture::new(self.proto_name())
    }

    /// Named depths of the protocol's internal queues, `(name, depth)`
    /// pairs in a stable order. Names are prefixed with the protocol
    /// (`fifo.holdback`, `reliable.unacked`); the stall watchdog turns
    /// them into `health.queue.<name>` gauges and stall detection, and the
    /// introspection plane prints them. Default: no queues.
    fn queue_depths(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Downcast support for host-side inspection; implement as
    /// `fn as_any_mut(&mut self) -> &mut dyn Any { self }`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A boxed protocol is a protocol: every method forwards, so factories can
/// return `Box<dyn Multicast>` to hosts that take `impl Multicast`, and
/// `as_any_mut` still downcasts to the inner protocol.
impl<M: Multicast + ?Sized> Multicast for Box<M> {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        (**self).broadcast(io, payload);
    }
    fn on_message(&mut self, io: &mut dyn GroupIo, from: NodeId, bytes: &[u8]) {
        (**self).on_message(io, from, bytes);
    }
    fn on_timer(&mut self, io: &mut dyn GroupIo, token: TimerToken) {
        (**self).on_timer(io, token);
    }
    fn on_recover(&mut self, io: &mut dyn GroupIo) {
        (**self).on_recover(io);
    }
    fn on_start(&mut self, io: &mut dyn GroupIo) {
        (**self).on_start(io);
    }
    fn proto_name(&self) -> &'static str {
        (**self).proto_name()
    }
    fn capture(&mut self, io: &mut dyn GroupIo) -> psc_snapshot::ProtoCapture {
        (**self).capture(io)
    }
    fn queue_depths(&self) -> Vec<(&'static str, u64)> {
        (**self).queue_depths()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        (**self).as_any_mut()
    }
}

/// Encodes a protocol message into a shared, pooled buffer, panicking on
/// failure.
///
/// Protocol message types are plain serde structs; encoding them cannot fail
/// with the standard derives, so hosts treat failure as a bug. The returned
/// [`WireBytes`] is cloned per destination — the serialize-once half of the
/// fan-out discipline.
pub(crate) fn encode_msg<T: serde::Serialize>(msg: &T) -> WireBytes {
    psc_codec::to_wire_bytes(msg).expect("protocol message encoding cannot fail")
}

/// Decodes a protocol message, returning `None` (and thereby dropping the
/// message) on corruption — a malformed packet must not take the protocol
/// down.
pub(crate) fn decode_msg<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Option<T> {
    psc_codec::from_bytes(bytes).ok()
}
