//! The transport's `net.*` counter plane.

use psc_telemetry::{Counter, Gauge, Registry};

/// Cloneable bundle of the transport's counters, registered once per
/// endpoint in the node's own [`Registry`] (the same registry DACE and the
/// group protocols record into, so one snapshot covers the whole stack).
#[derive(Clone)]
pub(crate) struct NetMetrics {
    /// `net.msgs_sent` — frames written to peer sockets.
    pub msgs_sent: Counter,
    /// `net.sends_inline` — of those, frames the producing thread wrote
    /// itself on an idle connection; the rest went through a writer thread.
    pub sends_inline: Counter,
    /// `net.bytes_sent` — framed bytes written (header + payload).
    pub bytes_sent: Counter,
    /// `net.msgs_recv` — verified frames delivered up to the node.
    pub msgs_recv: Counter,
    /// `net.bytes_recv` — payload bytes of those frames.
    pub bytes_recv: Counter,
    /// `net.peer.reconnects` — successful re-dials after a lost connection.
    pub reconnects: Counter,
    /// `net.peer.drop` — inbound connections that ended (EOF, error,
    /// corrupt frame, bad handshake); the graceful-disconnect event.
    pub peer_drop: Counter,
    /// `net.frames.corrupt` — frames rejected by CRC/length validation.
    pub frames_corrupt: Counter,
    /// `net.queue.dropped` — outbound entries evicted because the peer was
    /// down with a full queue.
    pub queue_dropped: Counter,
    /// `net.backpressure_waits` — times a sender blocked on a full queue
    /// to a connected peer.
    pub backpressure_waits: Counter,
    /// `net.loopback` — self-sends looped back without touching a socket.
    pub loopback: Counter,
    registry: Registry,
}

impl NetMetrics {
    pub(crate) fn new(registry: &Registry) -> NetMetrics {
        NetMetrics {
            msgs_sent: registry.counter("net.msgs_sent"),
            sends_inline: registry.counter("net.sends_inline"),
            bytes_sent: registry.counter("net.bytes_sent"),
            msgs_recv: registry.counter("net.msgs_recv"),
            bytes_recv: registry.counter("net.bytes_recv"),
            reconnects: registry.counter("net.peer.reconnects"),
            peer_drop: registry.counter("net.peer.drop"),
            frames_corrupt: registry.counter("net.frames.corrupt"),
            queue_dropped: registry.counter("net.queue.dropped"),
            backpressure_waits: registry.counter("net.backpressure_waits"),
            loopback: registry.counter("net.loopback"),
            registry: registry.clone(),
        }
    }

    /// A per-peer gauge in the same registry, resolved once by its owner.
    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }
}
