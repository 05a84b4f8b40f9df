//! Outbound peer connections: bounded queues, writer threads, reconnect.
//!
//! The topology is directed: each process dials one **send-only** TCP
//! connection to every peer and accepts **receive-only** connections from
//! them (see [`crate::transport`]). That keeps connection identity trivial
//! — no simultaneous-dial dedup — at the cost of 2·N(N−1)/2 sockets per
//! cluster, which is fine at the static-cluster scale this layer targets.
//!
//! Each peer owns a bounded queue of [`WireBytes`] handles. The shared
//! buffer discipline from the serialize-once work carries through: the
//! event loop clones a `WireBytes` *handle* per destination, and the
//! writer thread frames the same underlying bytes onto the socket — one
//! encode, N peer writes, zero payload copies.
//!
//! Queue policy under pressure:
//! - peer **connected**, queue full → the sender blocks until the writer
//!   drains (backpressure; counted in `net.backpressure_waits`),
//! - peer **down**, queue full → drop the oldest entry
//!   (`net.queue.dropped`) so a dead peer costs bounded memory and never
//!   stalls the protocol loop.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration as StdDuration;

use psc_codec::frame::encode_crc;
use psc_codec::WireBytes;
use psc_simnet::NodeId;

use crate::metrics::NetMetrics;

/// How long writer threads sleep between shutdown checks while idle.
const IDLE_WAIT: StdDuration = StdDuration::from_millis(50);
/// Bound on each per-peer outbound queue; a full queue to a connected peer
/// blocks the sender (backpressure), a full queue to a down peer drops the
/// oldest entry.
const CAPACITY: usize = 1024;
/// First reconnect delay after a failed dial or dropped connection.
const RECONNECT_BASE: StdDuration = StdDuration::from_millis(10);
/// Cap on the exponential reconnect backoff.
const RECONNECT_MAX: StdDuration = StdDuration::from_millis(2000);

struct PeerQueue {
    items: VecDeque<WireBytes>,
    connected: bool,
}

/// One outbound peer: queue plus the state its writer thread shares with
/// the transport.
pub(crate) struct Peer {
    /// The peer's node id.
    pub(crate) id: NodeId,
    addr: String,
    queue: Mutex<PeerQueue>,
    /// Signalled when the queue gains an item (writer waits on this).
    nonempty: Condvar,
    /// Signalled when the queue loses an item (backpressured senders wait).
    space: Condvar,
    shutdown: Arc<AtomicBool>,
    metrics: NetMetrics,
    /// Frame payload prefix identifying the dialing node (hello frame).
    hello: Vec<u8>,
}

impl Peer {
    pub(crate) fn new(
        id: NodeId,
        addr: String,
        self_id: NodeId,
        shutdown: Arc<AtomicBool>,
        metrics: NetMetrics,
    ) -> Arc<Peer> {
        Arc::new(Peer {
            id,
            addr,
            queue: Mutex::new(PeerQueue { items: VecDeque::new(), connected: false }),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            shutdown,
            metrics,
            hello: crate::transport::hello_payload(self_id),
        })
    }

    /// Enqueues `payload` for this peer, applying the pressure policy.
    pub(crate) fn push(&self, payload: WireBytes) {
        let mut q = self.queue.lock().expect("peer queue poisoned");
        while q.items.len() >= CAPACITY {
            if !q.connected || self.shutdown.load(Ordering::Relaxed) {
                q.items.pop_front();
                self.metrics.queue_dropped.inc();
                break;
            }
            self.metrics.backpressure_waits.inc();
            let (next, _) = self
                .space
                .wait_timeout(q, IDLE_WAIT)
                .expect("peer queue poisoned");
            q = next;
        }
        q.items.push_back(payload);
        drop(q);
        self.nonempty.notify_one();
    }

    /// Current queue depth (for gauges / inspect / health sweeps).
    pub(crate) fn depth(&self) -> usize {
        self.queue.lock().expect("peer queue poisoned").items.len()
    }

    /// Whether the writer currently holds a live connection.
    pub(crate) fn is_connected(&self) -> bool {
        self.queue.lock().expect("peer queue poisoned").connected
    }

    /// Blocks until the writer holds a live connection or `deadline`
    /// passes; returns whether it does.
    pub(crate) fn wait_connected(&self, deadline: std::time::Instant) -> bool {
        let mut q = self.queue.lock().expect("peer queue poisoned");
        while !q.connected {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            q = self.space.wait_timeout(q, left).expect("peer queue poisoned").0;
        }
        true
    }

    /// Wakes any thread blocked on this peer (shutdown path).
    pub(crate) fn wake_all(&self) {
        self.nonempty.notify_all();
        self.space.notify_all();
    }

    fn set_connected(&self, connected: bool) {
        let mut q = self.queue.lock().expect("peer queue poisoned");
        q.connected = connected;
        drop(q);
        // A newly-down peer switches blocked senders to drop-oldest mode.
        self.space.notify_all();
    }

    /// Blocks until an item is available (front is left in place so a
    /// failed write can retry it), or returns `None` on shutdown.
    fn wait_front(&self) -> Option<WireBytes> {
        let mut q = self.queue.lock().expect("peer queue poisoned");
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(item) = q.items.front() {
                return Some(item.clone());
            }
            let (next, _) = self
                .nonempty
                .wait_timeout(q, IDLE_WAIT)
                .expect("peer queue poisoned");
            q = next;
        }
    }

    /// Removes the front item after a successful write.
    fn pop_front(&self) {
        let mut q = self.queue.lock().expect("peer queue poisoned");
        q.items.pop_front();
        drop(q);
        self.space.notify_one();
    }

    /// The writer thread body: dial (with capped exponential backoff),
    /// handshake, then drain the queue onto the socket until it breaks.
    pub(crate) fn run_writer(self: Arc<Peer>) {
        let mut backoff = RECONNECT_BASE;
        let mut ever_connected = false;
        let mut frame = Vec::new();
        while !self.shutdown.load(Ordering::Relaxed) {
            let mut stream = match TcpStream::connect(&self.addr) {
                Ok(stream) => stream,
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(RECONNECT_MAX);
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            // Hello frame first, so the acceptor knows who is talking.
            frame.clear();
            encode_crc(&self.hello, &mut frame);
            if stream.write_all(&frame).is_err() {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(RECONNECT_MAX);
                continue;
            }
            if ever_connected {
                self.metrics.reconnects.inc();
            }
            ever_connected = true;
            backoff = RECONNECT_BASE;
            self.set_connected(true);

            while let Some(payload) = self.wait_front() {
                frame.clear();
                encode_crc(payload.as_ref(), &mut frame);
                match stream.write_all(&frame) {
                    Ok(()) => {
                        self.pop_front();
                        self.metrics.msgs_sent.inc();
                        self.metrics.bytes_sent.add(frame.len() as u64);
                    }
                    Err(_) => break, // front stays queued; reconnect and retry it
                }
            }
            self.set_connected(false);
        }
        self.set_connected(false);
    }
}

#[cfg(test)]
mod tests {
    //! The queue policy under pressure — what a transport rewrite must keep.

    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Instant;

    use psc_codec::frame::FrameReassembler;
    use psc_telemetry::Registry;

    use super::*;

    /// A payload carrying its push index, padded to `len` bytes.
    fn numbered(index: u64, len: usize) -> WireBytes {
        let mut bytes = index.to_le_bytes().to_vec();
        bytes.resize(len.max(8), 0);
        WireBytes::from_vec(bytes)
    }

    fn index_of(payload: &[u8]) -> u64 {
        u64::from_le_bytes(payload[..8].try_into().unwrap())
    }

    struct Rig {
        peer: Arc<Peer>,
        metrics: NetMetrics,
        writer: std::thread::JoinHandle<()>,
    }

    fn start(addr: String) -> Rig {
        let metrics = NetMetrics::new(&Registry::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let peer = Peer::new(NodeId(1), addr, NodeId(0), shutdown, metrics.clone());
        let writer = std::thread::spawn({
            let peer = Arc::clone(&peer);
            move || peer.run_writer()
        });
        Rig { peer, metrics, writer }
    }

    impl Rig {
        fn stop(self) {
            self.peer.shutdown.store(true, Ordering::Relaxed);
            self.peer.wake_all();
            self.writer.join().unwrap();
        }
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + StdDuration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(StdDuration::from_millis(1));
        }
    }

    #[test]
    fn full_queue_to_a_down_peer_drops_the_oldest() {
        // Bind then drop: a loopback port nobody listens on.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let rig = start(addr.to_string());
        let pushes = CAPACITY as u64 + 10;
        for i in 0..pushes {
            rig.peer.push(numbered(i, 8));
        }
        assert!(!rig.peer.is_connected());
        assert_eq!(rig.peer.depth(), CAPACITY);
        assert_eq!(rig.metrics.queue_dropped.get(), 10);
        assert_eq!(rig.metrics.backpressure_waits.get(), 0);
        let survivors: Vec<u64> =
            rig.peer.queue.lock().unwrap().items.iter().map(|p| index_of(p.as_slice())).collect();
        assert_eq!(survivors, (10..pushes).collect::<Vec<_>>(), "newest survive, in FIFO order");
        rig.stop();
    }

    #[test]
    fn full_queue_to_a_connected_peer_blocks_the_sender_and_loses_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rig = start(listener.local_addr().unwrap().to_string());
        let (mut stream, _) = listener.accept().unwrap();
        wait_until("the writer's handshake", || rig.peer.is_connected());

        // Nobody reads yet, and a second queue's worth of 16 KiB payloads
        // (16 MiB) is more than loopback socket buffers absorb, so the
        // queue fills and the pusher must wait.
        let pushes = 2 * CAPACITY as u64;
        let pusher = std::thread::spawn({
            let peer = Arc::clone(&rig.peer);
            move || (0..pushes).for_each(|i| peer.push(numbered(i, 16 * 1024)))
        });
        wait_until("backpressure", || rig.metrics.backpressure_waits.get() > 0);

        let mut reassembler = FrameReassembler::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut received = Vec::new();
        let mut hello_seen = false;
        while (received.len() as u64) < pushes {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "writer hung up after {} frames", received.len());
            reassembler.extend(&buf[..n]);
            while let Some(frame) = reassembler.next_frame().unwrap() {
                if hello_seen {
                    received.push(index_of(&frame));
                } else {
                    hello_seen = true;
                }
            }
        }
        pusher.join().unwrap();
        assert_eq!(received, (0..pushes).collect::<Vec<_>>(), "every frame, in push order");
        assert_eq!(rig.metrics.queue_dropped.get(), 0);
        wait_until("the writer's count of the last frame", || rig.metrics.msgs_sent.get() == pushes);
        rig.stop();
    }
}
