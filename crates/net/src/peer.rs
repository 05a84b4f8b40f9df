//! Outbound peer connections: inline sends, bounded queues, writer
//! threads, reconnect.
//!
//! The topology is directed: each process dials one **send-only** TCP
//! connection to every peer and accepts **receive-only** connections from
//! them (see [`crate::transport`]). That keeps connection identity trivial
//! — no simultaneous-dial dedup — at the cost of 2·N(N−1)/2 sockets per
//! cluster, which is fine at the static-cluster scale this layer targets.
//!
//! A frame for a connected peer with nothing queued ahead of it is written
//! by the thread that produced it: one non-blocking `send(2)`, nobody
//! woken (`net.sends_inline`). Whatever the socket does not take at once —
//! `EAGAIN`, the tail of a partial write, anything sent while the peer is
//! down or backlogged — goes through the peer's bounded queue of
//! [`WireBytes`] handles, which the writer thread drains with blocking
//! writes. The writer also owns the connection's life: dial, hello,
//! capped exponential backoff, re-dial. The shared buffer discipline from
//! the serialize-once work carries through either way: a fan-out clones a
//! `WireBytes` *handle* per destination and the same underlying bytes are
//! framed onto each socket — one encode, N peer writes, zero payload
//! copies.
//!
//! Queue policy under pressure:
//! - peer **connected**, queue full → the sender blocks until the writer
//!   drains (backpressure; counted in `net.backpressure_waits`),
//! - peer **down**, queue full → drop the oldest entry
//!   (`net.queue.dropped`) so a dead peer costs bounded memory and never
//!   stalls the node.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration as StdDuration;

use psc_codec::frame::encode_crc;
use psc_codec::WireBytes;
use psc_simnet::NodeId;
use psc_telemetry::Gauge;

use crate::metrics::NetMetrics;

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
    /// The live connection (a clone of the writer's handle); `None` while
    /// the peer is down. Inline sends go through it, and shutdown closes
    /// it under a writer stuck in a blocking write.
    stream: Option<TcpStream>,
    /// How much of the front item's frame an inline send already put on
    /// the socket; the writer finishes *that* frame. Zero on a new
    /// connection: a frame is never resumed across a reconnect.
    front_written: usize,
    /// Reused frame buffer of the inline path.
    frame: Vec<u8>,
}

/// One outbound peer: queue plus the state its writer thread shares with
/// the transport.
pub(crate) struct Peer {
    /// The peer's node id.
    pub(crate) id: NodeId,
    /// `net.outbound.n<id>` — the peer's name in depth reports.
    pub(crate) label: String,
    /// `net.outbound.n<id>.depth`, set by the transport's sweep.
    pub(crate) depth_gauge: Gauge,
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

/// Offers `bytes` to the socket without blocking; returns how many it
/// took. `EAGAIN` and errors read as zero: the frame then goes through the
/// queue, and the writer thread meets a real error itself.
#[cfg(target_os = "linux")]
fn send_nonblocking(stream: &TcpStream, bytes: &[u8]) -> usize {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;

    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_NOSIGNAL: c_int = 0x4000;
    extern "C" {
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    }
    // SAFETY: `stream` keeps the descriptor open for the duration of the
    // call, and `bytes` is a live, initialised slice of exactly the
    // length passed; `send` only reads from it.
    let taken = unsafe {
        send(stream.as_raw_fd(), bytes.as_ptr().cast(), bytes.len(), MSG_DONTWAIT | MSG_NOSIGNAL)
    };
    usize::try_from(taken).unwrap_or(0)
}

/// Without a per-call non-blocking send, everything goes through the queue.
#[cfg(not(target_os = "linux"))]
fn send_nonblocking(_stream: &TcpStream, _bytes: &[u8]) -> usize {
    0
}

impl Peer {
    pub(crate) fn new(
        id: NodeId,
        addr: String,
        self_id: NodeId,
        shutdown: Arc<AtomicBool>,
        metrics: NetMetrics,
    ) -> Arc<Peer> {
        let label = format!("net.outbound.n{}", id.0);
        Arc::new(Peer {
            id,
            depth_gauge: metrics.gauge(&format!("{label}.depth")),
            label,
            addr,
            queue: Mutex::new(PeerQueue {
                items: VecDeque::new(),
                stream: None,
                front_written: 0,
                frame: Vec::new(),
            }),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            shutdown,
            metrics,
            hello: crate::transport::hello_payload(self_id),
        })
    }

    fn lock(&self) -> MutexGuard<'_, PeerQueue> {
        self.queue.lock().expect("peer queue poisoned")
    }

    /// Sends `payload` to this peer: written here and now when the
    /// connection is idle and takes the whole frame, queued for the writer
    /// thread (under the pressure policy) otherwise.
    pub(crate) fn push(&self, payload: WireBytes) {
        let mut guard = self.lock();
        let q = &mut *guard;
        if q.items.is_empty() {
            if let Some(stream) = &q.stream {
                q.frame.clear();
                encode_crc(payload.as_ref(), &mut q.frame);
                let taken = send_nonblocking(stream, &q.frame);
                if taken == q.frame.len() {
                    self.metrics.msgs_sent.inc();
                    self.metrics.bytes_sent.add(taken as u64);
                    self.metrics.sends_inline.inc();
                    return;
                }
                q.front_written = taken;
            }
        }
        while guard.items.len() >= CAPACITY {
            if guard.stream.is_none() || self.shutdown.load(Ordering::Relaxed) {
                guard.items.pop_front();
                self.metrics.queue_dropped.inc();
                break;
            }
            self.metrics.backpressure_waits.inc();
            guard = self.space.wait(guard).expect("peer queue poisoned");
        }
        guard.items.push_back(payload);
        drop(guard);
        self.nonempty.notify_one();
    }

    /// Current queue depth (for gauges / inspect / health sweeps).
    pub(crate) fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the writer currently holds a live connection.
    pub(crate) fn is_connected(&self) -> bool {
        self.lock().stream.is_some()
    }

    /// Blocks until the writer holds a live connection or `deadline`
    /// passes; returns whether it does.
    pub(crate) fn wait_connected(&self, deadline: std::time::Instant) -> bool {
        let mut q = self.lock();
        while q.stream.is_none() {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            q = self.space.wait_timeout(q, left).expect("peer queue poisoned").0;
        }
        true
    }

    /// Wakes every thread blocked on this peer (shutdown path; the caller
    /// has set the flag). Notifying under the queue lock means a thread is
    /// either still ahead of its check of the flag or already waiting, so
    /// no wake-up is lost; closing the socket frees a writer stuck in a
    /// blocking write to a peer that stopped reading.
    pub(crate) fn wake_all(&self) {
        let q = self.lock();
        if let Some(stream) = &q.stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.nonempty.notify_all();
        self.space.notify_all();
    }

    /// Publishes the connection state: `Some` makes the peer eligible for
    /// inline sends, `None` switches blocked senders to drop-oldest mode.
    fn set_stream(&self, stream: Option<TcpStream>) {
        let mut q = self.lock();
        q.stream = stream;
        q.front_written = 0;
        drop(q);
        self.space.notify_all();
    }

    /// Blocks until an item is available (front is left in place so a
    /// failed write can retry it, and so senders keep queueing behind it),
    /// or returns `None` on shutdown. With the item comes how much of its
    /// frame is already on the socket.
    fn wait_front(&self) -> Option<(WireBytes, usize)> {
        let mut q = self.lock();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(item) = q.items.front() {
                return Some((item.clone(), q.front_written));
            }
            q = self.nonempty.wait(q).expect("peer queue poisoned");
        }
    }

    /// Removes the front item after a successful write.
    fn pop_front(&self) {
        let mut q = self.lock();
        q.items.pop_front();
        q.front_written = 0;
        drop(q);
        self.space.notify_one();
    }

    /// Sleeps out a reconnect delay; `wake_all` cuts it short at shutdown.
    fn back_off(&self, backoff: &mut StdDuration) {
        let shutdown = |_: &mut PeerQueue| !self.shutdown.load(Ordering::Relaxed);
        drop(self.nonempty.wait_timeout_while(self.lock(), *backoff, shutdown));
        *backoff = (*backoff * 2).min(RECONNECT_MAX);
    }

    /// Dials the peer and says hello, so the acceptor knows who is
    /// talking; the second handle is the one inline sends use.
    fn dial(&self, frame: &mut Vec<u8>) -> std::io::Result<(TcpStream, TcpStream)> {
        let mut stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        frame.clear();
        encode_crc(&self.hello, frame);
        stream.write_all(frame)?;
        let inline = stream.try_clone()?;
        Ok((stream, inline))
    }

    /// The writer thread body: dial (with capped exponential backoff),
    /// handshake, then drain the queue onto the socket until it breaks.
    pub(crate) fn run_writer(self: Arc<Peer>) {
        let mut backoff = RECONNECT_BASE;
        let mut ever_connected = false;
        let mut frame = Vec::new();
        while !self.shutdown.load(Ordering::Relaxed) {
            let Ok((mut stream, inline)) = self.dial(&mut frame) else {
                self.back_off(&mut backoff);
                continue;
            };
            if ever_connected {
                self.metrics.reconnects.inc();
            }
            ever_connected = true;
            backoff = RECONNECT_BASE;
            self.set_stream(Some(inline));

            while let Some((payload, written)) = self.wait_front() {
                frame.clear();
                encode_crc(payload.as_ref(), &mut frame);
                match stream.write_all(&frame[written..]) {
                    Ok(()) => {
                        self.pop_front();
                        self.metrics.msgs_sent.inc();
                        self.metrics.bytes_sent.add(frame.len() as u64);
                    }
                    Err(_) => break, // front stays queued; reconnect and resend it whole
                }
            }
            self.set_stream(None);
        }
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

    /// Reads frames off `stream` (after the hello) up to the one numbered
    /// `last`; a frame the CRC rejects panics here.
    fn read_frames(stream: &mut TcpStream, last: u64) -> Vec<u64> {
        let mut reassembler = FrameReassembler::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut received = Vec::new();
        let mut hello_seen = false;
        while received.last() != Some(&last) {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "writer hung up after {} frames", received.len());
            reassembler.extend(&buf[..n]);
            while let Some(frame) = reassembler.next_frame().expect("frame intact") {
                if hello_seen {
                    received.push(index_of(&frame));
                } else {
                    hello_seen = true;
                }
            }
        }
        received
    }

    #[test]
    fn an_idle_connection_takes_every_frame_inline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rig = start(listener.local_addr().unwrap().to_string());
        let (mut stream, _) = listener.accept().unwrap();
        wait_until("the writer's handshake", || rig.peer.is_connected());

        let pushes = 200;
        for i in 0..pushes {
            rig.peer.push(numbered(i, 64));
            assert_eq!(rig.peer.depth(), 0, "frame {i} was queued, not sent");
        }
        // Counted by the pushing thread, before the receiver has read a byte:
        // the writer thread carried nothing, so nobody was woken.
        assert_eq!(rig.metrics.sends_inline.get(), pushes);
        assert_eq!(rig.metrics.msgs_sent.get(), pushes);
        assert_eq!(read_frames(&mut stream, pushes - 1), (0..pushes).collect::<Vec<_>>());
        rig.stop();
    }

    #[test]
    fn a_stalled_reader_spills_to_the_queue_and_every_frame_arrives_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rig = start(listener.local_addr().unwrap().to_string());
        let (mut stream, _) = listener.accept().unwrap();
        wait_until("the writer's handshake", || rig.peer.is_connected());

        // Nobody reads: the socket takes what its buffers hold, the frame
        // that no longer fits is cut where they end, and the rest queues
        // (12 MiB in all, under CAPACITY so the pusher never waits).
        let pushes = 768;
        for i in 0..pushes {
            rig.peer.push(numbered(i, 16 * 1024));
        }
        let inline = rig.metrics.sends_inline.get();
        assert!(inline > 0 && inline < pushes, "{inline} of {pushes} frames went inline");
        assert!(rig.peer.depth() > 0);

        // The reader resumes. A frame resumed at the wrong offset, sent
        // twice or skipped would fail its CRC or break the sequence.
        assert_eq!(read_frames(&mut stream, pushes - 1), (0..pushes).collect::<Vec<_>>());
        wait_until("the writer's count of the last frame", || rig.metrics.msgs_sent.get() == pushes);
        assert_eq!(rig.metrics.sends_inline.get(), inline, "a backlogged peer is the writer's");
        assert_eq!(rig.metrics.queue_dropped.get(), 0);
        rig.stop();
    }

    #[test]
    fn a_connection_killed_mid_backlog_resends_the_front_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rig = start(listener.local_addr().unwrap().to_string());
        let (stream, _) = listener.accept().unwrap();
        wait_until("the writer's handshake", || rig.peer.is_connected());

        let pushes = 768;
        for i in 0..pushes {
            rig.peer.push(numbered(i, 16 * 1024));
        }
        let backlog = rig.peer.depth() as u64;
        assert!(backlog > 0);
        // Kill the connection under a writer that is part-way through the
        // front frame. What the dead socket had buffered is lost — that is
        // the group protocols' business — but the new connection must open
        // with the front item from its first byte, then the rest in order.
        drop(stream);
        let (mut stream, _) = listener.accept().unwrap();
        let survivors = read_frames(&mut stream, pushes - 1);
        assert_eq!(survivors, (survivors[0]..pushes).collect::<Vec<_>>());
        // The writer may have finished a frame between the depth reading
        // and the kill, never un-sent one.
        assert!(survivors[0] >= pushes - backlog, "{} < {pushes} - {backlog}", survivors[0]);
        assert_eq!(rig.metrics.reconnects.get(), 1);
        rig.stop();
    }
}
