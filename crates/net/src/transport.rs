//! The transport endpoint: sockets in, sans-io node in the middle,
//! sockets out.
//!
//! One [`NetTransport`] hosts one [`Node`] (in practice a
//! `psc_dace::DaceNode`). The node, its WAL files, its timer heap and its
//! self-send queue live in one `Core` behind one mutex, and **whoever has
//! work for the node runs it**, to completion, under that lock:
//!
//! - a **caller** of [`NetTransport::act_sync`] (publish, subscribe,
//!   introspection) runs its closure on its own thread and gets the value
//!   back as a return value;
//! - one **reader** thread per inbound connection (spawned by the
//!   **accept** thread) reassembles CRC frames and runs `on_message` for
//!   each;
//! - the **timer** thread sleeps on a condvar paired with the core until
//!   the earliest deadline and runs `on_timer`; it is notified only when a
//!   callback arms an earlier deadline, when a local call leaves it a log
//!   write, or at shutdown.
//!
//! So node code stays single-threaded exactly as it is under the
//! simulator, and every callback's effects are applied in one place
//! (`Shared::apply`) before the lock is released: the sends the node marked
//! as depending on none of the callback's log records first
//! ([`NodeHost::take_sends_ahead`]), then the log records, then the other
//! sends and the timers, then the self-sends those produced. One exception
//! keeps callers off the disk: a local call whose callback journaled log
//! records puts its sends ahead on the wire and returns, and the timer
//! thread (or whoever takes the lock first, `shutdown` included) writes
//! the log and applies the rest — before any other callback runs, so nothing is reordered. A
//! certified publish's frame is such a send once its epoch is on disk
//! (`psc_group::Durable`), so it leaves before the publisher's fsync. A
//! send to an idle peer is written by the applying thread itself; one
//! **writer** thread per dialed peer carries what the socket would not
//! take at once (see [`crate::peer`]). Lock order: core, then a peer's
//! queue; `inspect` and `queue_depths` never take the core, so they answer
//! while the node is busy or backpressured.
//!
//! A panic under the lock (a handler's, or the WAL's refusal to run
//! undurable) poisons the core and the endpoint fail-stops: readers and
//! the timer thread exit, `act_sync` panics, `shutdown` still joins.
//!
//! Delivery semantics mirror the simulator where the protocols can tell:
//! self-sends loop back through an internal queue without touching a
//! socket, timers fire in (deadline, arm-order) order, and cancelled
//! timers are suppressed at fire time. What the simulator fakes —
//! latency, loss, reordering across peers — is here supplied by real TCP:
//! per-peer FIFO, no corruption (CRC-checked), arbitrary interleaving
//! between peers. That is exactly the network model the group protocols
//! were built against.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration as StdDuration;

use psc_codec::frame::FrameReassembler;
use psc_codec::WireBytes;
use psc_simnet::{Ctx, Duration, HostEffect, Node, NodeHost, NodeId, SimTime, TimerId, WalOp};
use psc_telemetry::{HealthMonitor, Inspect, Registry, ReportBuilder, Snapshot};

use crate::clock::{Clock, TimerDriver, WallClock};
use crate::config::NetConfig;
use crate::metrics::NetMetrics;
use crate::peer::Peer;
use crate::storage::FileWal;

/// Wire protocol magic of the hello frame.
const HELLO_MAGIC: &[u8; 4] = b"PSCN";
/// Wire protocol version.
const HELLO_VERSION: u16 = 1;
/// Interval of the transport's own health sweep (queue-depth gauges +
/// `HealthMonitor` feed).
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

/// Builds the handshake frame payload a dialer sends first.
pub(crate) fn hello_payload(id: NodeId) -> Vec<u8> {
    let mut out = Vec::with_capacity(14);
    out.extend_from_slice(HELLO_MAGIC);
    out.extend_from_slice(&HELLO_VERSION.to_le_bytes());
    out.extend_from_slice(&id.0.to_le_bytes());
    out
}

/// Parses a hello frame payload; `None` means the peer is not speaking
/// our protocol.
fn parse_hello(payload: &[u8]) -> Option<NodeId> {
    if payload.len() != 14 || &payload[..4] != HELLO_MAGIC {
        return None;
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().ok()?);
    if version != HELLO_VERSION {
        return None;
    }
    Some(NodeId(u64::from_le_bytes(payload[6..14].try_into().ok()?)))
}

/// Timer tokens on the wall-clock heap: the hosted node's own timers plus
/// the transport's maintenance tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NetTimer {
    /// A `Ctx::set_timer` timer of the hosted node.
    Node(TimerId),
    /// The periodic queue-depth / health sweep.
    Sweep,
}

/// Everything a callback touches; whoever holds the lock runs the node.
struct Core {
    host: NodeHost,
    wal: Option<FileWal>,
    timers: TimerDriver<NetTimer>,
    /// Self-sends waiting to loop back; empty whenever the lock is free.
    loopback: VecDeque<WireBytes>,
    /// Local calls whose callback journaled log records: a caller does not
    /// wait for the disk, so the log write and the effects behind it are
    /// left to the next thread through the lock (the timer thread is woken
    /// to be it). Settled before any other callback runs.
    deferred: VecDeque<Deferred>,
    /// Send routing (the observers' copy is `Shared::peers`).
    peers: HashMap<NodeId, Arc<Peer>>,
    /// Whether `on_start` has run.
    started: bool,
    /// The deadline the timer thread sleeps toward; zero while it is awake
    /// — nothing is earlier, so nobody pays to notify it.
    timer_sleeps_until: SimTime,
}

/// One callback's log records and the effects that must follow them.
struct Deferred {
    journal: Vec<WalOp>,
    effects: Vec<HostEffect>,
    at: SimTime,
}

/// What the endpoint's threads share.
struct Shared {
    id: NodeId,
    core: Mutex<Core>,
    /// Paired with `core`: the timer thread's bed.
    wake_timer: Condvar,
    /// Every dialed peer, for the paths that must not wait for the core.
    peers: Mutex<Vec<Arc<Peer>>>,
    shutdown: Arc<AtomicBool>,
    clock: WallClock,
    metrics: NetMetrics,
}

impl Shared {
    /// The core, or `None` once the endpoint has stopped: shut down, or
    /// poisoned by a callback that panicked under the lock. The first to
    /// come through runs the node's `on_start` — the timer thread as soon
    /// as it is spawned, unless a caller or a reader beats it there — so
    /// `bind` does not wait for it and no callback ever precedes it.
    fn running(&self) -> Option<MutexGuard<'_, Core>> {
        let mut core = self.core.lock().ok()?;
        if self.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if !std::mem::replace(&mut core.started, true) {
            let now = self.clock.now();
            let effects = core.host.start(now);
            self.apply(&mut core, effects, now);
            core.timers.schedule(now + SWEEP_INTERVAL, NetTimer::Sweep);
        }
        self.settle(&mut core);
        Some(core)
    }

    /// Finishes the local calls that were left half done, oldest first.
    fn settle(&self, core: &mut Core) {
        while let Some(Deferred { journal, effects, at }) = core.deferred.pop_front() {
            persist_wal(core, &journal);
            self.apply(core, effects, at);
        }
    }

    /// Every callback's effects pass through here, and only here, in three
    /// steps: the sends the node marked as depending on none of the
    /// callback's log records, then the WAL journal to the files, then
    /// every other effect. So nothing that depends on a record (an ack, a
    /// retransmission, a frame under a new epoch) precedes it on disk — the
    /// discipline the simulator's crash model enforces — and a send ahead
    /// never overtakes a plain one to the same peer (the host keeps such a
    /// send among the effects). Self-sends loop back before the lock is
    /// released, like the simulator's 1µs self-delivery beats any network
    /// hop.
    fn apply(&self, core: &mut Core, mut effects: Vec<HostEffect>, mut now: SimTime) {
        loop {
            for (to, payload) in core.host.take_sends_ahead() {
                self.send(core, to, payload);
            }
            let journal = core.host.storage_mut().take_wal_journal();
            persist_wal(core, &journal);
            for effect in effects {
                match effect {
                    HostEffect::Send { to, payload } => self.send(core, to, payload),
                    HostEffect::SetTimer { id, after } => {
                        let at = now + after;
                        core.timers.schedule(at, NetTimer::Node(id));
                        if at < core.timer_sleeps_until {
                            core.timer_sleeps_until = at;
                            self.wake_timer.notify_one();
                        }
                    }
                }
            }
            let Some(payload) = core.loopback.pop_front() else {
                return;
            };
            now = self.clock.now();
            effects = core.host.message(now, self.id, &payload);
        }
    }

    /// Routes one send: a self-send to the loopback queue, any other to its
    /// peer.
    fn send(&self, core: &mut Core, to: NodeId, payload: WireBytes) {
        if to == self.id {
            self.metrics.loopback.inc();
            core.loopback.push_back(payload);
        } else if let Some(peer) = core.peers.get(&to) {
            peer.push(payload);
        } else {
            self.metrics.queue_dropped.inc();
        }
    }

    fn peers(&self) -> MutexGuard<'_, Vec<Arc<Peer>>> {
        self.peers.lock().expect("peers poisoned")
    }
}

/// A live transport endpoint. Dropping it shuts the endpoint down and
/// joins its threads.
pub struct NetTransport {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    registry: Arc<Registry>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl NetTransport {
    /// Binds `config.listen` and starts the threads; the node's `on_start`
    /// runs before any other callback, without `bind` waiting for it.
    /// `registry` should be the same registry the node records into, so
    /// `net.*` and the stack's other counters share one snapshot; `health`,
    /// when given, receives the transport's periodic queue-depth sweeps.
    pub fn bind(
        config: NetConfig,
        node: Box<dyn Node>,
        registry: Arc<Registry>,
        health: Option<Arc<HealthMonitor>>,
    ) -> io::Result<NetTransport> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;

        // With a data directory, the host starts from the storage the file
        // backend reloaded (the node's own WAL replay then runs against it,
        // exactly like a post-crash recovery under the simulator), the WAL
        // journal is switched on so every mutation reaches the files, and
        // the sends that need not wait for them are held apart.
        let (host, wal) = match &config.data_dir {
            Some(dir) => {
                let (storage, wal) = FileWal::open(dir)?;
                let mut host = NodeHost::with_storage(config.id, node, config.seed, storage);
                host.storage_mut().enable_wal_journal();
                host.enable_sends_ahead();
                (host, Some(wal))
            }
            None => (NodeHost::new(config.id, node, config.seed), None),
        };
        let shared = Arc::new(Shared {
            id: config.id,
            core: Mutex::new(Core {
                host,
                wal,
                timers: TimerDriver::new(),
                loopback: VecDeque::new(),
                deferred: VecDeque::new(),
                peers: HashMap::new(),
                started: false,
                timer_sleeps_until: SimTime::ZERO,
            }),
            wake_timer: Condvar::new(),
            peers: Mutex::new(Vec::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            clock: WallClock::new(),
            metrics: NetMetrics::new(&registry),
        });
        let transport =
            NetTransport { local_addr, shared, registry, threads: Mutex::new(Vec::new()) };

        for peer in &config.peers {
            transport.add_peer(peer.id, &peer.addr);
        }

        let timer_thread = {
            let shared = Arc::clone(&transport.shared);
            let registry = Arc::clone(&transport.registry);
            std::thread::Builder::new()
                .name(format!("psc-net-timer-n{}", config.id.0))
                .spawn(move || timer_loop(&shared, &registry, health.as_deref()))?
        };
        let accept_thread = {
            let shared = Arc::clone(&transport.shared);
            std::thread::Builder::new()
                .name(format!("psc-net-accept-n{}", config.id.0))
                .spawn(move || accept_loop(listener, shared))?
        };
        transport
            .threads
            .lock()
            .expect("threads poisoned")
            .extend([timer_thread, accept_thread]);
        Ok(transport)
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.shared.id
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry this endpoint records into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Registers `id` at `addr` and starts dialing it. Used both at
    /// construction (static peer list) and by tests that bind ephemeral
    /// ports first and exchange addresses afterwards.
    pub fn add_peer(&self, id: NodeId, addr: &str) {
        let shared = &self.shared;
        let peer = Peer::new(
            id,
            addr.to_string(),
            shared.id,
            Arc::clone(&shared.shutdown),
            shared.metrics.clone(),
        );
        let writer = {
            let peer = Arc::clone(&peer);
            std::thread::Builder::new()
                .name(format!("psc-net-writer-n{}-to-n{}", shared.id.0, id.0))
                .spawn(move || peer.run_writer())
                .expect("spawn writer thread")
        };
        shared.peers().push(Arc::clone(&peer));
        // Not through `running()`: the configured peers must be routable
        // before `on_start` sends to them. A poisoned core routes nothing.
        if let Ok(mut core) = shared.core.lock() {
            core.peers.insert(id, peer);
        }
        self.threads.lock().expect("threads poisoned").push(writer);
    }

    /// Runs `f` against the hosted node on the calling thread, under the
    /// core lock, with a live `Ctx`, and returns its result. Queued effects
    /// (sends, timers) are applied as if a callback had produced them —
    /// this is how local API calls (publish, subscribe) enter the system —
    /// before this returns, unless `f` journaled log records: then only the
    /// sends ahead of them (a certified frame under an epoch already on
    /// disk) leave on this thread, the caller does not wait for the disk,
    /// and the log write and the effects behind it are finished by the
    /// timer thread. The node's own handlers run under the same lock, so
    /// calling this from inside one deadlocks.
    ///
    /// # Panics
    /// Once the endpoint has stopped — after `shutdown`, or after a
    /// callback panicked (fail-stop).
    pub fn act_sync<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) -> R + Send + 'static,
    ) -> R {
        let shared = &self.shared;
        let mut core = shared.running().expect("transport event loop stopped");
        let now = shared.clock.now();
        let mut result = None;
        let effects = core.host.act(now, |node, ctx| result = Some(f(node, ctx)));
        let journal = core.host.storage_mut().take_wal_journal();
        if journal.is_empty() {
            shared.apply(&mut core, effects, now);
        } else {
            for (to, payload) in core.host.take_sends_ahead() {
                shared.send(&mut core, to, payload);
            }
            core.deferred.push_back(Deferred { journal, effects, at: now });
            shared.wake_timer.notify_one();
        }
        result.expect("act closure ran")
    }

    /// Whether the writer to `id` currently holds a live connection.
    pub fn peer_connected(&self, id: NodeId) -> bool {
        self.shared.peers().iter().any(|p| p.id == id && p.is_connected())
    }

    /// Blocks until every dialed peer is connected or `timeout` elapses;
    /// returns whether they all are.
    pub fn wait_connected(&self, timeout: StdDuration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let peers = self.shared.peers().clone();
        peers.iter().all(|p| p.wait_connected(deadline))
    }

    /// Current outbound queue depths, `(peer label, depth)` per peer.
    pub fn queue_depths(&self) -> Vec<(String, u64)> {
        queue_depths(&self.shared.peers())
    }

    /// A deterministic snapshot of the endpoint's registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Stops all threads and waits for them. Idempotent; also run by
    /// `Drop`.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        if shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // First whoever is blocked on a peer — a backpressured sender
        // holds the core while it waits.
        for peer in shared.peers().iter() {
            peer.wake_all();
        }
        // The timer thread checks the flag under the core lock, so once the
        // lock has been ours it is either past a check that saw the flag or
        // already waiting for this notify. It leaves on the flag, so a
        // local call's log write it would have finished is finished here.
        // A poisoned lock is as good: the endpoint fail-stopped, and only
        // the passage matters.
        if let Ok(mut core) = shared.core.lock() {
            shared.settle(&mut core);
        }
        shared.wake_timer.notify_all();
        // The accept thread blocks in `accept()`; a throw-away connection
        // wakes it to see the flag, and it hangs up on the readers.
        let _ = TcpStream::connect(self.local_addr);
        let threads = std::mem::take(&mut *self.threads.lock().expect("threads poisoned"));
        for thread in threads {
            // A reader that panicked has been reported by the panic hook
            // and has already fail-stopped the endpoint.
            let _ = thread.join();
        }
    }
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inspect for NetTransport {
    fn inspect(&self) -> String {
        let mut report = ReportBuilder::new();
        report.section(format!("net endpoint n{}", self.shared.id.0));
        report.line(format!("listen={}", self.local_addr));
        let mut rows: Vec<(u64, bool, usize)> = self
            .shared
            .peers()
            .iter()
            .map(|p| (p.id.0, p.is_connected(), p.depth()))
            .collect();
        rows.sort();
        for (id, connected, depth) in rows {
            report.line(format!(
                "peer=n{id} state={} depth={depth}",
                if connected { "up" } else { "down" }
            ));
        }
        let snapshot = self.registry.snapshot();
        for name in [
            "net.msgs_sent",
            "net.sends_inline",
            "net.bytes_sent",
            "net.msgs_recv",
            "net.bytes_recv",
            "net.peer.reconnects",
            "net.peer.drop",
            "net.frames.corrupt",
            "net.queue.dropped",
        ] {
            report.line(format!("{name}={}", snapshot.counter(name)));
        }
        report.end();
        report.finish()
    }
}

fn queue_depths(peers: &[Arc<Peer>]) -> Vec<(String, u64)> {
    let mut depths: Vec<(String, u64)> =
        peers.iter().map(|p| (p.label.clone(), p.depth() as u64)).collect();
    depths.sort();
    depths
}

/// Writes the WAL mutations a callback journaled into real segment files
/// (the journal is empty unless there is a data directory). A write
/// failure is fail-stop: continuing would silently void the durability
/// contract, so the panic poisons the core.
fn persist_wal(core: &mut Core, journal: &[WalOp]) {
    if let Some(wal) = core.wal.as_mut().filter(|_| !journal.is_empty()) {
        wal.apply(journal).expect("WAL file write failed; refusing to run undurable");
    }
}

/// The timer thread: fires what is due, then sleeps toward the earliest
/// deadline until it passes or a callback arms an earlier one.
fn timer_loop(shared: &Shared, registry: &Registry, health: Option<&HealthMonitor>) {
    let Some(mut core) = shared.running() else {
        return;
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.settle(&mut core);
        let now = shared.clock.now();
        match core.timers.pop_due(now) {
            Some(NetTimer::Node(id)) => {
                if let Some(effects) = core.host.timer(now, id) {
                    shared.apply(&mut core, effects, now);
                }
            }
            Some(NetTimer::Sweep) => {
                let peers = shared.peers();
                for peer in peers.iter() {
                    peer.depth_gauge.set(peer.depth() as i64);
                }
                if let Some(health) = health {
                    health.sweep(now.as_micros(), &queue_depths(&peers), &registry.snapshot());
                }
                drop(peers);
                core.timers.schedule(now + SWEEP_INTERVAL, NetTimer::Sweep);
            }
            None => {
                // The sweep is always armed, so there is always a deadline.
                let deadline = core.timers.next_deadline().expect("sweep armed");
                core.timer_sleeps_until = deadline;
                let wait = StdDuration::from_micros((deadline - now).as_micros());
                let Ok((woken, _)) = shared.wake_timer.wait_timeout(core, wait) else {
                    return;
                };
                core = woken;
                core.timer_sleeps_until = SimTime::ZERO;
            }
        }
    }
}

/// Hangs up on exit, however the reader exits: the accept thread keeps a
/// second handle to the socket, so dropping this one would not.
struct HangUp(TcpStream);

impl Drop for HangUp {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Each reader with a handle to its socket: a reader blocks in `read`
    // with no timeout, and hanging up is what ends it at shutdown.
    let mut readers: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Checked before a reader exists, so `shutdown()`'s wake-up
        // connection is never counted as a dropped peer.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted.and_then(|(stream, _)| Ok((stream.try_clone()?, stream))) {
            Ok((stream, handle)) => {
                let shared = Arc::clone(&shared);
                if let Ok(reader) = std::thread::Builder::new()
                    .name("psc-net-reader".to_string())
                    .spawn(move || reader_loop(HangUp(stream), &shared))
                {
                    readers.push((reader, handle));
                }
            }
            // Transient (EMFILE, ECONNABORTED): back off, keep listening.
            Err(_) => std::thread::sleep(StdDuration::from_millis(5)),
        }
        readers.retain(|(reader, _)| !reader.is_finished());
    }
    for (reader, handle) in readers {
        let _ = handle.shutdown(Shutdown::Both);
        let _ = reader.join();
    }
}

/// One inbound connection: handshake, then frames until the peer goes
/// away, each run through the node on this thread. Every way a peer can
/// misbehave — EOF mid-frame, garbage instead of a hello, a corrupt CRC —
/// lands in the same place: count the event, close the socket, return.
/// Never panic, never spin.
fn reader_loop(stream: HangUp, shared: &Shared) {
    let metrics = &shared.metrics;
    let mut reassembler = FrameReassembler::new();
    let mut from: Option<NodeId> = None;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match (&stream.0).read(&mut buf) {
            // Our own shutdown hung up, not the peer.
            _ if shared.shutdown.load(Ordering::SeqCst) => return,
            Ok(n) if n > 0 => n,
            // Peer hung up (mid-frame leftovers make it a rude one) or
            // the connection broke; either way it is simply over.
            Ok(_) | Err(_) => {
                metrics.peer_drop.inc();
                return;
            }
        };
        reassembler.extend(&buf[..n]);
        loop {
            match reassembler.next_frame() {
                Ok(Some(frame)) => match from {
                    None => match parse_hello(&frame) {
                        Some(id) => from = Some(id),
                        None => {
                            // Not our protocol: drop the connection.
                            metrics.frames_corrupt.inc();
                            metrics.peer_drop.inc();
                            return;
                        }
                    },
                    Some(from) => {
                        metrics.msgs_recv.inc();
                        metrics.bytes_recv.add(frame.len() as u64);
                        let Some(mut core) = shared.running() else {
                            return;
                        };
                        let now = shared.clock.now();
                        let effects = core.host.message(now, from, &frame);
                        shared.apply(&mut core, effects, now);
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    // Stream lost sync (bit rot or a malicious peer):
                    // nothing after this point can be trusted.
                    metrics.frames_corrupt.inc();
                    metrics.peer_drop.inc();
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    #[test]
    fn hello_roundtrip() {
        let payload = hello_payload(NodeId(42));
        assert_eq!(parse_hello(&payload), Some(NodeId(42)));
        assert_eq!(parse_hello(b"nonsense"), None);
        let mut wrong_version = payload.clone();
        wrong_version[4] = 9;
        assert_eq!(parse_hello(&wrong_version), None);
        let mut wrong_magic = payload;
        wrong_magic[0] = b'X';
        assert_eq!(parse_hello(&wrong_magic), None);
    }

    /// One callback that writes a log record and sends `a1` plain, `a2`
    /// ahead to node 1, then `b1` ahead and `b2` plain to node 2.
    fn script(ctx: &mut Ctx<'_>) {
        ctx.storage().wal_bind("t/", "t");
        ctx.storage().put_raw("t/x", vec![7]);
        ctx.send(NodeId(1), b"a1".to_vec());
        ctx.send_ahead(NodeId(1), b"a2".to_vec());
        ctx.send_ahead(NodeId(2), b"b1".to_vec());
        ctx.send(NodeId(2), b"b2".to_vec());
        ctx.storage().wal_commit();
    }

    /// Runs [`script`] when its timer fires.
    struct OnTimer;

    impl Node for OnTimer {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: &[u8]) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId) {
            script(ctx);
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Runs [`script`] as a local call (the caller sends ahead, the timer
    /// thread writes the log), or from a timer (one thread applies all).
    fn run_script(transport: &NetTransport, local_call: bool) {
        if local_call {
            transport.act_sync(|_, ctx| script(ctx));
        } else {
            transport.act_sync(|_, ctx| {
                ctx.set_timer(Duration::from_millis(1));
            });
        }
    }

    /// The far end of a transport's connection to a peer, read raw.
    struct RawPeer {
        stream: TcpStream,
        frames: FrameReassembler,
    }

    impl RawPeer {
        /// Accepts the transport's connection and checks its hello.
        fn accept(listener: &TcpListener, from: NodeId) -> RawPeer {
            let (stream, _) = listener.accept().expect("the transport dials");
            let mut peer = RawPeer { stream, frames: FrameReassembler::new() };
            let hello = peer.next(StdDuration::from_secs(10)).expect("a hello");
            assert_eq!(parse_hello(&hello), Some(from));
            peer
        }

        /// The next frame, or `None` if none arrives within `wait`.
        fn next(&mut self, wait: StdDuration) -> Option<Vec<u8>> {
            let deadline = Instant::now() + wait;
            loop {
                if let Some(frame) = self.frames.next_frame().expect("clean frames") {
                    return Some(frame);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return None;
                }
                self.stream.set_read_timeout(Some(left)).expect("read timeout");
                let mut buf = [0u8; 4096];
                match self.stream.read(&mut buf) {
                    Ok(n) if n > 0 => self.frames.extend(&buf[..n]),
                    _ => return None,
                }
            }
        }
    }

    /// A transport with a data directory hosting [`OnTimer`], connected to
    /// two raw peers (nodes 1 and 2).
    fn endpoint(dir: &std::path::Path) -> (NetTransport, RawPeer, RawPeer) {
        let mut config = NetConfig::new(NodeId(0), "127.0.0.1:0");
        config.data_dir = Some(dir.to_path_buf());
        let registry = Arc::new(Registry::new());
        let transport = NetTransport::bind(config, Box::new(OnTimer), registry, None).expect("bind");
        let listeners: Vec<TcpListener> =
            (0..2).map(|_| TcpListener::bind("127.0.0.1:0").expect("listen")).collect();
        for (i, listener) in listeners.iter().enumerate() {
            let addr = listener.local_addr().expect("addr").to_string();
            transport.add_peer(NodeId(i as u64 + 1), &addr);
        }
        let a = RawPeer::accept(&listeners[0], NodeId(0));
        let b = RawPeer::accept(&listeners[1], NodeId(0));
        assert!(transport.wait_connected(StdDuration::from_secs(10)));
        (transport, a, b)
    }

    fn data_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("psc-net-ahead-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("data dir");
        dir
    }

    const WAIT: StdDuration = StdDuration::from_secs(10);

    /// Per peer, the sends arrive in the order the callback made them, and
    /// a plain send leaves only after the callback's record is on disk.
    #[test]
    fn plain_sends_follow_the_log_record_and_keep_per_peer_order() {
        for local_call in [true, false] {
            let dir = data_dir(&format!("ok-{local_call}"));
            let (transport, mut a, mut b) = endpoint(&dir);
            run_script(&transport, local_call);
            assert_eq!(b.next(WAIT).as_deref(), Some(&b"b1"[..]));
            assert_eq!(b.next(WAIT).as_deref(), Some(&b"b2"[..]));
            assert_eq!(a.next(WAIT).as_deref(), Some(&b"a1"[..]));
            assert_eq!(a.next(WAIT).as_deref(), Some(&b"a2"[..]));
            // `b2` left after the log write: the record is in the files.
            let (mut storage, _) = FileWal::open(&dir).expect("reopen");
            storage.wal_recover();
            assert_eq!(storage.get_raw("t/x"), Some(&[7u8][..]));
            transport.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The order of `apply`, made visible by a log write that cannot
    /// succeed (the log's directory name is taken by a file): the send
    /// ahead left before it, and nothing behind it ever leaves — not the
    /// plain sends, and not `a2`, which was marked ahead but follows a
    /// plain send to the same peer. The endpoint fail-stops.
    #[test]
    fn a_failed_log_write_stops_everything_but_the_sends_ahead_of_it() {
        for local_call in [true, false] {
            let dir = data_dir(&format!("fail-{local_call}"));
            std::fs::write(dir.join("t"), b"not a directory").expect("obstruct the log");
            let (transport, mut a, mut b) = endpoint(&dir);
            run_script(&transport, local_call);
            assert_eq!(b.next(WAIT).as_deref(), Some(&b"b1"[..]), "the send ahead left");
            let deadline = Instant::now() + WAIT;
            while !transport.shared.core.is_poisoned() {
                assert!(Instant::now() < deadline, "the log write must fail-stop the endpoint");
                std::thread::sleep(StdDuration::from_millis(5));
            }
            // Poisoned inside the log write: no later effect was applied.
            let quiet = StdDuration::from_millis(200);
            assert_eq!(b.next(quiet), None, "b2 waits for the log");
            assert_eq!(a.next(quiet), None, "a1 waits for the log, and a2 for a1");
            transport.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
