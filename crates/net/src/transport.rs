//! The transport endpoint: sockets in, sans-io node in the middle,
//! sockets out.
//!
//! One [`NetTransport`] hosts one [`Node`] (in practice a
//! `psc_dace::DaceNode`) and owns all the threads around it:
//!
//! - an **event loop** thread that exclusively owns the
//!   [`NodeHost`] — every callback (message, timer, local API injection)
//!   runs here, so node code stays single-threaded exactly as it is under
//!   the simulator, and effects are applied in queue order;
//! - an **accept** thread plus one **reader** thread per inbound
//!   connection, reassembling CRC frames and funnelling them into the
//!   event loop;
//! - one **writer** thread per dialed peer (see [`crate::peer`]).
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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use psc_codec::frame::FrameReassembler;
use psc_codec::WireBytes;
use psc_simnet::{Ctx, Duration, HostEffect, Node, NodeHost, NodeId, SimTime, TimerId};
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
/// Socket read timeout: bounds how long a reader thread can ignore the
/// shutdown flag.
const READ_TIMEOUT: StdDuration = StdDuration::from_millis(50);
/// Event-loop wait when no timer is pending.
const IDLE_TICK: StdDuration = StdDuration::from_millis(100);
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

/// Timer tokens on the event loop's wall-clock heap: the hosted node's
/// own timers plus the transport's maintenance tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NetTimer {
    /// A `Ctx::set_timer` timer of the hosted node.
    Node(TimerId),
    /// The periodic queue-depth / health sweep.
    Sweep,
}

type ActFn = Box<dyn FnOnce(&mut NodeHost, SimTime) -> Vec<HostEffect> + Send>;

enum Event {
    /// A verified frame from a connected peer.
    Incoming { from: NodeId, payload: Vec<u8> },
    /// A local API injection (publish, subscribe, introspection).
    Act(ActFn),
    /// Stop the loop.
    Shutdown,
}

/// A live transport endpoint. Dropping it shuts the endpoint down and
/// joins its threads.
pub struct NetTransport {
    id: NodeId,
    local_addr: SocketAddr,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    peers: Arc<Mutex<HashMap<NodeId, Arc<Peer>>>>,
    registry: Arc<Registry>,
    metrics: NetMetrics,
    config: NetConfig,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl NetTransport {
    /// Binds `config.listen`, starts all threads, and runs the node's
    /// `on_start` on the event loop. `registry` should be the same
    /// registry the node records into, so `net.*` and the stack's other
    /// counters share one snapshot; `health`, when given, receives the
    /// transport's periodic queue-depth sweeps.
    pub fn bind(
        config: NetConfig,
        node: Box<dyn Node>,
        registry: Arc<Registry>,
        health: Option<Arc<HealthMonitor>>,
    ) -> io::Result<NetTransport> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;

        let metrics = NetMetrics::new(&registry);
        let shutdown = Arc::new(AtomicBool::new(false));
        let peers: Arc<Mutex<HashMap<NodeId, Arc<Peer>>>> = Arc::new(Mutex::new(HashMap::new()));
        let (events, events_rx) = unbounded();

        let transport = NetTransport {
            id: config.id,
            local_addr,
            events,
            shutdown,
            peers,
            registry,
            metrics,
            config,
            threads: Mutex::new(Vec::new()),
        };

        for peer in transport.config.peers.clone() {
            transport.add_peer(peer.id, &peer.addr);
        }

        // With a data directory, the host starts from the storage the file
        // backend reloaded (the node's own WAL replay then runs against it,
        // exactly like a post-crash recovery under the simulator) and the
        // WAL journal is switched on so every mutation reaches the files.
        let (host, file_wal) = match &transport.config.data_dir {
            Some(dir) => {
                let (storage, wal) = FileWal::open(dir)?;
                let mut host =
                    NodeHost::with_storage(transport.id, node, transport.config.seed, storage);
                host.storage_mut().enable_wal_journal();
                (host, Some(wal))
            }
            None => (NodeHost::new(transport.id, node, transport.config.seed), None),
        };
        let loop_thread = {
            let shutdown = Arc::clone(&transport.shutdown);
            let peers = Arc::clone(&transport.peers);
            let metrics = transport.metrics.clone();
            let registry = Arc::clone(&transport.registry);
            std::thread::Builder::new()
                .name(format!("psc-net-loop-n{}", transport.id.0))
                .spawn(move || {
                    event_loop(
                        host, file_wal, events_rx, shutdown, peers, metrics, registry, health,
                    )
                })?
        };
        let accept_thread = {
            let shutdown = Arc::clone(&transport.shutdown);
            let events = transport.events.clone();
            let metrics = transport.metrics.clone();
            std::thread::Builder::new()
                .name(format!("psc-net-accept-n{}", transport.id.0))
                .spawn(move || accept_loop(listener, events, shutdown, metrics))?
        };
        {
            let mut threads = transport.threads.lock().expect("threads poisoned");
            threads.push(loop_thread);
            threads.push(accept_thread);
        }
        Ok(transport)
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
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
        let peer = Peer::new(
            id,
            addr.to_string(),
            self.id,
            Arc::clone(&self.shutdown),
            self.metrics.clone(),
        );
        let writer = {
            let peer = Arc::clone(&peer);
            std::thread::Builder::new()
                .name(format!("psc-net-writer-n{}-to-n{}", self.id.0, id.0))
                .spawn(move || peer.run_writer())
                .expect("spawn writer thread")
        };
        self.peers.lock().expect("peers poisoned").insert(id, peer);
        self.threads.lock().expect("threads poisoned").push(writer);
    }

    /// Runs `f` against the hosted node on the event loop, with a live
    /// `Ctx`, and returns its result. Queued effects (sends, timers) are
    /// applied as if a callback had produced them — this is how local API
    /// calls (publish, subscribe) enter the system.
    pub fn act_sync<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let sent = self.events.send(Event::Act(Box::new(move |host, now| {
            let mut result = None;
            let effects = host.act(now, |node, ctx| {
                result = Some(f(node, ctx));
            });
            let _ = tx.send(result.expect("act closure ran"));
            effects
        })));
        assert!(sent.is_ok(), "transport event loop stopped");
        rx.recv().expect("transport event loop stopped")
    }

    /// Whether the writer to `id` currently holds a live connection.
    pub fn peer_connected(&self, id: NodeId) -> bool {
        self.peers
            .lock()
            .expect("peers poisoned")
            .get(&id)
            .is_some_and(|p| p.is_connected())
    }

    /// Blocks until every dialed peer is connected or `timeout` elapses;
    /// returns whether they all are.
    pub fn wait_connected(&self, timeout: StdDuration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let peers: Vec<Arc<Peer>> =
            self.peers.lock().expect("peers poisoned").values().cloned().collect();
        peers.iter().all(|p| p.wait_connected(deadline))
    }

    /// Current outbound queue depths, `(peer label, depth)` per peer.
    pub fn queue_depths(&self) -> Vec<(String, u64)> {
        let peers = self.peers.lock().expect("peers poisoned");
        let mut depths: Vec<(String, u64)> = peers
            .values()
            .map(|p| (format!("net.outbound.n{}", p.id.0), p.depth() as u64))
            .collect();
        depths.sort();
        depths
    }

    /// A deterministic snapshot of the endpoint's registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Stops all threads and waits for them. Idempotent; also run by
    /// `Drop`.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.events.send(Event::Shutdown);
        for peer in self.peers.lock().expect("peers poisoned").values() {
            peer.wake_all();
        }
        // The accept thread blocks in `accept()`; a throw-away connection
        // wakes it to see the flag.
        let _ = TcpStream::connect(self.local_addr);
        let threads = std::mem::take(&mut *self.threads.lock().expect("threads poisoned"));
        for thread in threads {
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
        report.section(format!("net endpoint n{}", self.id.0));
        report.line(format!("listen={}", self.local_addr));
        let peers = self.peers.lock().expect("peers poisoned");
        let mut rows: Vec<(u64, bool, usize)> =
            peers.values().map(|p| (p.id.0, p.is_connected(), p.depth())).collect();
        drop(peers);
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

/// Drains the WAL mutations a callback journaled into real segment files.
/// A write failure is fail-stop: continuing would silently void the
/// durability contract.
fn persist_wal(host: &mut NodeHost, wal: &mut Option<FileWal>) {
    if let Some(wal) = wal {
        let ops = host.storage_mut().take_wal_journal();
        if !ops.is_empty() {
            wal.apply(&ops).expect("WAL file write failed; refusing to run undurable");
        }
    }
}

/// The single thread that owns the hosted node.
#[allow(clippy::too_many_arguments)]
fn event_loop(
    mut host: NodeHost,
    mut file_wal: Option<FileWal>,
    events: Receiver<Event>,
    shutdown: Arc<AtomicBool>,
    peers: Arc<Mutex<HashMap<NodeId, Arc<Peer>>>>,
    metrics: NetMetrics,
    registry: Arc<Registry>,
    health: Option<Arc<HealthMonitor>>,
) {
    let clock = WallClock::new();
    let self_id = host.id();
    let mut timers: TimerDriver<NetTimer> = TimerDriver::new();
    let mut loopback: VecDeque<WireBytes> = VecDeque::new();

    // Every callback's effects pass through here, and only here: the WAL
    // journal reaches the files *before* any effect of that callback is
    // applied, so nothing observable (a send, an ack) ever precedes its log
    // record on disk — the same discipline the simulator's crash model
    // enforces.
    let mut apply = |host: &mut NodeHost,
                     effects: Vec<HostEffect>,
                     now: SimTime,
                     timers: &mut TimerDriver<NetTimer>,
                     loopback: &mut VecDeque<WireBytes>| {
        persist_wal(host, &mut file_wal);
        for effect in effects {
            match effect {
                HostEffect::Send { to, payload } => {
                    if to == self_id {
                        metrics.loopback.inc();
                        loopback.push_back(payload);
                    } else if let Some(peer) =
                        peers.lock().expect("peers poisoned").get(&to).cloned()
                    {
                        peer.push(payload);
                    } else {
                        metrics.queue_dropped.inc();
                    }
                }
                HostEffect::SetTimer { id, after } => {
                    timers.schedule(now + after, NetTimer::Node(id));
                }
            }
        }
    };

    let now = clock.now();
    let effects = host.start(now);
    apply(&mut host, effects, now, &mut timers, &mut loopback);
    timers.schedule(now + SWEEP_INTERVAL, NetTimer::Sweep);

    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }

        // Self-sends loop back ahead of socket traffic, like the
        // simulator's 1µs self-delivery beats any network hop.
        while let Some(payload) = loopback.pop_front() {
            let now = clock.now();
            let effects = host.message(now, self_id, &payload);
            apply(&mut host, effects, now, &mut timers, &mut loopback);
        }

        // Fire everything due.
        let now = clock.now();
        if let Some(timer) = timers.pop_due(now) {
            match timer {
                NetTimer::Node(id) => {
                    if let Some(effects) = host.timer(now, id) {
                        apply(&mut host, effects, now, &mut timers, &mut loopback);
                    }
                }
                NetTimer::Sweep => {
                    let depths: Vec<(String, u64)> = {
                        let peers = peers.lock().expect("peers poisoned");
                        let mut depths: Vec<(String, u64)> = peers
                            .values()
                            .map(|p| (format!("net.outbound.n{}", p.id.0), p.depth() as u64))
                            .collect();
                        depths.sort();
                        depths
                    };
                    for (name, depth) in &depths {
                        registry.gauge(&format!("{name}.depth")).set(*depth as i64);
                    }
                    if let Some(health) = &health {
                        health.sweep(now.as_micros(), &depths, &registry.snapshot());
                    }
                    timers.schedule(now + SWEEP_INTERVAL, NetTimer::Sweep);
                }
            }
            continue;
        }

        // Sleep until the next deadline or the next event.
        let wait = match timers.next_deadline() {
            Some(deadline) if deadline <= now => continue,
            Some(deadline) => StdDuration::from_micros((deadline - now).as_micros()),
            None => IDLE_TICK,
        };
        match events.recv_timeout(wait) {
            Ok(Event::Incoming { from, payload }) => {
                let now = clock.now();
                let effects = host.message(now, from, &payload);
                apply(&mut host, effects, now, &mut timers, &mut loopback);
            }
            Ok(Event::Act(f)) => {
                let now = clock.now();
                let effects = f(&mut host, now);
                apply(&mut host, effects, now, &mut timers, &mut loopback);
            }
            Ok(Event::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    metrics: NetMetrics,
) {
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Checked before a reader exists, so `shutdown()`'s wake-up
        // connection is never counted as a dropped peer.
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let events = events.clone();
                let shutdown = Arc::clone(&shutdown);
                let metrics = metrics.clone();
                if let Ok(handle) = std::thread::Builder::new()
                    .name("psc-net-reader".to_string())
                    .spawn(move || reader_loop(stream, events, shutdown, metrics))
                {
                    readers.push(handle);
                }
            }
            // Transient (EMFILE, ECONNABORTED): back off, keep listening.
            Err(_) => std::thread::sleep(StdDuration::from_millis(5)),
        }
        readers.retain(|h| !h.is_finished());
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// One inbound connection: handshake, then frames until the peer goes
/// away. Every way a peer can misbehave — EOF mid-frame, garbage instead
/// of a hello, a corrupt CRC — lands in the same place: count the event,
/// close the socket, return. Never panic, never spin.
fn reader_loop(
    stream: TcpStream,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    metrics: NetMetrics,
) {
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reassembler = FrameReassembler::new();
    let mut from: Option<NodeId> = None;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                // Peer hung up; mid-frame leftovers make it a rude one,
                // but either way the connection is simply over.
                metrics.peer_drop.inc();
                return;
            }
            Ok(n) => n,
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
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
                        if events.send(Event::Incoming { from, payload: frame }).is_err() {
                            return;
                        }
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
}
