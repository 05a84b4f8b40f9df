//! Whoever has the work runs the node — and only one of them at a time.
//!
//! The transport has no event-loop thread: callers of `act_sync`, reader
//! threads and the timer thread each run the hosted node themselves, under
//! one lock. These tests pin what that design owes its users: callbacks
//! never overlap, per-peer order survives, a timer armed from any thread
//! reaches a timer thread that is asleep toward a later deadline, and a
//! panic under the lock stops the endpoint instead of hanging it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration as StdDuration, Instant};

use psc_dace::DaceConfig;
use psc_harness::stack::FuzzBase;
use psc_net::{DaceEndpoint, NetConfig, NetTransport};
use psc_simnet::{Ctx, Duration, Node, NodeId, TimerId};
use psc_telemetry::Registry;
use pubsub_core::FilterSpec;

fn bind(id: u64, node: impl Node + 'static) -> NetTransport {
    NetTransport::bind(
        NetConfig::new(NodeId(id), "127.0.0.1:0"),
        Box::new(node),
        Arc::new(Registry::new()),
        None,
    )
    .expect("bind")
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

struct NullNode;

impl Node for NullNode {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: &[u8]) {}
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[derive(Default)]
struct Seen {
    inside: AtomicBool,
    overlaps: AtomicU64,
    out_of_order: AtomicU64,
    messages: AtomicU64,
    ticks: AtomicU64,
    acts: AtomicU64,
}

/// Flags every callback that starts while another is still running, and
/// every message that overtakes an earlier one from the same peer.
struct Exclusive {
    seen: Arc<Seen>,
    next_seq: HashMap<NodeId, u64>,
}

impl Exclusive {
    fn enter(&self) {
        if self.seen.inside.swap(true, Ordering::SeqCst) {
            self.seen.overlaps.fetch_add(1, Ordering::SeqCst);
        }
        // Stay inside long enough for another thread to walk in, if it can.
        std::thread::yield_now();
    }

    fn leave(&self) {
        self.seen.inside.store(false, Ordering::SeqCst);
    }
}

impl Node for Exclusive {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_millis(1));
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        self.enter();
        let seq = u64::from_le_bytes(payload.try_into().expect("8-byte sequence number"));
        let next = self.next_seq.entry(from).or_default();
        if seq != *next {
            self.seen.out_of_order.fetch_add(1, Ordering::SeqCst);
        }
        *next = seq + 1;
        self.seen.messages.fetch_add(1, Ordering::SeqCst);
        self.leave();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId) {
        self.enter();
        self.seen.ticks.fetch_add(1, Ordering::SeqCst);
        ctx.set_timer(Duration::from_millis(1));
        self.leave();
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Four local callers, two sending peers and a 1 ms timer all want the
/// node at once. It is entered one at a time, each peer's frames arrive in
/// the order they were sent (self-sends included), and nothing is lost.
#[test]
fn callers_readers_and_timers_take_turns() {
    const CALLERS: u64 = 4;
    const PER_THREAD: u64 = 2_000;

    let seen = Arc::new(Seen::default());
    let hub = bind(0, Exclusive { seen: Arc::clone(&seen), next_seq: HashMap::new() });
    let hub_addr = hub.local_addr().to_string();
    let senders: Vec<NetTransport> = (1..=2)
        .map(|id| {
            let sender = bind(id, NullNode);
            sender.add_peer(NodeId(0), &hub_addr);
            assert!(sender.wait_connected(StdDuration::from_secs(10)));
            sender
        })
        .collect();

    let barrier = &Barrier::new(CALLERS as usize + senders.len());
    // Callers number their self-sends from one shared sequence, taken
    // under the core lock, so "in order" is well defined for node 0 too.
    let self_seq = &Arc::new(AtomicU64::new(0));
    let hub = &hub;
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..PER_THREAD {
                    let self_seq = Arc::clone(self_seq);
                    hub.act_sync(move |node, ctx| {
                        let node = node.as_any_mut().downcast_mut::<Exclusive>().expect("hub");
                        node.enter();
                        let seq = self_seq.fetch_add(1, Ordering::SeqCst);
                        ctx.send(NodeId(0), seq.to_le_bytes().to_vec());
                        node.seen.acts.fetch_add(1, Ordering::SeqCst);
                        node.leave();
                    });
                }
            });
        }
        for sender in &senders {
            scope.spawn(move || {
                barrier.wait();
                for seq in 0..PER_THREAD {
                    sender.act_sync(move |_node, ctx| {
                        ctx.send(NodeId(0), seq.to_le_bytes().to_vec());
                    });
                }
            });
        }
    });

    let expected = (CALLERS + senders.len() as u64) * PER_THREAD;
    wait_until("every message", || seen.messages.load(Ordering::SeqCst) == expected);
    wait_until("timer ticks", || seen.ticks.load(Ordering::SeqCst) >= 5);
    assert_eq!(seen.acts.load(Ordering::SeqCst), CALLERS * PER_THREAD);
    assert_eq!(seen.overlaps.load(Ordering::SeqCst), 0, "a callback started inside another");
    assert_eq!(seen.out_of_order.load(Ordering::SeqCst), 0, "a peer's frames were reordered");
    for sender in &senders {
        sender.shutdown();
    }
    hub.shutdown();
}

/// Reports when each of its timers fires.
struct Alarm(mpsc::Sender<Instant>);

impl Node for Alarm {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: &[u8]) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId) {
        let _ = self.0.send(Instant::now());
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The timer thread sleeps toward the transport's 100 ms sweep; a 1 ms
/// timer armed from a caller's thread must cut that sleep short. Were the
/// timer thread never notified, a timer would wait for the next sweep — a
/// delay uniform over 0–100 ms, median ≈ 50 ms — so the median over
/// several rounds tells the two apart without trusting any single wake-up.
#[test]
fn a_timer_armed_from_act_sync_wakes_the_sleeping_timer_thread() {
    let (fired_tx, fired) = mpsc::channel();
    let transport = bind(0, Alarm(fired_tx));
    let mut delays: Vec<StdDuration> = (0..9)
        .map(|round| {
            // Spread the rounds over the sweep period.
            std::thread::sleep(StdDuration::from_millis(7 * round));
            let armed = Instant::now();
            transport.act_sync(|_node, ctx| {
                ctx.set_timer(Duration::from_millis(1));
            });
            let at = fired.recv_timeout(StdDuration::from_secs(5)).expect("timer fired");
            at.duration_since(armed)
        })
        .collect();
    delays.sort();
    assert!(delays[0] >= StdDuration::from_millis(1), "fired early: {delays:?}");
    assert!(delays[4] < StdDuration::from_millis(20), "timer thread overslept: {delays:?}");
    transport.shutdown();
}

/// Reports each 8-byte sequence number it is sent, and when.
struct Stamp(mpsc::Sender<(u64, Instant)>);

impl Node for Stamp {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, payload: &[u8]) {
        let seq = u64::from_le_bytes(payload.try_into().expect("8-byte sequence number"));
        let _ = self.0.send((seq, Instant::now()));
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A local call whose callback journals log records does not wait for the
/// disk: the log write and the sends behind it are finished by the timer
/// thread, woken for it — promptly, before anything a later call sends,
/// and never a send before its record is in the file.
#[test]
fn a_local_call_that_logs_leaves_the_disk_to_the_timer_thread() {
    let dir = std::env::temp_dir().join(format!("psc-net-deferred-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (seen_tx, seen) = mpsc::channel();
    let receiver = bind(1, Stamp(seen_tx));
    let mut config = NetConfig::new(NodeId(0), "127.0.0.1:0");
    config.data_dir = Some(dir.clone());
    let sender = NetTransport::bind(config, Box::new(NullNode), Arc::new(Registry::new()), None)
        .expect("bind");
    sender.add_peer(NodeId(1), &receiver.local_addr().to_string());
    assert!(sender.wait_connected(StdDuration::from_secs(10)));

    let logged_send = |seq: u64| {
        sender.act_sync(move |_node, ctx| {
            ctx.storage().wal_append("log", &seq.to_le_bytes());
            ctx.storage().wal_sync("log");
            ctx.send(NodeId(1), seq.to_le_bytes().to_vec());
        })
    };
    let on_disk = || std::fs::metadata(dir.join("log").join("00000000.wal")).map_or(0, |m| m.len());
    let next = || seen.recv_timeout(StdDuration::from_secs(5)).expect("frame arrived");

    // Alone, spread over the sweep period: were the timer thread not woken,
    // the send would wait for the next sweep (median ≈ 50 ms).
    let mut delays = Vec::new();
    for seq in 0..9 {
        std::thread::sleep(StdDuration::from_millis(7 * seq));
        let called = Instant::now();
        logged_send(seq);
        let (got, at) = next();
        assert_eq!(got, seq);
        assert!(on_disk() >= (seq + 1) * 16, "frame {seq} left before its record was written");
        delays.push(at.duration_since(called));
    }
    delays.sort();
    assert!(delays[4] < StdDuration::from_millis(20), "nobody finished the call: {delays:?}");

    // Back to back with calls that log nothing and so apply at once: those
    // must not overtake the logged call before them.
    for seq in 9..209 {
        if seq % 2 == 1 {
            logged_send(seq);
        } else {
            sender.act_sync(move |_node, ctx| ctx.send(NodeId(1), seq.to_le_bytes().to_vec()));
        }
    }
    let order: Vec<u64> = (9..209).map(|_| next().0).collect();
    assert_eq!(order, (9..209).collect::<Vec<_>>());

    sender.shutdown();
    receiver.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A handler that panics takes the lock it ran under with it. The
/// endpoint must fail-stop: local calls panic with the transport's own
/// message, dropping it returns promptly with every thread joined, and its
/// peer sees one ordinary connection drop.
#[test]
fn a_panicking_handler_fail_stops_the_endpoint() {
    let ids = vec![NodeId(0), NodeId(1)];
    let start = |id: NodeId| {
        let mut net = NetConfig::new(id, "127.0.0.1:0");
        net.seed = id.0;
        DaceEndpoint::start(net, ids.clone(), DaceConfig::default()).expect("bind endpoint")
    };
    let (victim, peer) = (start(NodeId(0)), start(NodeId(1)));
    victim.transport().add_peer(NodeId(1), &peer.local_addr().to_string());
    peer.transport().add_peer(NodeId(0), &victim.local_addr().to_string());
    assert!(victim.wait_connected(StdDuration::from_secs(10)));
    assert!(peer.wait_connected(StdDuration::from_secs(10)));

    victim.with_domain(|domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), |_: FuzzBase| {
            panic!("handler refuses its first obvent");
        });
        sub.activate().expect("activate");
        sub.detach();
    });

    // Publish until the subscription has reached the peer and an obvent
    // has reached the handler; from then on the victim refuses local calls.
    let deadline = Instant::now() + StdDuration::from_secs(20);
    let refusal = loop {
        assert!(Instant::now() < deadline, "the handler never ran");
        peer.with_domain(|domain| {
            domain.publish(FuzzBase::new(1, 1)).expect("publish");
        });
        std::thread::sleep(StdDuration::from_millis(10));
        if let Err(refusal) = catch_unwind(AssertUnwindSafe(|| victim.with_domain(|_| ()))) {
            break refusal;
        }
    };
    let message = refusal.downcast_ref::<String>().map(String::as_str);
    let message = message.or_else(|| refusal.downcast_ref::<&str>().copied());
    assert_eq!(message, Some("transport event loop stopped"));

    assert_eq!(peer.metrics().counter("net.peer.drop"), 0);
    let dropping = Instant::now();
    drop(victim);
    assert!(dropping.elapsed() < StdDuration::from_secs(1), "drop hung: {:?}", dropping.elapsed());
    wait_until("the peer's reader to see the hang-up", || {
        peer.metrics().counter("net.peer.drop") == 1
    });
    peer.shutdown();
}
