//! The real wire against the oracle: harness-generated scenarios replayed
//! over loopback TCP clusters, compared with the simulator's run of the
//! same scenario — plus regression tests for the transport's failure
//! handling (rude peers, reconnects).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use psc_dace::DaceConfig;
use psc_harness::stack::{
    run_stack, FilterKind, FuzzBase, FuzzLeaf, FuzzMid, FuzzSide, Level, StackScenario,
};
use psc_net::{DaceEndpoint, NetConfig, NetTransport};
use psc_obvent::builtin::Prioritary;
use psc_obvent::declare_obvent_model;
use psc_simnet::{Node, NodeId};
use psc_telemetry::{Inspect, Registry};
use pubsub_core::FilterSpec;

type Sink = Arc<Mutex<Vec<u64>>>;

declare_obvent_model! {
    pub class UrgentTick implements [Prioritary] { n: u64, priority: i32 }
}

/// Starts `n` endpoints on ephemeral loopback ports, fully meshed.
fn start_cluster(n: usize, dace: DaceConfig) -> Vec<DaceEndpoint> {
    let ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
    let endpoints: Vec<DaceEndpoint> = ids
        .iter()
        .map(|&id| {
            let mut net = NetConfig::new(id, "127.0.0.1:0");
            net.seed = id.0;
            DaceEndpoint::start(net, ids.clone(), dace.clone()).expect("bind endpoint")
        })
        .collect();
    let addrs: Vec<String> = endpoints.iter().map(|e| e.local_addr().to_string()).collect();
    for endpoint in &endpoints {
        for (&id, addr) in ids.iter().zip(&addrs) {
            if id != endpoint.id() {
                endpoint.transport().add_peer(id, addr);
            }
        }
    }
    for endpoint in &endpoints {
        assert!(
            endpoint.wait_connected(StdDuration::from_secs(10)),
            "cluster failed to mesh"
        );
    }
    endpoints
}

fn install(endpoint: &DaceEndpoint, level: Level, filter: FilterKind) -> Sink {
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&sink);
    endpoint.with_domain(move |domain| {
        let sub = match level {
            Level::Base => domain.subscribe(filter.spec(), move |e: FuzzBase| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Mid => domain.subscribe(filter.spec(), move |e: FuzzMid| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Leaf => domain.subscribe(filter.spec(), move |e: FuzzLeaf| {
                recorder.lock().unwrap().push(*e.tag());
            }),
            Level::Side => domain.subscribe(filter.spec(), move |e: FuzzSide| {
                recorder.lock().unwrap().push(*e.tag());
            }),
        };
        sub.activate().expect("activate");
        sub.detach();
    });
    sink
}

fn publish(endpoint: &DaceEndpoint, level: Level, tag: u64, value: i64) {
    let base = FuzzBase::new(tag, value);
    endpoint.with_domain(move |domain| {
        match level {
            Level::Base => domain.publish(base).expect("publish"),
            Level::Mid => domain.publish(FuzzMid::new(base)).expect("publish"),
            Level::Leaf => domain.publish(FuzzLeaf::new(FuzzMid::new(base))).expect("publish"),
            Level::Side => domain.publish(FuzzSide::new(base)).expect("publish"),
        };
    });
}

/// Replays `scenario` over a real loopback cluster and returns the sorted
/// per-subscription tag sets.
fn run_real(scenario: &StackScenario) -> Vec<Vec<u64>> {
    let endpoints = start_cluster(scenario.nodes, DaceConfig::default());
    let sinks: Vec<Sink> = scenario
        .subs
        .iter()
        .map(|s| install(&endpoints[s.node], s.level, s.filter))
        .collect();
    // Subscription announcements settle (the simulator gives this 30ms of
    // virtual time; real loopback gets real milliseconds plus the 200ms
    // announce anti-entropy as a second chance).
    std::thread::sleep(StdDuration::from_millis(500));
    for plan in &scenario.pubs {
        publish(&endpoints[plan.node], plan.level, plan.tag, plan.value);
        std::thread::sleep(StdDuration::from_millis(10));
    }

    // Wait until every sink holds its expected count (or a deadline).
    let expected = scenario.expected();
    let deadline = Instant::now() + StdDuration::from_secs(20);
    loop {
        let done = sinks
            .iter()
            .zip(&expected)
            .all(|(sink, exp)| sink.lock().unwrap().len() >= exp.len());
        if done || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(20));
    }
    // Grace window so late duplicates (a bug) would still be caught.
    std::thread::sleep(StdDuration::from_millis(300));

    let got = sinks
        .iter()
        .map(|sink| {
            let mut tags = sink.lock().unwrap().clone();
            tags.sort_unstable();
            tags
        })
        .collect();
    for endpoint in &endpoints {
        endpoint.shutdown();
    }
    got
}

/// The tentpole acceptance test: harness scenarios on a multi-endpoint
/// loopback cluster deliver **exactly** what the simulator (the oracle)
/// says they deliver.
#[test]
fn real_wire_matches_simnet_oracle() {
    for seed in [7u64, 21, 42] {
        let scenario = StackScenario::generate(seed);
        let sim = run_stack(&scenario);
        assert!(
            sim.violations.is_empty(),
            "oracle run itself failed for seed {seed}: {:?}",
            sim.violations
        );
        let real = run_real(&scenario);
        assert_eq!(
            real, sim.got,
            "seed {seed}: real-wire deliveries diverge from the simnet oracle\n{}",
            scenario.describe()
        );
    }
}

/// A peer that connects and vanishes mid-handshake, one that dies
/// mid-frame, and one that sends garbage: all three must surface as
/// counted transport events — never a panic, never a wedged reader.
#[test]
fn rude_peers_surface_as_clean_drops() {
    use std::io::Write;
    use std::net::TcpStream;

    struct NullNode;
    impl Node for NullNode {
        fn on_message(&mut self, _ctx: &mut psc_simnet::Ctx<'_>, _from: NodeId, _payload: &[u8]) {}
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let registry = Arc::new(Registry::new());
    let transport = NetTransport::bind(
        NetConfig::new(NodeId(0), "127.0.0.1:0"),
        Box::new(NullNode),
        Arc::clone(&registry),
        None,
    )
    .expect("bind");
    let addr = transport.local_addr();

    // Rude peer 1: connects, says nothing, slams the door (mid-handshake).
    drop(TcpStream::connect(addr).expect("dial"));

    // Rude peer 2: valid hello, then half a frame, then gone (mid-frame).
    {
        let mut stream = TcpStream::connect(addr).expect("dial");
        let mut bytes = Vec::new();
        psc_codec::frame::encode_crc(&hello(NodeId(9)), &mut bytes);
        let mut partial = Vec::new();
        psc_codec::frame::encode_crc(b"cut off", &mut partial);
        bytes.extend_from_slice(&partial[..partial.len() / 2]);
        stream.write_all(&bytes).expect("write");
        drop(stream);
    }

    // Rude peer 3: straight garbage instead of a hello.
    {
        let mut stream = TcpStream::connect(addr).expect("dial");
        let mut bytes = Vec::new();
        psc_codec::frame::encode_crc(b"not a hello at all", &mut bytes);
        stream.write_all(&bytes).expect("write");
        drop(stream);
    }

    // All three connections end as counted drop events.
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while registry.snapshot().counter("net.peer.drop") < 3 && Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(20));
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("net.peer.drop"), 3, "each rude peer counts one drop");
    assert!(
        snapshot.counter("net.frames.corrupt") >= 1,
        "the garbage hello counts as corrupt"
    );
    // The transport is still healthy: a well-behaved peer gets through. Its
    // connection stays open past the inspect below — hanging up would be a
    // fourth (legitimate) drop racing the report.
    let mut stream = TcpStream::connect(addr).expect("dial");
    let mut bytes = Vec::new();
    psc_codec::frame::encode_crc(&hello(NodeId(5)), &mut bytes);
    psc_codec::frame::encode_crc(b"real payload", &mut bytes);
    stream.write_all(&bytes).expect("write");
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while registry.snapshot().counter("net.msgs_recv") < 1 && Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(20));
    }
    assert_eq!(registry.snapshot().counter("net.msgs_recv"), 1);
    let report = transport.inspect();
    assert!(report.contains("net.peer.drop=3"), "drops visible in inspect:\n{report}");
    drop(stream);
    transport.shutdown();
}

/// Hello frame payload, rebuilt here so the test exercises the public
/// wire format rather than internal helpers.
fn hello(id: NodeId) -> Vec<u8> {
    let mut out = Vec::with_capacity(14);
    out.extend_from_slice(b"PSCN");
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&id.0.to_le_bytes());
    out
}

/// Killing a peer's endpoint and restarting it on the same port must heal
/// through the reconnect path: queued traffic drains to the revived peer
/// and `net.peer.reconnects` records the re-dial.
#[test]
fn reconnect_after_peer_restart() {
    use std::sync::atomic::AtomicU64;

    // Echo-less counter node: counts every message it is delivered.
    struct CountNode(Arc<AtomicU64>);
    impl Node for CountNode {
        fn on_message(&mut self, _ctx: &mut psc_simnet::Ctx<'_>, _from: NodeId, _payload: &[u8]) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let sender_registry = Arc::new(Registry::new());
    let sender = NetTransport::bind(
        NetConfig::new(NodeId(0), "127.0.0.1:0"),
        Box::new(CountNode(Arc::new(AtomicU64::new(0)))),
        Arc::clone(&sender_registry),
        None,
    )
    .expect("bind sender");

    let received = Arc::new(AtomicU64::new(0));
    let receiver = NetTransport::bind(
        NetConfig::new(NodeId(1), "127.0.0.1:0"),
        Box::new(CountNode(Arc::clone(&received))),
        Arc::new(Registry::new()),
        None,
    )
    .expect("bind receiver");
    let receiver_addr = receiver.local_addr();
    sender.add_peer(NodeId(1), &receiver_addr.to_string());
    assert!(sender.wait_connected(StdDuration::from_secs(5)));

    let send = |n: u64| {
        for i in 0..n {
            sender.act_sync(move |_node, ctx| {
                ctx.send(NodeId(1), format!("msg-{i}").into_bytes());
            });
        }
    };
    send(5);
    let wait_for = |count: u64, received: &Arc<AtomicU64>| {
        let deadline = Instant::now() + StdDuration::from_secs(10);
        while received.load(Ordering::SeqCst) < count && Instant::now() < deadline {
            std::thread::sleep(StdDuration::from_millis(10));
        }
        received.load(Ordering::SeqCst)
    };
    assert_eq!(wait_for(5, &received), 5);

    // Kill the receiver. The writer only notices on its next failed
    // write (messages already in the kernel buffer are simply lost —
    // reliability is the group protocols' job, not the transport's), so
    // probe with pings until the failure surfaces.
    receiver.shutdown();
    drop(receiver);
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while sender.peer_connected(NodeId(1)) && Instant::now() < deadline {
        sender.act_sync(|_node, ctx| ctx.send(NodeId(1), b"ping".to_vec()));
        std::thread::sleep(StdDuration::from_millis(20));
    }
    assert!(!sender.peer_connected(NodeId(1)), "writer noticed the loss");

    // Traffic sent while the peer is down queues (bounded).
    send(3);

    // Revive the receiver on the same port; reconnect drains the queue.
    let received2 = Arc::new(AtomicU64::new(0));
    let revived = NetTransport::bind(
        NetConfig::new(NodeId(1), receiver_addr.to_string()),
        Box::new(CountNode(Arc::clone(&received2))),
        Arc::new(Registry::new()),
        None,
    )
    .expect("rebind receiver");
    assert!(sender.wait_connected(StdDuration::from_secs(10)), "reconnect");
    // At least the 3 queued messages arrive (plus any pings that were
    // re-queued by the failed write that surfaced the loss).
    assert!(
        wait_for(3, &received2) >= 3,
        "queued traffic drained after reconnect"
    );
    assert!(
        sender_registry.snapshot().counter("net.peer.reconnects") >= 1,
        "reconnect counted"
    );
    revived.shutdown();
    sender.shutdown();
}

/// Self-sends never touch a socket: a single-node "cluster" with no peers
/// still delivers its own publishes through the loopback queue.
#[test]
fn single_node_loopback_delivers_locally() {
    let endpoint = DaceEndpoint::start(
        NetConfig::new(NodeId(0), "127.0.0.1:0"),
        vec![NodeId(0)],
        DaceConfig::default(),
    )
    .expect("bind");
    let sink = install(&endpoint, Level::Base, FilterKind::None);
    std::thread::sleep(StdDuration::from_millis(100));
    publish(&endpoint, Level::Base, 0, 7);
    publish(&endpoint, Level::Leaf, 1, -7);
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while sink.lock().unwrap().len() < 2 && Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(10));
    }
    let mut tags = sink.lock().unwrap().clone();
    tags.sort_unstable();
    assert_eq!(tags, vec![0, 1]);
    assert_eq!(endpoint.metrics().counter("net.msgs_sent"), 0, "no socket traffic");
    endpoint.shutdown();
}

/// The direct sends of one callback leave highest priority first over real
/// TCP too: n0 publishes 5 low-priority obvents and then a high-priority
/// one inside one `with_domain`, and n1 is delivered the high-priority one
/// first. `Timely` expiry is tested in the simulator only: the receiver
/// compares the publisher's deadline with its own clock, and live nodes do
/// not share a clock.
#[test]
fn prioritary_obvents_of_one_callback_arrive_highest_first() {
    let endpoints = start_cluster(2, DaceConfig::default());
    let seen: Sink = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&seen);
    endpoints[1].with_domain(move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: UrgentTick| {
            recorder.lock().unwrap().push(*t.n());
        });
        sub.activate().expect("activate");
        sub.detach();
    });
    // Probe (tags from 1 000 on) until n0 routes to n1's subscription.
    let deadline = Instant::now() + StdDuration::from_secs(10);
    for probe in 1_000u64.. {
        assert!(
            Instant::now() < deadline,
            "n1's subscription never reached n0"
        );
        endpoints[0].with_domain(move |domain| {
            domain.publish(UrgentTick::new(probe, 0)).expect("publish");
        });
        std::thread::sleep(StdDuration::from_millis(20));
        if !seen.lock().unwrap().is_empty() {
            break;
        }
    }
    endpoints[0].with_domain(|domain| {
        for n in 0..5u64 {
            domain.publish(UrgentTick::new(n, 0)).expect("publish");
        }
        domain.publish(UrgentTick::new(99, 10)).expect("publish");
    });
    let burst = || -> Vec<u64> {
        seen.lock()
            .unwrap()
            .iter()
            .copied()
            .filter(|&n| n < 1_000)
            .collect()
    };
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while burst().len() < 6 && Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(10));
    }
    assert_eq!(burst(), vec![99, 0, 1, 2, 3, 4]);
    for endpoint in &endpoints {
        endpoint.shutdown();
    }
}
