use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use crate::{
    Ctx, Duration, HostEffect, LatencyModel, Node, NodeHost, NodeId, SimConfig, SimNet, SimTime,
    TimerId,
};

/// Records everything that happens to it.
#[derive(Default)]
struct Recorder {
    messages: Vec<(NodeId, Vec<u8>)>,
    timers: Vec<TimerId>,
    recovered: usize,
    started: usize,
}

impl Node for Recorder {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.started += 1;
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        self.messages.push((from, payload.to_vec()));
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, timer: TimerId) {
        self.timers.push(timer);
    }

    fn on_recover(&mut self, _ctx: &mut Ctx<'_>) {
        self.recovered += 1;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Forwards every message to a fixed target.
struct Forwarder {
    target: NodeId,
}

impl Node for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, payload: &[u8]) {
        ctx.send(self.target, payload.to_vec());
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn messages_are_delivered_with_latency() {
    let mut sim = SimNet::new(SimConfig::default());
    let a = sim.add_node("a", || Box::<Recorder>::default());
    let b = sim.add_node("b", || Box::<Recorder>::default());
    sim.send_external(a, b, b"hello".to_vec());
    sim.run_to_quiescence();
    assert!(sim.now() > SimTime::ZERO);
    let rec: &mut Recorder = sim.node_mut(b).unwrap();
    assert_eq!(rec.messages, vec![(a, b"hello".to_vec())]);
    assert_eq!(rec.started, 1);
}

#[test]
fn identical_seeds_produce_identical_schedules() {
    fn run(seed: u64) -> (u64, u64, u64) {
        let mut sim = SimNet::new(SimConfig {
            seed,
            drop_probability: 0.3,
            ..SimConfig::default()
        });
        let a = sim.add_node("a", || Box::<Recorder>::default());
        let b = sim.add_node("b", move || Box::new(Forwarder { target: a }));
        for i in 0..50u8 {
            sim.send_external(a, b, vec![i]);
        }
        sim.run_to_quiescence();
        let stats = sim.stats();
        (stats.delivered, stats.dropped_loss, sim.now().as_micros())
    }
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8)); // overwhelmingly likely with 30% loss
}

#[test]
fn loss_rate_is_respected_approximately() {
    let mut sim = SimNet::new(SimConfig {
        drop_probability: 0.5,
        ..SimConfig::default()
    });
    let a = sim.add_node("a", || Box::<Recorder>::default());
    let b = sim.add_node("b", || Box::<Recorder>::default());
    for _ in 0..1000 {
        sim.send_external(a, b, vec![0]);
    }
    sim.run_to_quiescence();
    let stats = sim.stats();
    assert_eq!(stats.delivered + stats.dropped_loss, 1000);
    assert!(
        (350..=650).contains(&stats.dropped_loss),
        "loss {} outside tolerance",
        stats.dropped_loss
    );
}

#[test]
fn self_sends_are_never_dropped() {
    let mut sim = SimNet::new(SimConfig {
        drop_probability: 1.0,
        ..SimConfig::default()
    });
    let a = sim.add_node("a", || Box::<Recorder>::default());
    sim.send_external(a, a, b"self".to_vec());
    sim.run_to_quiescence();
    let rec: &mut Recorder = sim.node_mut(a).unwrap();
    assert_eq!(rec.messages.len(), 1);
}

#[test]
fn partitions_block_and_heal() {
    let mut sim = SimNet::new(SimConfig::default());
    let a = sim.add_node("a", || Box::<Recorder>::default());
    let b = sim.add_node("b", || Box::<Recorder>::default());
    sim.partition(&[&[a], &[b]]);
    sim.send_external(a, b, b"blocked".to_vec());
    sim.run_to_quiescence();
    assert_eq!(sim.stats().dropped_partition, 1);
    sim.heal_partition();
    sim.send_external(a, b, b"through".to_vec());
    sim.run_to_quiescence();
    let rec: &mut Recorder = sim.node_mut(b).unwrap();
    assert_eq!(rec.messages, vec![(a, b"through".to_vec())]);
}

#[test]
fn timers_fire_in_order_and_cancel() {
    struct TimerNode {
        fired: Vec<u64>,
        cancel_me: Option<TimerId>,
    }
    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let _t1 = ctx.set_timer(Duration::from_millis(10));
            let t2 = ctx.set_timer(Duration::from_millis(5));
            let t3 = ctx.set_timer(Duration::from_millis(20));
            self.cancel_me = Some(t3);
            let _ = t2;
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
            self.fired.push(ctx.now().as_millis());
            if let Some(t) = self.cancel_me.take() {
                ctx.cancel_timer(t);
            }
            let _ = timer;
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = SimNet::new(SimConfig::default());
    let a = sim.add_node("a", || {
        Box::new(TimerNode {
            fired: vec![],
            cancel_me: None,
        })
    });
    sim.run_to_quiescence();
    let node: &mut TimerNode = sim.node_mut(a).unwrap();
    // The 20ms timer was cancelled by the first firing (5ms).
    assert_eq!(node.fired, vec![5, 10]);
}

#[test]
fn crash_drops_messages_and_recover_rebuilds_with_storage() {
    struct Persistent;
    impl Node for Persistent {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, payload: &[u8]) {
            let count: u64 = ctx.storage().get("count").unwrap().unwrap_or(0);
            ctx.storage().put("count", &(count + 1)).unwrap();
            let _ = payload;
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let mut sim = SimNet::new(SimConfig::default());
    let a = sim.add_node("a", || Box::<Recorder>::default());
    let b = sim.add_node("b", || Box::new(Persistent));

    sim.send_external(a, b, vec![1]);
    sim.run_to_quiescence();
    assert_eq!(sim.storage(b).unwrap().get::<u64>("count").unwrap(), Some(1));

    sim.crash(b);
    assert!(!sim.is_up(b));
    sim.send_external(a, b, vec![2]);
    sim.run_to_quiescence();
    assert_eq!(sim.stats().dropped_crashed, 1);

    sim.recover(b);
    assert!(sim.is_up(b));
    // Storage survived the crash; volatile state was rebuilt.
    assert_eq!(sim.storage(b).unwrap().get::<u64>("count").unwrap(), Some(1));
    sim.send_external(a, b, vec![3]);
    sim.run_to_quiescence();
    assert_eq!(sim.storage(b).unwrap().get::<u64>("count").unwrap(), Some(2));
}

#[test]
fn recover_on_running_node_is_a_noop() {
    let mut sim = SimNet::new(SimConfig::default());
    let a = sim.add_node("a", || Box::<Recorder>::default());
    sim.recover(a);
    sim.run_to_quiescence();
    let rec: &mut Recorder = sim.node_mut(a).unwrap();
    assert_eq!(rec.recovered, 0);
    assert_eq!(rec.started, 1);
}

#[test]
fn scheduled_actions_run_at_their_time() {
    let mut sim = SimNet::new(SimConfig::default());
    let a = sim.add_node("a", || Box::<Recorder>::default());
    let b = sim.add_node("b", || Box::<Recorder>::default());
    sim.at(SimTime::from_millis(50), a, move |_node, ctx| {
        ctx.send(b, b"late".to_vec());
    });
    sim.run_until(SimTime::from_millis(40));
    let rec: &mut Recorder = sim.node_mut(b).unwrap();
    assert!(rec.messages.is_empty());
    sim.run_to_quiescence();
    let rec: &mut Recorder = sim.node_mut(b).unwrap();
    assert_eq!(rec.messages.len(), 1);
    assert!(sim.now() >= SimTime::from_millis(50));
}

#[test]
fn run_until_advances_clock_even_when_idle() {
    let mut sim = SimNet::new(SimConfig::default());
    sim.run_until(SimTime::from_millis(100));
    assert_eq!(sim.now(), SimTime::from_millis(100));
}

#[test]
fn fixed_latency_is_exact() {
    let mut sim = SimNet::new(SimConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(7)),
        ..SimConfig::default()
    });
    let a = sim.add_node("a", || Box::<Recorder>::default());
    let b = sim.add_node("b", || Box::<Recorder>::default());
    sim.send_external(a, b, vec![1]);
    sim.run_to_quiescence();
    assert_eq!(sim.now(), SimTime::from_millis(7));
}

#[test]
fn stats_count_bytes() {
    let mut sim = SimNet::new(SimConfig::default());
    let a = sim.add_node("a", || Box::<Recorder>::default());
    let b = sim.add_node("b", || Box::<Recorder>::default());
    sim.send_external(a, b, vec![0; 100]);
    sim.send_external(a, b, vec![0; 28]);
    sim.run_to_quiescence();
    assert_eq!(sim.stats().bytes_sent, 128);
    sim.reset_stats();
    assert_eq!(sim.stats().sent, 0);
}

mod inproc {
    use super::*;
    use crate::inproc;

    #[test]
    fn unknown_peer_is_an_error() {
        let eps = inproc::network(1);
        let err = eps[0].send(NodeId(99), vec![]).unwrap_err();
        assert_eq!(err.to_string(), "endpoint n99 is unknown or disconnected");
    }

    #[test]
    fn receiver_threads_handle_messages() {
        let mut eps = inproc::network(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = Arc::clone(&count);
        let handle = b.spawn_receiver(move |incoming| {
            assert_eq!(incoming.payload, b"ping");
            count2.fetch_add(1, Ordering::SeqCst);
        });
        for _ in 0..10 {
            a.send(handle.id(), b"ping".to_vec()).unwrap();
        }
        // Wait for drainage.
        for _ in 0..200 {
            if count.load(Ordering::SeqCst) == 10 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(count.load(Ordering::SeqCst), 10);
        handle.shutdown();
    }

    #[test]
    fn handler_can_reply_through_sender() {
        let mut eps = inproc::network(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let a_id = a.id();
        // First build the handle so the handler can capture a sender.
        let (tx, rx) = crossbeam::channel::unbounded::<inproc::Incoming>();
        let handle = b.spawn_receiver(move |incoming| {
            tx.send(incoming).unwrap();
        });
        let replier = handle.sender();
        a.send(handle.id(), b"ping".to_vec()).unwrap();
        let incoming = rx.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
        replier.send(incoming.from, b"pong".to_vec()).unwrap();
        let m = a.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
        assert_eq!(m.payload, b"pong");
        assert_eq!(m.from, handle.id());
        assert_eq!(incoming.from, a_id);
        handle.shutdown();
    }
}

/// One callback's sends, marked ahead or not, addressed to nodes 1 and 2
/// and to the host itself (node 0).
fn sends_ahead_callback(ctx: &mut Ctx<'_>) {
    ctx.send(NodeId(1), b"a1".to_vec());
    ctx.send_ahead(NodeId(1), b"a2".to_vec());
    ctx.send_ahead(NodeId(2), b"b1".to_vec());
    ctx.send_ahead(NodeId(0), b"self".to_vec());
    ctx.set_timer(Duration::from_millis(1));
    ctx.send(NodeId(2), b"b2".to_vec());
    ctx.send_ahead(NodeId(2), b"b3".to_vec());
}

/// The rest of a callback's effects: `(to, payload)` per send, `None` per
/// timer.
fn rest(effects: Vec<HostEffect>) -> Vec<Option<(NodeId, Vec<u8>)>> {
    effects
        .into_iter()
        .map(|effect| match effect {
            HostEffect::Send { to, payload } => Some((to, payload.to_vec())),
            HostEffect::SetTimer { .. } => None,
        })
        .collect()
}

fn sent(sends: Vec<(NodeId, psc_codec::WireBytes)>) -> Vec<(NodeId, Vec<u8>)> {
    sends.into_iter().map(|(to, payload)| (to, payload.to_vec())).collect()
}

/// A host that holds sends ahead apart takes out exactly the marked sends
/// to other nodes that overtake no plain send to the same node; the rest
/// stay effects in their order. Without the opt-in nothing is held.
#[test]
fn sends_ahead_are_held_apart_without_overtaking_a_plain_send() {
    let bytes = |to: u64, b: &[u8]| Some((NodeId(to), b.to_vec()));
    let mut host = NodeHost::new(NodeId(0), Box::<Recorder>::default(), 0);
    let all = rest(host.act(SimTime::ZERO, |_, ctx| sends_ahead_callback(ctx)));
    assert_eq!(
        all,
        [
            bytes(1, b"a1"),
            bytes(1, b"a2"),
            bytes(2, b"b1"),
            bytes(0, b"self"),
            None,
            bytes(2, b"b2"),
            bytes(2, b"b3")
        ]
    );
    assert!(host.take_sends_ahead().is_empty(), "off by default");

    host.enable_sends_ahead();
    let effects = rest(host.act(SimTime::ZERO, |_, ctx| sends_ahead_callback(ctx)));
    assert_eq!(sent(host.take_sends_ahead()), [(NodeId(2), b"b1".to_vec())]);
    assert_eq!(
        effects,
        [bytes(1, b"a1"), bytes(1, b"a2"), bytes(0, b"self"), None, bytes(2, b"b2"), bytes(2, b"b3")],
        "a2 follows a1, b3 follows b2, and a self-send is never ahead"
    );
    assert!(host.take_sends_ahead().is_empty(), "drained");
}

proptest! {
    /// Virtual time is monotone and every sent message is accounted for
    /// exactly once, under arbitrary loss rates and payload batches.
    #[test]
    fn prop_message_accounting(
        seed in 0u64..1000,
        loss in 0.0f64..1.0,
        batch in 1usize..60,
    ) {
        let mut sim = SimNet::new(SimConfig { seed, drop_probability: loss, ..SimConfig::default() });
        let a = sim.add_node("a", || Box::<Recorder>::default());
        let b = sim.add_node("b", || Box::<Recorder>::default());
        for i in 0..batch {
            sim.send_external(a, b, vec![i as u8]);
        }
        sim.run_to_quiescence();
        let stats = sim.stats();
        prop_assert_eq!(stats.sent as usize, batch);
        prop_assert_eq!(
            (stats.delivered + stats.dropped_loss + stats.dropped_partition + stats.dropped_crashed) as usize,
            batch
        );
    }
}
