//! End-to-end harness runs: one per §3.1.2 delivery semantics, through the
//! full stack (obvent classes with QoS markers → typed adapters → DACE
//! channels → group protocols → simulated network), with the delivered
//! traces checked by the psc-harness invariant oracles instead of ad-hoc
//! assertions.
//!
//! Every event carries its own bookkeeping (global publish index, origin,
//! per-origin sequence number) so a run maps directly onto the harness
//! [`Trace`] model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use javaps::dace::{DaceConfig, DaceNode};
use javaps::obvent::builtin::{CausalOrder, Certified, FifoOrder, Reliable, TotalOrder};
use javaps::pubsub::{obvent, FilterSpec};
use javaps::simnet::{NodeId, SimConfig, SimNet};
use psc_harness::{oracle, Delivery, PubRecord, Trace};

obvent! {
    pub class RelEv implements [Reliable] { index: u64, origin: u64, oseq: u64 }
}
obvent! {
    pub class FifoEv implements [FifoOrder] { index: u64, origin: u64, oseq: u64 }
}
obvent! {
    pub class CausEv implements [CausalOrder] { index: u64, origin: u64, oseq: u64 }
}
obvent! {
    pub class TotEv implements [TotalOrder] { index: u64, origin: u64, oseq: u64 }
}
obvent! {
    pub class CertEv implements [Certified] { index: u64, origin: u64, oseq: u64 }
}

type Sink = Arc<Mutex<Vec<(u64, usize)>>>;

fn cluster(n: usize, loss: f64, seed: u64) -> (SimNet, Vec<NodeId>) {
    let mut sim = SimNet::new(SimConfig {
        drop_probability: loss,
        ..SimConfig::with_seed(seed)
    });
    let ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
    for i in 0..n {
        sim.add_node(
            format!("e2e{i}"),
            DaceNode::factory(ids.clone(), DaceConfig::default()),
        );
    }
    (sim, ids)
}

fn settle(sim: &mut SimNet, ms: u64) {
    let deadline = sim.now() + javaps::simnet::Duration::from_millis(ms);
    sim.run_until(deadline);
}

/// Assembles a harness trace from per-node sinks (raw node id, log).
fn trace_from(publishes: Vec<PubRecord>, logs: Vec<(u64, Vec<(u64, usize)>)>) -> Trace {
    Trace {
        publishes,
        deliveries: logs
            .into_iter()
            .map(|(node, log)| {
                (
                    node,
                    log.into_iter()
                        .map(|(origin, index)| Delivery { origin, index, incarnation: 0 })
                        .collect(),
                )
            })
            .collect(),
        ..Trace::default()
    }
}

fn assert_clean(violations: Vec<psc_harness::Violation>, trace: &Trace, what: &str) {
    assert!(
        violations.is_empty(),
        "{what}: {:?}\ntrace:\n{}",
        violations,
        trace.render()
    );
}

macro_rules! subscribe_recording {
    ($sim:expr, $node:expr, $ty:ty) => {{
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let recorder = Arc::clone(&sink);
        DaceNode::drive($sim, $node, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |e: $ty| {
                recorder
                    .lock()
                    .unwrap()
                    .push((*e.origin(), *e.index() as usize));
            });
            sub.activate().unwrap();
            sub.detach();
        });
        sink
    }};
}

#[test]
fn reliable_end_to_end_delivers_everything_exactly_once() {
    let (mut sim, ids) = cluster(4, 0.0, 101);
    let sinks: Vec<Sink> = ids
        .iter()
        .map(|&id| subscribe_recording!(&mut sim, id, RelEv))
        .collect();
    settle(&mut sim, 10);

    let mut publishes = Vec::new();
    for i in 0..6u64 {
        let origin = i % 2; // nodes 0 and 1 alternate
        let oseq = i / 2 + 1;
        publishes.push(PubRecord {
            index: i as usize,
            origin,
            origin_seq: oseq,
            incarnation: 0,
            deps: vec![],
        });
        DaceNode::publish_from(&mut sim, ids[origin as usize], RelEv::new(i, origin, oseq));
        settle(&mut sim, 15);
    }
    settle(&mut sim, 1_000);

    let trace = trace_from(
        publishes,
        ids.iter()
            .zip(&sinks)
            .map(|(id, sink)| (id.0, sink.lock().unwrap().clone()))
            .collect(),
    );
    assert_clean(oracle::check_integrity(&trace), &trace, "reliable integrity");
    assert_clean(oracle::check_complete(&trace), &trace, "reliable completeness");
}

#[test]
fn fifo_end_to_end_preserves_publisher_order() {
    let (mut sim, ids) = cluster(3, 0.0, 102);
    let sinks: Vec<Sink> = ids
        .iter()
        .map(|&id| subscribe_recording!(&mut sim, id, FifoEv))
        .collect();
    settle(&mut sim, 10);

    // Back-to-back publishes: the network's latency jitter reorders them
    // in flight; the FIFO channel must restore publisher order.
    let mut publishes = Vec::new();
    for i in 0..8u64 {
        publishes.push(PubRecord {
            index: i as usize,
            origin: 0,
            origin_seq: i + 1,
            incarnation: 0,
            deps: vec![],
        });
        DaceNode::publish_from(&mut sim, ids[0], FifoEv::new(i, 0, i + 1));
    }
    settle(&mut sim, 1_500);

    let trace = trace_from(
        publishes,
        ids.iter()
            .zip(&sinks)
            .map(|(id, sink)| (id.0, sink.lock().unwrap().clone()))
            .collect(),
    );
    assert_clean(oracle::check_integrity(&trace), &trace, "fifo integrity");
    assert_clean(oracle::check_fifo(&trace), &trace, "fifo order");
    assert_clean(oracle::check_complete(&trace), &trace, "fifo completeness");
}

#[test]
fn causal_end_to_end_orders_replies_after_their_causes() {
    let (mut sim, ids) = cluster(3, 0.0, 103);
    let observer = subscribe_recording!(&mut sim, ids[2], CausEv);
    let publisher_view = subscribe_recording!(&mut sim, ids[0], CausEv);

    // Node 1 publishes a causally dependent reply (index 5+i) from inside
    // its handler for each original (index i < 5).
    let replier: Sink = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&replier);
    let reply_seq = Arc::new(AtomicU64::new(0));
    let seq = Arc::clone(&reply_seq);
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        let d = domain.clone();
        let sub = domain.subscribe(FilterSpec::accept_all(), move |e: CausEv| {
            recorder
                .lock()
                .unwrap()
                .push((*e.origin(), *e.index() as usize));
            if *e.index() < 5 {
                let oseq = seq.fetch_add(1, Ordering::SeqCst) + 1;
                d.publish(CausEv::new(*e.index() + 5, 1, oseq)).unwrap();
            }
        });
        sub.activate().unwrap();
        sub.detach();
    });
    settle(&mut sim, 10);

    let mut publishes = Vec::new();
    for i in 0..5u64 {
        publishes.push(PubRecord {
            index: i as usize,
            origin: 0,
            origin_seq: i + 1,
            incarnation: 0,
            deps: vec![],
        });
        DaceNode::publish_from(&mut sim, ids[0], CausEv::new(i, 0, i + 1));
        settle(&mut sim, 20);
    }
    settle(&mut sim, 1_500);
    for i in 0..5usize {
        // Reply 5+i happened after node 1 delivered original i.
        publishes.push(PubRecord {
            index: 5 + i,
            origin: 1,
            origin_seq: i as u64 + 1,
            incarnation: 0,
            deps: vec![i],
        });
    }

    let trace = trace_from(
        publishes,
        vec![
            (ids[0].0, publisher_view.lock().unwrap().clone()),
            (ids[1].0, replier.lock().unwrap().clone()),
            (ids[2].0, observer.lock().unwrap().clone()),
        ],
    );
    assert_clean(oracle::check_integrity(&trace), &trace, "causal integrity");
    assert_clean(oracle::check_fifo(&trace), &trace, "causal implies fifo");
    assert_clean(oracle::check_causal(&trace), &trace, "causal precedence");
    assert_clean(oracle::check_complete(&trace), &trace, "causal completeness");
}

#[test]
fn total_order_end_to_end_all_nodes_agree() {
    let (mut sim, ids) = cluster(4, 0.0, 104);
    let sinks: Vec<Sink> = ids
        .iter()
        .map(|&id| subscribe_recording!(&mut sim, id, TotEv))
        .collect();
    settle(&mut sim, 10);

    // Two publishers contend without settling in between: arrival order at
    // the sequencer is the only order, and everyone must agree on it.
    let mut publishes = Vec::new();
    for i in 0..5u64 {
        for origin in 0..2u64 {
            let index = (i * 2 + origin) as usize;
            publishes.push(PubRecord {
                index,
                origin,
                origin_seq: i + 1,
                incarnation: 0,
                deps: vec![],
            });
            DaceNode::publish_from(
                &mut sim,
                ids[origin as usize],
                TotEv::new(index as u64, origin, i + 1),
            );
        }
    }
    settle(&mut sim, 2_500);

    let trace = trace_from(
        publishes,
        ids.iter()
            .zip(&sinks)
            .map(|(id, sink)| (id.0, sink.lock().unwrap().clone()))
            .collect(),
    );
    assert_clean(oracle::check_integrity(&trace), &trace, "total integrity");
    assert_clean(oracle::check_fifo(&trace), &trace, "total implies fifo");
    assert_clean(oracle::check_total(&trace), &trace, "total-order agreement");
    assert_clean(oracle::check_complete(&trace), &trace, "total completeness");
}

#[test]
fn certified_end_to_end_survives_subscriber_crash_exactly_once() {
    let (mut sim, ids) = cluster(3, 0.05, 105);
    let install = |sim: &mut SimNet, node: NodeId| -> Sink {
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let recorder = Arc::clone(&sink);
        DaceNode::drive(sim, node, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |e: CertEv| {
                recorder
                    .lock()
                    .unwrap()
                    .push((*e.origin(), *e.index() as usize));
            });
            sub.activate_with_id(7).unwrap();
            sub.detach();
        });
        sink
    };
    let steady = install(&mut sim, ids[1]);
    let before_crash = install(&mut sim, ids[2]);
    settle(&mut sim, 800);

    let mut publishes = Vec::new();
    let mut publish = |sim: &mut SimNet, index: u64| {
        publishes.push(PubRecord {
            index: index as usize,
            origin: 0,
            origin_seq: index + 1,
            incarnation: 0,
            deps: vec![],
        });
        DaceNode::publish_from(sim, ids[0], CertEv::new(index, 0, index + 1));
    };
    publish(&mut sim, 0);
    settle(&mut sim, 400);

    sim.crash(ids[2]);
    publish(&mut sim, 1);
    publish(&mut sim, 2);
    settle(&mut sim, 400);

    sim.recover(ids[2]);
    let after_crash = install(&mut sim, ids[2]);
    settle(&mut sim, 4_000);

    // Node 2's delivery log spans both incarnations; the duplicate oracle
    // across the concatenation is the exactly-once-across-recovery check.
    let mut node2_log = before_crash.lock().unwrap().clone();
    node2_log.extend(after_crash.lock().unwrap().iter().copied());

    let trace = trace_from(
        publishes,
        vec![
            (ids[1].0, steady.lock().unwrap().clone()),
            (ids[2].0, node2_log),
        ],
    );
    assert_clean(oracle::check_integrity(&trace), &trace, "certified exactly-once");
    assert_clean(
        oracle::check_complete(&trace),
        &trace,
        "certified durability across crash/recovery",
    );
}
