use std::sync::{Arc, Mutex};

use psc_group::LpbcastConfig;
use psc_obvent::builtin::{
    CausalOrder, Certified, FifoOrder, Prioritary, Reliable, Timely, TotalOrder,
};
use psc_obvent::declare_obvent_model;
use psc_simnet::{Duration, LatencyModel, NodeId, SimConfig, SimNet, SimTime};
use pubsub_core::{Domain, FilterSpec};

use crate::{DaceConfig, DaceNode, Placement};

declare_obvent_model! {
    pub class PlainTick { tag: String, n: u64 }
}
declare_obvent_model! {
    pub class FancyTick extends PlainTick { extra: String }
}
declare_obvent_model! {
    pub class ReliableTick implements [Reliable] { n: u64 }
}
declare_obvent_model! {
    pub class FifoTick implements [FifoOrder] { n: u64 }
}
declare_obvent_model! {
    pub class CausalTick implements [CausalOrder] { n: u64 }
}
declare_obvent_model! {
    pub class TotalTick implements [TotalOrder] { n: u64 }
}
declare_obvent_model! {
    pub class CertifiedTick implements [Certified] { n: u64 }
}
declare_obvent_model! {
    pub class UrgentTick implements [Prioritary] { n: u64, priority: i32 }
}
declare_obvent_model! {
    pub class FreshTick implements [Timely] { n: u64, ttl_ms: u64, birth_ms: u64 }
}

type Seen<T> = Arc<Mutex<Vec<T>>>;

fn cluster(n: usize, sim_config: SimConfig, dace_config: DaceConfig) -> (SimNet, Vec<NodeId>) {
    let mut sim = SimNet::new(sim_config);
    // Ids are assigned sequentially from 0; precompute the cluster list.
    let ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
    for i in 0..n {
        let factory = DaceNode::factory(ids.clone(), dace_config.clone());
        let id = sim.add_node(format!("dace{i}"), factory);
        assert_eq!(id, ids[i]);
    }
    (sim, ids)
}

/// Subscribes `node` to `PlainTick`s (and subtypes) recording tags.
fn subscribe_plain(sim: &mut SimNet, node: NodeId, filter: FilterSpec<PlainTick>) -> Seen<String> {
    let seen: Seen<String> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    DaceNode::drive(sim, node, move |domain| {
        let sub = domain.subscribe(filter, move |t: PlainTick| {
            sink.lock().unwrap().push(t.tag().clone());
        });
        sub.activate().unwrap();
        sub.detach();
    });
    seen
}

fn settle(sim: &mut SimNet, ms: u64) {
    let deadline = sim.now() + Duration::from_millis(ms);
    sim.run_until(deadline);
}

#[test]
fn cross_node_delivery_with_publisher_side_filtering() {
    let (mut sim, ids) = cluster(3, SimConfig::default(), DaceConfig::default());
    let cheap = subscribe_plain(
        &mut sim,
        ids[1],
        FilterSpec::remote(psc_filter::rfilter!(n < 10)),
    );
    let expensive = subscribe_plain(
        &mut sim,
        ids[2],
        FilterSpec::remote(psc_filter::rfilter!(n >= 10)),
    );
    settle(&mut sim, 10);
    sim.reset_stats();

    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("low".into(), 5));
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("high".into(), 50));
    settle(&mut sim, 50);

    assert_eq!(*cheap.lock().unwrap(), vec!["low".to_string()]);
    assert_eq!(*expensive.lock().unwrap(), vec!["high".to_string()]);
}

/// A restarted subscriber's fresh `Domain` numbers its subscriptions from
/// 1 again: the publisher must route by the new incarnation's filter under
/// the reused id, not keep the old one.
#[test]
fn a_restarted_subscriber_is_routed_by_its_new_filter() {
    let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
    subscribe_plain(
        &mut sim,
        ids[1],
        FilterSpec::remote(psc_filter::rfilter!(n < 10)),
    );
    settle(&mut sim, 10);
    sim.crash(ids[1]);
    sim.recover(ids[1]);
    let seen = subscribe_plain(
        &mut sim,
        ids[1],
        FilterSpec::remote(psc_filter::rfilter!(n >= 10)),
    );
    settle(&mut sim, 10);

    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("low".into(), 5));
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("high".into(), 50));
    settle(&mut sim, 50);
    assert_eq!(*seen.lock().unwrap(), vec!["high".to_string()]);
}

#[test]
fn publisher_side_filtering_saves_messages_vs_subscriber_side() {
    let run = |placement: Placement| {
        let config = DaceConfig {
            placement,
            ..DaceConfig::default()
        };
        let (mut sim, ids) = cluster(6, SimConfig::default(), config);
        // Five subscribers, all with highly selective filters (match none).
        for &id in &ids[1..] {
            subscribe_plain(
                &mut sim,
                id,
                FilterSpec::remote(psc_filter::rfilter!(n > 1000)),
            );
        }
        settle(&mut sim, 10);
        sim.reset_stats();
        for i in 0..20u64 {
            DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("x".into(), i));
        }
        settle(&mut sim, 100);
        sim.stats().sent
    };
    let publisher_side = run(Placement::Publisher);
    let subscriber_side = run(Placement::Subscriber);
    assert!(
        publisher_side < subscriber_side / 2,
        "publisher-side filtering ({publisher_side} msgs) should send far less \
         than subscriber-side ({subscriber_side} msgs)"
    );
}

#[test]
fn local_delivery_reaches_collocated_subscribers() {
    let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
    let local = subscribe_plain(&mut sim, ids[0], FilterSpec::accept_all());
    let remote = subscribe_plain(&mut sim, ids[1], FilterSpec::accept_all());
    settle(&mut sim, 10);
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("t".into(), 1));
    settle(&mut sim, 50);
    assert_eq!(local.lock().unwrap().len(), 1, "publisher-local subscriber");
    assert_eq!(remote.lock().unwrap().len(), 1, "remote subscriber");
}

#[test]
fn supertype_subscription_catches_later_advertised_subtype() {
    let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
    // Subscribe to the base class before FancyTick was ever published.
    let seen = subscribe_plain(&mut sim, ids[1], FilterSpec::accept_all());
    settle(&mut sim, 10);
    // First publish triggers the advertisement; a subsequent one must be
    // routed (space/time decoupling, not retroactive delivery).
    DaceNode::publish_from(
        &mut sim,
        ids[0],
        FancyTick::new(PlainTick::new("first".into(), 1), "e".into()),
    );
    settle(&mut sim, 300);
    DaceNode::publish_from(
        &mut sim,
        ids[0],
        FancyTick::new(PlainTick::new("second".into(), 2), "e".into()),
    );
    settle(&mut sim, 300);
    let got = seen.lock().unwrap().clone();
    assert!(
        got.contains(&"second".to_string()),
        "subscriber must have joined the subtype channel, got {got:?}"
    );
}

#[test]
fn unsubscribe_stops_cross_node_delivery() {
    let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
    let seen: Seen<String> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    let handle: Arc<Mutex<Option<pubsub_core::Subscription>>> = Arc::new(Mutex::new(None));
    let slot = handle.clone();
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: PlainTick| {
            sink.lock().unwrap().push(t.tag().clone());
        });
        sub.activate().unwrap();
        *slot.lock().unwrap() = Some(sub);
    });
    settle(&mut sim, 10);
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("before".into(), 1));
    settle(&mut sim, 50);
    DaceNode::drive(&mut sim, ids[1], move |_domain| {
        let guard = handle.lock().unwrap();
        guard.as_ref().unwrap().deactivate().unwrap();
    });
    settle(&mut sim, 50);
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("after".into(), 2));
    settle(&mut sim, 50);
    assert_eq!(*seen.lock().unwrap(), vec!["before".to_string()]);
}

#[test]
fn reliable_obvents_survive_loss() {
    let (mut sim, ids) = cluster(5, SimConfig::with_loss(0.3), DaceConfig::default());
    let seens: Vec<Seen<u64>> = ids[1..]
        .iter()
        .map(|&id| {
            let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            DaceNode::drive(&mut sim, id, move |domain| {
                let sub = domain.subscribe(FilterSpec::accept_all(), move |t: ReliableTick| {
                    sink.lock().unwrap().push(*t.n());
                });
                sub.activate().unwrap();
                sub.detach();
            });
            seen
        })
        .collect();
    // Let control traffic (subject to the same loss) converge via
    // anti-entropy (digests, and pulls on mismatch).
    settle(&mut sim, 700);
    for i in 0..5u64 {
        DaceNode::publish_from(&mut sim, ids[0], ReliableTick::new(i));
    }
    settle(&mut sim, 500);
    for (i, seen) in seens.iter().enumerate() {
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "subscriber {i}");
    }
}

#[test]
fn fifo_obvents_arrive_in_publish_order() {
    let (mut sim, ids) = cluster(3, SimConfig::with_seed(23), DaceConfig::default());
    let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: FifoTick| {
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate().unwrap();
        sub.detach();
    });
    settle(&mut sim, 10);
    for i in 0..25u64 {
        DaceNode::publish_from(&mut sim, ids[0], FifoTick::new(i));
    }
    settle(&mut sim, 500);
    let got = seen.lock().unwrap().clone();
    assert_eq!(got, (0..25).collect::<Vec<u64>>());
}

/// Node 0 publishes 3 obvents nobody has subscribed to, node 1 then
/// subscribes, and node 0 publishes `0..10`: node 1's channel stream starts
/// at the publisher's seq 4, which the frame header tells it.
fn late_subscriber_receives(
    subscribe: impl FnOnce(&Domain, Seen<u64>) + 'static,
    publish: impl Fn(&mut SimNet, NodeId, u64),
) -> Vec<u64> {
    let (mut sim, ids) = cluster(2, SimConfig::with_seed(5), DaceConfig::default());
    for i in 100..103 {
        publish(&mut sim, ids[0], i);
    }
    settle(&mut sim, 100);
    let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    DaceNode::drive(&mut sim, ids[1], move |domain| subscribe(domain, sink));
    settle(&mut sim, 10);
    for i in 0..10 {
        publish(&mut sim, ids[0], i);
    }
    settle(&mut sim, 500);
    let got = seen.lock().unwrap().clone();
    got
}

#[test]
fn a_late_fifo_subscriber_receives_what_follows_its_subscription() {
    let got = late_subscriber_receives(
        |domain, sink| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: FifoTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate().unwrap();
            sub.detach();
        },
        |sim, node, n| DaceNode::publish_from(sim, node, FifoTick::new(n)),
    );
    assert_eq!(got, (0..10).collect::<Vec<u64>>());
}

#[test]
fn a_late_causal_subscriber_receives_what_follows_its_subscription() {
    let got = late_subscriber_receives(
        |domain, sink| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: CausalTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate().unwrap();
            sub.detach();
        },
        |sim, node, n| DaceNode::publish_from(sim, node, CausalTick::new(n)),
    );
    assert_eq!(got, (0..10).collect::<Vec<u64>>());
}

#[test]
fn a_late_total_subscriber_receives_what_follows_its_subscription() {
    let got = late_subscriber_receives(
        |domain, sink| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: TotalTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate().unwrap();
            sub.detach();
        },
        |sim, node, n| DaceNode::publish_from(sim, node, TotalTick::new(n)),
    );
    assert_eq!(got, (0..10).collect::<Vec<u64>>());
}

/// The usual pub/sub case: the publisher is not subscribed to its own
/// `TotalOrder` kind, so it is not a member of the channel's group. The
/// sequencer acknowledges its submissions, and then it goes quiet.
#[test]
fn a_non_member_total_publisher_stops_sending_once_acknowledged() {
    // Re-announcements only at subscription time: in the idle window
    // below, any frame sent is the group protocol's.
    let config = DaceConfig {
        announce_interval: Duration::from_secs(3_600),
        ..DaceConfig::default()
    };
    let (mut sim, ids) = cluster(2, SimConfig::with_seed(7), config);
    let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: TotalTick| {
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate().unwrap();
        sub.detach();
    });
    settle(&mut sim, 10);
    for i in 0..10u64 {
        DaceNode::publish_from(&mut sim, ids[0], TotalTick::new(i));
    }
    settle(&mut sim, 500);
    let report = DaceNode::inspect_of(&mut sim, ids[0]).expect("node up");
    assert!(report.contains("queue reliable.unacked=0"), "{report}");
    let sent = sim.stats().sent;
    settle(&mut sim, 3_000);
    assert_eq!(sim.stats().sent, sent, "an idle group sends nothing");
    assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<u64>>());
}

#[test]
fn total_order_obvents_agree_across_subscribers() {
    let (mut sim, ids) = cluster(4, SimConfig::with_seed(31), DaceConfig::default());
    let mut seens = Vec::new();
    for &id in &ids[2..] {
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        DaceNode::drive(&mut sim, id, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: TotalTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate().unwrap();
            sub.detach();
        });
        seens.push(seen);
    }
    settle(&mut sim, 10);
    // Two concurrent publishers.
    for i in 0..10u64 {
        DaceNode::publish_from(&mut sim, ids[0], TotalTick::new(i));
        DaceNode::publish_from(&mut sim, ids[1], TotalTick::new(100 + i));
    }
    settle(&mut sim, 1_000);
    let a = seens[0].lock().unwrap().clone();
    let b = seens[1].lock().unwrap().clone();
    assert_eq!(a.len(), 20);
    assert_eq!(a, b, "total order must agree at all subscribers");
}

#[test]
fn certified_obvents_reach_a_crashed_subscriber_after_recovery() {
    let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
    let seen = {
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        DaceNode::drive(&mut sim, ids[1], move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: CertifiedTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate_with_id(9_001).unwrap();
            sub.detach();
        });
        seen
    };
    settle(&mut sim, 10);
    // Deliver one normally.
    DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(1));
    settle(&mut sim, 100);
    assert_eq!(*seen.lock().unwrap(), vec![1]);

    // Crash the subscriber, publish while it is down.
    sim.crash(ids[1]);
    DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(2));
    settle(&mut sim, 300);

    // Recover and re-attach the durable subscription (paper §3.4.1).
    sim.recover(ids[1]);
    let seen2: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen2.clone();
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: CertifiedTick| {
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate_with_id(9_001).unwrap();
        sub.detach();
    });
    settle(&mut sim, 2_000);
    assert_eq!(
        *seen2.lock().unwrap(),
        vec![2],
        "the certified obvent published during the crash must arrive after recovery"
    );
}

/// A simulator whose every link takes exactly `ms` milliseconds, so
/// messages on one link arrive in the order they were sent.
fn fixed_latency(ms: u64) -> SimConfig {
    SimConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(ms)),
        ..SimConfig::default()
    }
}

#[test]
fn priorities_reorder_the_transmit_queue() {
    // The direct sends of one callback leave highest priority first, and
    // in publish order among equals: the prioritary obvent published last
    // must arrive first.
    let (mut sim, ids) = cluster(2, fixed_latency(1), DaceConfig::default());
    let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: UrgentTick| {
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate().unwrap();
        sub.detach();
    });
    settle(&mut sim, 10);
    // Publish 5 low-priority then 1 high-priority in one action burst.
    DaceNode::drive(&mut sim, ids[0], |domain| {
        for i in 0..5u64 {
            domain.publish(UrgentTick::new(i, 0)).unwrap();
        }
        domain.publish(UrgentTick::new(99, 10)).unwrap();
    });
    settle(&mut sim, 200);
    assert_eq!(*seen.lock().unwrap(), vec![99, 0, 1, 2, 3, 4]);
}

#[test]
fn timely_obvents_expire_on_arrival() {
    // Each node counts into its own registry, so an expiry is attributed
    // to the node that dropped the obvent.
    let registries: Vec<Arc<psc_telemetry::Registry>> =
        (0..2).map(|_| Arc::new(psc_telemetry::Registry::new())).collect();
    let mut sim = SimNet::new(fixed_latency(10));
    let ids: Vec<NodeId> = (0..2u64).map(NodeId).collect();
    for (i, registry) in registries.iter().enumerate() {
        let factory = DaceNode::factory_with_telemetry(
            ids.clone(),
            DaceConfig::default(),
            Arc::clone(registry),
            Arc::new(psc_telemetry::Tracer::default()),
        );
        sim.add_node(format!("dace{i}"), factory);
    }
    let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: FreshTick| {
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate().unwrap();
        sub.detach();
    });
    settle(&mut sim, 10);
    // Over a 10 ms link, the 5 ms TTLs run out in flight and the 50 ms
    // TTLs do not.
    DaceNode::drive(&mut sim, ids[0], |domain| {
        for i in 0..6u64 {
            let ttl_ms = if i % 2 == 0 { 5 } else { 50 };
            domain.publish(FreshTick::new(i, ttl_ms, 0)).unwrap();
        }
    });
    settle(&mut sim, 500);
    assert_eq!(*seen.lock().unwrap(), vec![1, 3, 5]);
    let expired = |i: usize| registries[i].snapshot().counter("dace.expired");
    assert_eq!((expired(0), expired(1)), (0, 3), "the receiver drops them");
}

#[test]
fn a_lone_publish_leaves_an_idle_uplink_at_once() {
    let (mut sim, ids) = cluster(2, fixed_latency(1), DaceConfig::default());
    let seen = subscribe_plain(&mut sim, ids[1], FilterSpec::accept_all());
    settle(&mut sim, 10);
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("lone".into(), 0));
    // One link latency later it is there: nothing holds a send back.
    settle(&mut sim, 1);
    assert_eq!(*seen.lock().unwrap(), vec!["lone".to_string()]);
}

#[test]
fn broker_placement_routes_through_the_filtering_host() {
    let config = DaceConfig {
        placement: Placement::Broker(NodeId(1)),
        ..DaceConfig::default()
    };
    let (mut sim, ids) = cluster(4, SimConfig::default(), config);
    let matching = subscribe_plain(
        &mut sim,
        ids[2],
        FilterSpec::remote(psc_filter::rfilter!(n < 10)),
    );
    let non_matching = subscribe_plain(
        &mut sim,
        ids[3],
        FilterSpec::remote(psc_filter::rfilter!(n > 1000)),
    );
    settle(&mut sim, 10);
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("via-broker".into(), 5));
    settle(&mut sim, 100);
    assert_eq!(*matching.lock().unwrap(), vec!["via-broker".to_string()]);
    assert!(non_matching.lock().unwrap().is_empty());
}

#[test]
fn gossip_mode_disseminates_unreliable_obvents() {
    let config = DaceConfig {
        gossip: Some(LpbcastConfig {
            fanout: 4,
            ..LpbcastConfig::default()
        }),
        ..DaceConfig::default()
    };
    let (mut sim, ids) = cluster(16, SimConfig::with_seed(3), config);
    let seens: Vec<Seen<String>> = ids[1..]
        .iter()
        .map(|&id| subscribe_plain(&mut sim, id, FilterSpec::accept_all()))
        .collect();
    settle(&mut sim, 20);
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("rumor".into(), 1));
    sim.run_until(SimTime::from_millis(800));
    let reached = seens
        .iter()
        .filter(|seen| !seen.lock().unwrap().is_empty())
        .count();
    assert_eq!(reached, 15, "gossip with fanout 4 should reach all 15 subscribers");
}

mod inproc_bus {
    use super::*;
    use crate::inproc::Bus;

    #[test]
    fn bus_routes_between_live_domains() {
        let bus = Bus::new();
        let publisher = bus.domain_inline();
        let subscriber = bus.domain_inline();
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let sub = subscriber.subscribe(FilterSpec::accept_all(), move |t: PlainTick| {
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate().unwrap();
        publisher.publish(PlainTick::new("x".into(), 7)).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![7]);
        assert_eq!(bus.member_count(), 2);
    }

    #[test]
    fn bus_members_prune_when_dropped() {
        let bus = Bus::new();
        let a = bus.domain_inline();
        {
            let _b = bus.domain_inline();
        }
        bus.prune();
        assert_eq!(bus.member_count(), 1);
        drop(a);
    }

    /// Regression: delivery must not hold the `sinks` read guard across
    /// handler execution. An inline handler that re-enters the bus (here:
    /// pruning, which needs the write lock) deadlocked before the sink
    /// list was cloned out of the lock.
    #[test]
    fn delivery_releases_the_sink_lock_before_running_handlers() {
        let bus = Bus::new();
        let publisher = bus.domain_inline();
        let subscriber = bus.domain_inline();
        let reentrant = bus.clone();
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let sub = subscriber.subscribe(FilterSpec::accept_all(), move |t: PlainTick| {
            reentrant.prune(); // write-locks `sinks` mid-delivery
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate().unwrap();
        // Run the publish on a helper thread so a regression fails the
        // test instead of hanging the suite.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let publish_thread = std::thread::spawn(move || {
            publisher.publish(PlainTick::new("x".into(), 3)).unwrap();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("publish deadlocked: sink lock held across handler dispatch");
        publish_thread.join().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![3]);
    }
}

mod failure_injection {
    use super::*;
    use crate::node::{BATCH_BUDGET, SET_ENTRY_BYTES};
    use psc_filter::{CmpOp, Predicate, RemoteFilter};
    use psc_telemetry::{Registry, Tracer};

    /// Two nodes; n0 records into the returned registry.
    fn observed_pair(config: SimConfig) -> (SimNet, Vec<NodeId>, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let mut sim = SimNet::new(config);
        let ids: Vec<NodeId> = (0..2u64).map(NodeId).collect();
        for (i, telemetry) in [Arc::clone(&registry), Arc::new(Registry::disabled())]
            .into_iter()
            .enumerate()
        {
            let factory = DaceNode::factory_with_telemetry(
                ids.clone(),
                DaceConfig::default(),
                telemetry,
                Arc::new(Tracer::default()),
            );
            sim.add_node(format!("dace{i}"), factory);
        }
        (sim, ids, registry)
    }

    /// A partition separates publisher and subscriber; reliable obvents
    /// published during the partition are lost (links dropped), but the
    /// anti-entropy control plane re-converges after healing and later
    /// obvents flow again.
    #[test]
    fn partition_and_heal_reconverges() {
        let (mut sim, ids) = cluster(3, SimConfig::default(), DaceConfig::default());
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        DaceNode::drive(&mut sim, ids[2], move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: ReliableTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate().unwrap();
            sub.detach();
        });
        settle(&mut sim, 10);
        DaceNode::publish_from(&mut sim, ids[0], ReliableTick::new(1));
        settle(&mut sim, 100);
        assert_eq!(*seen.lock().unwrap(), vec![1]);

        // Publisher side isolated from the subscriber.
        sim.partition(&[&[ids[0], ids[1]], &[ids[2]]]);
        DaceNode::publish_from(&mut sim, ids[0], ReliableTick::new(2));
        settle(&mut sim, 300);
        assert_eq!(*seen.lock().unwrap(), vec![1], "partitioned: nothing arrives");

        sim.heal_partition();
        // Reliable retransmission (volatile, but the publisher never saw an
        // ack from n2) resumes across the healed link.
        settle(&mut sim, 1_000);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![1, 2],
            "retransmission must cross the healed partition"
        );
        DaceNode::publish_from(&mut sim, ids[0], ReliableTick::new(3));
        settle(&mut sim, 500);
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
    }

    /// Subscriptions installed while the control plane is lossy still
    /// converge via periodic anti-entropy.
    #[test]
    fn subscription_announcements_survive_control_loss() {
        let config = DaceConfig {
            announce_interval: Duration::from_millis(100),
            ..DaceConfig::default()
        };
        let (mut sim, ids) = cluster(2, SimConfig::with_loss(0.6), config);
        let seen = subscribe_plain(&mut sim, ids[1], FilterSpec::accept_all());
        // With 60% loss the first announcement probably died; every 100 ms
        // a digest shows the publisher what it lacks, and it pulls.
        settle(&mut sim, 2_000);
        for i in 0..30u64 {
            DaceNode::publish_from(&mut sim, ids[0], PlainTick::new(format!("m{i}"), i));
        }
        settle(&mut sim, 2_000);
        let got = seen.lock().unwrap().len();
        assert!(
            got > 0,
            "after control-plane convergence some best-effort obvents must land"
        );
    }

    /// An unsubscription lost on the wire is repaired by anti-entropy: the
    /// subscriber's digest disagrees with the publisher's view, the pulled
    /// set lacks the entry, and the publisher stops sending what only the
    /// removed filter matched.
    #[test]
    fn a_lost_unsubscribe_is_repaired() {
        let (mut sim, ids, registry) = observed_pair(SimConfig::with_loss(0.2));
        subscribe_plain(
            &mut sim,
            ids[1],
            FilterSpec::remote(psc_filter::rfilter!(n >= 100)),
        );
        let handle: Arc<Mutex<Option<pubsub_core::Subscription>>> = Arc::new(Mutex::new(None));
        let slot = handle.clone();
        DaceNode::drive(&mut sim, ids[1], move |domain| {
            let sub = domain.subscribe(
                FilterSpec::remote(psc_filter::rfilter!(n < 10)),
                |_t: PlainTick| {},
            );
            sub.activate().unwrap();
            *slot.lock().unwrap() = Some(sub);
        });
        // Both subscriptions reach the publisher.
        settle(&mut sim, 2_000);
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("low".into(), 5));
        settle(&mut sim, 10);
        let direct_sent = || registry.snapshot().counter("dace.direct_sent");
        assert_eq!(direct_sent(), 1, "the filter to be removed is routed to");

        // The unsubscription is lost.
        sim.set_drop_probability(1.0);
        DaceNode::drive(&mut sim, ids[1], move |_domain| {
            handle.lock().unwrap().take().unwrap().deactivate().unwrap();
        });
        settle(&mut sim, 5);
        sim.set_drop_probability(0.2);
        settle(&mut sim, 2_000);

        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("low".into(), 5));
        settle(&mut sim, 10);
        assert_eq!(
            direct_sent(),
            1,
            "no Direct frame for what only the removed filter matched"
        );
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("high".into(), 500));
        settle(&mut sim, 10);
        assert_eq!(direct_sent(), 2, "the kept filter is still routed to");
    }

    /// A set too large for one batch is answered in several `SubSetCtl`
    /// parts, each replacing only its own id range: a restarted publisher
    /// pulls once, and its view then routes to the first and the last of
    /// 20 000 subscriptions.
    #[test]
    fn a_pulled_set_larger_than_one_batch_arrives_in_parts() {
        const SUBS: u64 = 20_000;
        let (mut sim, ids, registry) = observed_pair(SimConfig::default());
        let seen: Seen<String> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        DaceNode::drive(&mut sim, ids[1], move |domain| {
            for n in 0..SUBS {
                let filter = RemoteFilter::conjunction(vec![Predicate::new("n", CmpOp::Eq, n)]);
                let sink = sink.clone();
                let sub = domain.subscribe(FilterSpec::remote(filter), move |t: PlainTick| {
                    sink.lock().unwrap().push(t.tag().clone());
                });
                sub.activate().unwrap();
                sub.detach();
            }
        });
        // More than one part's worth of entries.
        let filter = RemoteFilter::conjunction(vec![Predicate::new("n", CmpOp::Eq, SUBS)]);
        let entry_bytes = psc_codec::to_bytes(&filter).unwrap().len() + SET_ENTRY_BYTES;
        assert!(SUBS as usize * entry_bytes > BATCH_BUDGET);

        settle(&mut sim, 10);
        sim.crash(ids[0]);
        sim.recover(ids[0]);
        settle(&mut sim, 1_000);
        assert_eq!(registry.snapshot().counter("dace.control.pulls"), 1);
        for (tag, n) in [("first", 0), ("last", SUBS - 1), ("none", SUBS)] {
            DaceNode::publish_from(&mut sim, ids[0], PlainTick::new(tag.into(), n));
        }
        settle(&mut sim, 50);
        assert_eq!(
            *seen.lock().unwrap(),
            vec!["first".to_string(), "last".to_string()]
        );
        assert_eq!(registry.snapshot().counter("dace.direct_sent"), 2);
    }

    /// Gossip keeps disseminating while nodes crash and recover mid-rumor.
    #[test]
    fn gossip_survives_node_churn() {
        let config = DaceConfig {
            gossip: Some(LpbcastConfig {
                fanout: 5,
                rounds: 12,
                ..LpbcastConfig::default()
            }),
            ..DaceConfig::default()
        };
        let (mut sim, ids) = cluster(12, SimConfig::with_seed(8), config);
        let seens: Vec<Seen<String>> = ids[1..]
            .iter()
            .map(|&id| subscribe_plain(&mut sim, id, FilterSpec::accept_all()))
            .collect();
        settle(&mut sim, 20);
        // Crash a third of the cluster, publish, recover them mid-gossip.
        for &id in &ids[9..] {
            sim.crash(id);
        }
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("churn".into(), 1));
        settle(&mut sim, 60);
        for &id in &ids[9..] {
            sim.recover(id);
        }
        settle(&mut sim, 1_500);
        // Every node that stayed up must have the rumor.
        let up_reached = seens[..8]
            .iter()
            .filter(|seen| !seen.lock().unwrap().is_empty())
            .count();
        assert_eq!(up_reached, 8, "all surviving nodes must receive the rumor");
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Subscribes `node` to `FancyTick` (the subtype) recording tags.
    fn subscribe_fancy(sim: &mut SimNet, node: NodeId) -> Seen<String> {
        let seen: Seen<String> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        DaceNode::drive(sim, node, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: FancyTick| {
                sink.lock().unwrap().push(t.tag().clone());
            });
            sub.activate().unwrap();
            sub.detach();
        });
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// §3.2 subtyping: a kind subscription receives every publication
        /// whose class is a subtype of the subscribed kind — and a subtype
        /// subscription never sees supertype-only publications.
        #[test]
        fn kind_subscription_receives_all_subtype_publications(
            seed in 0u64..1_000,
            classes in proptest::collection::vec(0usize..2, 1..10),
        ) {
            let (mut sim, ids) = cluster(3, SimConfig::with_seed(seed), DaceConfig::default());
            let base_sub = subscribe_plain(&mut sim, ids[1], FilterSpec::accept_all());
            let fancy_sub = subscribe_fancy(&mut sim, ids[2]);
            settle(&mut sim, 10);

            // First publication of each class advertises it; publish one
            // throwaway of each so later routing is converged.
            DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("warm-p".into(), 0));
            DaceNode::publish_from(
                &mut sim,
                ids[0],
                FancyTick::new(PlainTick::new("warm-f".into(), 0), "e".into()),
            );
            settle(&mut sim, 500);
            base_sub.lock().unwrap().clear();
            fancy_sub.lock().unwrap().clear();

            for (i, &class) in classes.iter().enumerate() {
                let tag = format!("m{i}");
                match class {
                    0 => DaceNode::publish_from(
                        &mut sim,
                        ids[0],
                        PlainTick::new(tag, i as u64),
                    ),
                    _ => DaceNode::publish_from(
                        &mut sim,
                        ids[0],
                        FancyTick::new(PlainTick::new(tag, i as u64), "x".into()),
                    ),
                }
                settle(&mut sim, 20);
            }
            settle(&mut sim, 500);

            let all: Vec<String> = (0..classes.len()).map(|i| format!("m{i}")).collect();
            let fancies: Vec<String> = classes
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, _)| format!("m{i}"))
                .collect();
            prop_assert_eq!(
                base_sub.lock().unwrap().clone(),
                all,
                "supertype subscriber must see every publication, in order"
            );
            prop_assert_eq!(
                fancy_sub.lock().unwrap().clone(),
                fancies,
                "subtype subscriber must see exactly the subtype publications"
            );
        }
    }
}

mod durable_subscriptions {
    use super::*;

    /// §3.4.1: durable subscriptions outlive the process. Obvents arriving
    /// in the window between recovery and `activate_with_id` re-attachment
    /// are parked — and the durable subscription's *filter* governs what is
    /// parked.
    #[test]
    fn parking_respects_the_durable_filter() {
        let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
        let install = |sim: &mut SimNet, sink: Seen<u64>| {
            DaceNode::drive(sim, NodeId(1), move |domain| {
                let sub = domain.subscribe(
                    FilterSpec::remote(psc_filter::rfilter!(n < 10)),
                    move |t: CertifiedTick| {
                        sink.lock().unwrap().push(*t.n());
                    },
                );
                sub.activate_with_id(77).unwrap();
                sub.detach();
            });
        };
        let first: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install(&mut sim, first.clone());
        settle(&mut sim, 10);

        sim.crash(ids[1]);
        sim.recover(ids[1]);
        // Retransmissions arrive before the app re-attaches: one matching
        // (n=5), one filtered out (n=50).
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(5));
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(50));
        settle(&mut sim, 500);

        let second: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install(&mut sim, second.clone());
        settle(&mut sim, 1_000);
        assert_eq!(*first.lock().unwrap(), Vec::<u64>::new());
        assert_eq!(
            *second.lock().unwrap(),
            vec![5],
            "only the filter-matching obvent must be parked and replayed"
        );
    }

    /// Parking is for obvents that *arrive* while the durable handler is
    /// detached. A node's own publish reaches itself only when one of its
    /// active subscriptions matches — the mere existence of other local
    /// subscriptions must neither park it for the pending durable record
    /// nor leave a `matched=0` delivery in the flight recorder.
    #[test]
    fn self_published_obvents_are_not_parked_for_a_pending_durable_subscription() {
        let recorder = Arc::new(psc_telemetry::FlightRecorder::new("n1", 64));
        let mut sim = SimNet::new(SimConfig::default());
        let ids: Vec<NodeId> = (0..2u64).map(NodeId).collect();
        for i in 0..2 {
            let factory = DaceNode::factory_observable(
                ids.clone(),
                DaceConfig::default(),
                Arc::new(psc_telemetry::Registry::disabled()),
                Arc::new(psc_telemetry::Tracer::default()),
                (i == 1).then(|| Arc::clone(&recorder)),
                None,
            );
            sim.add_node(format!("dace{i}"), factory);
        }
        DaceNode::drive(&mut sim, ids[1], |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), |_t: PlainTick| {});
            sub.activate_with_id(77).unwrap();
            sub.detach();
        });
        settle(&mut sim, 10);
        sim.crash(ids[1]);
        sim.recover(ids[1]);
        // Another local subscription on the same class, matching nothing
        // published below.
        let other = subscribe_plain(
            &mut sim,
            ids[1],
            FilterSpec::remote(psc_filter::rfilter!(n > 1000)),
        );
        settle(&mut sim, 10);
        let queues = |sim: &mut SimNet| {
            let report = DaceNode::inspect_of(sim, NodeId(1)).expect("node up");
            let line = report
                .lines()
                .find(|l| l.contains("queues"))
                .expect("queues line");
            line.trim().to_string()
        };

        DaceNode::publish_from(&mut sim, ids[1], PlainTick::new("own".into(), 5));
        settle(&mut sim, 50);
        assert_eq!(
            queues(&mut sim),
            "queues parked=0 durable_pending=1"
        );
        let delivers = |recorder: &psc_telemetry::FlightRecorder| {
            let events = recorder.last(64);
            events
                .iter()
                .filter(|e| e.render().contains("deliver"))
                .count()
        };
        assert_eq!(delivers(&recorder), 0, "{:?}", recorder.last(64));

        // The same obvent arriving from a peer is owed to the detached
        // handler: parked.
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("peer".into(), 5));
        settle(&mut sim, 50);
        assert_eq!(
            queues(&mut sim),
            "queues parked=1 durable_pending=1"
        );
        assert_eq!(delivers(&recorder), 1);
        assert!(other.lock().unwrap().is_empty());
    }

    /// Explicit deactivation ends the durable lifetime: nothing is parked
    /// afterwards.
    #[test]
    fn explicit_deactivation_removes_the_durable_record() {
        let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let handle: Arc<Mutex<Option<pubsub_core::Subscription>>> = Arc::new(Mutex::new(None));
        let slot = handle.clone();
        DaceNode::drive(&mut sim, ids[1], move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: CertifiedTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate_with_id(88).unwrap();
            *slot.lock().unwrap() = Some(sub);
        });
        settle(&mut sim, 10);
        DaceNode::drive(&mut sim, ids[1], move |_domain| {
            handle.lock().unwrap().as_ref().unwrap().deactivate().unwrap();
        });
        settle(&mut sim, 10);
        // The durable record is gone from stable storage.
        assert_eq!(
            sim.storage(ids[1]).unwrap().keys_with_prefix("dursub/").count(),
            0
        );
        sim.crash(ids[1]);
        sim.recover(ids[1]);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(9));
        settle(&mut sim, 500);
        // Nothing parked, nothing delivered: the subscription truly ended.
        assert!(seen.lock().unwrap().is_empty());
    }
}

mod durable_wal {
    //! The per-channel write-ahead log: a disk-fault crash wipes the
    //! key–value map, so everything the next incarnation knows was replayed
    //! from fsynced log segments — and the certified stream must still
    //! resume exactly-once.

    use super::*;
    use psc_simnet::DiskFault;

    fn install_certified(sim: &mut SimNet, node: NodeId, durable_id: u64, sink: Seen<u64>) {
        DaceNode::drive(sim, node, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: CertifiedTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate_with_id(durable_id).unwrap();
            sub.detach();
        });
    }

    #[test]
    fn certified_stream_resumes_exactly_once_across_a_disk_fault_restart() {
        let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
        let first: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 42, first.clone());
        settle(&mut sim, 10);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(1));
        settle(&mut sim, 100);
        assert_eq!(*first.lock().unwrap(), vec![1]);

        // Power loss: only fsynced WAL bytes survive; the kv map is gone.
        sim.crash_with_fault(ids[1], DiskFault::LoseUnsynced);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(2));
        settle(&mut sim, 300);

        sim.recover(ids[1]);
        let second: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 42, second.clone());
        settle(&mut sim, 2_000);
        assert_eq!(
            *first.lock().unwrap(),
            vec![1],
            "the pre-crash handler must not fire again"
        );
        assert_eq!(
            *second.lock().unwrap(),
            vec![2],
            "resume must deliver the missed obvent once and never re-deliver the acked one"
        );
    }

    #[test]
    fn parked_obvents_survive_a_disk_fault() {
        let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
        let first: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 7, first.clone());
        settle(&mut sim, 10);

        // Detach via a plain crash; the durable record parks what arrives.
        sim.crash(ids[1]);
        sim.recover(ids[1]);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(5));
        settle(&mut sim, 500);

        // Now the disk fault: the parked obvent was already acked back to
        // the publisher, so only its park/<seq> WAL record can save it.
        sim.crash_with_fault(ids[1], DiskFault::LoseUnsynced);
        sim.recover(ids[1]);
        let second: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 7, second.clone());
        settle(&mut sim, 2_000);
        assert_eq!(*first.lock().unwrap(), Vec::<u64>::new());
        assert_eq!(
            *second.lock().unwrap(),
            vec![5],
            "a parked-then-acked obvent is owed to the subscriber across a disk fault"
        );
    }

    #[test]
    fn broken_sync_discipline_loses_an_acked_parked_obvent() {
        // The subscriber's disk acknowledges fsyncs without performing
        // them. A parked obvent is acked back to the publisher (certified
        // semantics satisfied from its side) and then exists only in the
        // park/<seq> WAL record — which a disk fault destroys when it was
        // never fsynced. The subscriber silently loses a delivery the
        // publisher believes is certified: exactly the violation the
        // harness's durability oracle exists to catch.
        let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
        sim.act_now(ids[1], |_, ctx| ctx.storage().drop_syncs());
        let first: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 9, first.clone());
        settle(&mut sim, 10);

        sim.crash(ids[1]);
        sim.recover(ids[1]);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(5));
        settle(&mut sim, 500);

        sim.crash_with_fault(ids[1], DiskFault::LoseUnsynced);
        sim.recover(ids[1]);
        let second: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 9, second.clone());
        settle(&mut sim, 2_000);
        assert_eq!(
            *second.lock().unwrap(),
            Vec::<u64>::new(),
            "without fsync the parked obvent must be lost (the wal-correct twin of this \
             scenario, parked_obvents_survive_a_disk_fault, delivers it)"
        );
    }

    #[test]
    fn recovery_is_exact_after_segment_rotation_and_compaction() {
        // Tiny thresholds force many rotations and checkpoint compactions;
        // replay must still reconstruct the exact delivered-set.
        let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
        for &id in &ids {
            sim.act_now(id, |_, ctx| ctx.storage().set_wal_limits(256, 1024));
        }
        let first: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 11, first.clone());
        settle(&mut sim, 10);
        for i in 0..20u64 {
            DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(i));
        }
        settle(&mut sim, 1_000);
        assert_eq!(first.lock().unwrap().len(), 20);

        sim.crash_with_fault(ids[1], DiskFault::LoseUnsynced);
        sim.recover(ids[1]);
        let second: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 11, second.clone());
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(100));
        settle(&mut sim, 2_000);
        assert_eq!(
            *second.lock().unwrap(),
            vec![100],
            "after rotation+compaction, replay must not lose or re-deliver anything"
        );
    }

    #[test]
    fn wal_keeps_channel_and_node_logs_and_recovers_exactly_once() {
        let (mut sim, ids) = cluster(2, SimConfig::default(), DaceConfig::default());
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 21, seen.clone());
        settle(&mut sim, 10);
        for i in 0..5u64 {
            DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(i));
        }
        settle(&mut sim, 1_000);
        assert_eq!(seen.lock().unwrap().len(), 5);
        let logs = sim.storage(ids[1]).unwrap().wal_logs();
        assert!(
            logs.iter().any(|l| l.starts_with("ch/")) && logs.iter().any(|l| l == "node"),
            "expected channel + node logs, got {logs:?}"
        );

        sim.crash_with_fault(ids[1], DiskFault::LoseUnsynced);
        sim.recover(ids[1]);
        let second: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        install_certified(&mut sim, ids[1], 21, second.clone());
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(100));
        settle(&mut sim, 2_000);
        assert_eq!(
            *second.lock().unwrap(),
            vec![100],
            "disk-fault restart must resume exactly-once"
        );
    }
}

mod snapshots {
    use super::*;

    fn subscribe_certified(sim: &mut SimNet, node: NodeId) -> Seen<u64> {
        let seen: Seen<u64> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        DaceNode::drive(sim, node, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |t: CertifiedTick| {
                sink.lock().unwrap().push(*t.n());
            });
            sub.activate().unwrap();
            sub.detach();
        });
        seen
    }

    /// One full run: warm up, publish a certified stream, snapshot from n0
    /// while more publishes are in flight, settle, and return the completed
    /// cut's byte-stable rendering.
    fn run_once(sim_config: SimConfig, dace_config: DaceConfig) -> String {
        let (mut sim, ids) = cluster(3, sim_config, dace_config);
        subscribe_certified(&mut sim, ids[1]);
        subscribe_certified(&mut sim, ids[2]);
        settle(&mut sim, 20);
        for i in 0..5u64 {
            DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(i));
        }
        // Snapshot while the certified ack/retransmit machinery is hot,
        // with more traffic crossing the wave.
        DaceNode::snapshot_from(&mut sim, ids[0]);
        for i in 5..8u64 {
            DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(i));
        }
        settle(&mut sim, 3_000);
        let cut = DaceNode::snapshot_cut_of(&mut sim, ids[0]).expect("cut must complete");
        assert_eq!(cut.snap, 1);
        assert_eq!(cut.initiator, ids[0].0);
        assert!(cut.complete(&[0, 1, 2]));
        assert_eq!(
            cut.consistency_violations(),
            Vec::<String>::new(),
            "a correctly disciplined run must produce a consistent cut"
        );
        cut.render()
    }

    #[test]
    fn snapshot_mid_traffic_completes_and_replays_byte_identically() {
        let a = run_once(SimConfig::with_seed(11), DaceConfig::default());
        let b = run_once(SimConfig::with_seed(11), DaceConfig::default());
        assert_eq!(a, b, "same seed must render the same cluster image");
        assert!(a.contains("cluster snapshot #1"), "{a}");
        for node in ["node n0", "node n1", "node n2"] {
            assert!(a.contains(node), "missing {node} in:\n{a}");
        }
        assert!(a.contains("proto=certified"), "{a}");
    }

    #[test]
    fn snapshot_completes_under_heavy_message_loss() {
        // Markers ride the same lossy links as everything else; liveness
        // comes from the SnapRetry re-floods.
        let render = run_once(SimConfig::with_loss(0.3), DaceConfig::default());
        assert!(render.contains("cluster snapshot #1"));
    }

    #[test]
    fn second_wave_supersedes_the_first() {
        let (mut sim, ids) = cluster(3, SimConfig::default(), DaceConfig::default());
        subscribe_certified(&mut sim, ids[1]);
        settle(&mut sim, 20);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(1));
        DaceNode::snapshot_from(&mut sim, ids[0]);
        settle(&mut sim, 2_000);
        assert!(DaceNode::snapshot_cut_of(&mut sim, ids[0]).is_some());
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(2));
        DaceNode::snapshot_from(&mut sim, ids[1]);
        settle(&mut sim, 2_000);
        let cut = DaceNode::snapshot_cut_of(&mut sim, ids[1]).expect("second wave completes");
        assert_eq!(cut.snap, 2, "wave ids are monotone across initiators");
        assert_eq!(cut.initiator, ids[1].0);
        // n0's completed cut of wave 1 is retired once it joins wave 2.
        assert!(DaceNode::snapshot_cut_of(&mut sim, ids[0]).is_none());
        let inspect = DaceNode::inspect_of(&mut sim, ids[2]).expect("node up");
        assert!(inspect.contains("snapshot wave=2"), "{inspect}");
    }

    #[test]
    fn reinitiating_node_retires_its_previous_cut_and_completes_again() {
        // Regression: the initiator's completed wave-1 cut must not
        // satisfy wave 2's completion check (it is retired at re-entry).
        let (mut sim, ids) = cluster(3, SimConfig::default(), DaceConfig::default());
        subscribe_certified(&mut sim, ids[1]);
        settle(&mut sim, 20);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(1));
        DaceNode::snapshot_from(&mut sim, ids[0]);
        settle(&mut sim, 2_000);
        assert_eq!(DaceNode::snapshot_cut_of(&mut sim, ids[0]).expect("wave 1").snap, 1);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(2));
        DaceNode::snapshot_from(&mut sim, ids[0]);
        settle(&mut sim, 2_000);
        let cut = DaceNode::snapshot_cut_of(&mut sim, ids[0]).expect("wave 2 completes");
        assert_eq!(cut.snap, 2, "the re-initiated wave must supersede the first cut");
    }

    #[test]
    fn snapshot_completes_while_a_peer_is_crashed() {
        let (mut sim, ids) = cluster(3, SimConfig::default(), DaceConfig::default());
        subscribe_certified(&mut sim, ids[1]);
        subscribe_certified(&mut sim, ids[2]);
        settle(&mut sim, 20);
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(7));
        settle(&mut sim, 200);
        sim.crash(ids[2]);
        DaceNode::snapshot_from(&mut sim, ids[0]);
        settle(&mut sim, 1_000);
        // The dead peer cannot contribute a fragment, so the cut stays
        // open; recover it and the retry re-floods ignite its capture.
        assert!(DaceNode::snapshot_cut_of(&mut sim, ids[0]).is_none());
        sim.recover(ids[2]);
        settle(&mut sim, 3_000);
        let cut = DaceNode::snapshot_cut_of(&mut sim, ids[0]).expect("cut after recovery");
        assert!(cut.complete(&[0, 1, 2]));
        let frag = cut.frags.get(&ids[2].0).expect("recovered fragment");
        assert!(frag.recovered, "recovered node must flag its fragment");
        assert_eq!(cut.consistency_violations(), Vec::<String>::new());
    }
}

mod hostile_control {
    //! A peer's bytes are hostile: a `SubscribeCtl` filter is decoded with
    //! bounded nesting and validated before it reaches any index.
    use super::*;
    use crate::control::{AdvertiseCtl, SubscribeCtl};
    use psc_filter::{CmpOp, EvalNode, Predicate};
    use psc_obvent::{Obvent, WireObvent};
    use psc_telemetry::{Registry, Tracer};

    /// The transport image of `NodeMsg::Control(wire)`, assembled the way
    /// a peer that does not link this crate would: variant 0, then the
    /// obvent.
    fn frame_of(wire: &WireObvent) -> Vec<u8> {
        let mut frame = vec![0u8];
        frame.extend(psc_codec::to_bytes(wire).unwrap());
        frame
    }

    fn control_frame(filter: Vec<u8>) -> Vec<u8> {
        let ctl = SubscribeCtl::new(
            2,
            99,
            PlainTick::kind_id().as_u64(),
            PlainTick::kind_id().as_u64(),
            filter.into(),
        );
        frame_of(&WireObvent::encode(&ctl).unwrap())
    }

    /// `ctl`'s envelope with its payload cut three bytes short.
    fn truncated<O: Obvent>(ctl: &O) -> Vec<u8> {
        let payload = psc_codec::to_bytes(ctl).unwrap();
        frame_of(&WireObvent::from_parts(
            O::kind_id(),
            payload[..payload.len() - 3].to_vec(),
        ))
    }

    /// A control obvent that does not decode as its kind is dropped and
    /// counted like a refused filter; nothing of it reaches the view, the
    /// index or the digests.
    #[test]
    fn undecodable_control_obvents_are_counted_and_change_nothing() {
        let registry = Arc::new(Registry::new());
        let mut sim = SimNet::new(SimConfig::default());
        let ids: Vec<NodeId> = (0..3u64).map(NodeId).collect();
        for i in 0..3 {
            let telemetry = if i == 0 {
                Arc::clone(&registry)
            } else {
                Arc::new(Registry::disabled())
            };
            let factory = DaceNode::factory_with_telemetry(
                ids.clone(),
                DaceConfig::default(),
                telemetry,
                Arc::new(Tracer::default()),
            );
            sim.add_node(format!("dace{i}"), factory);
        }
        let honest = subscribe_plain(
            &mut sim,
            ids[1],
            FilterSpec::remote(psc_filter::rfilter!(n < 10)),
        );
        settle(&mut sim, 10);
        let before = DaceNode::inspect_of(&mut sim, ids[0]).unwrap();

        let kind = PlainTick::kind_id().as_u64();
        let subscribe = SubscribeCtl::new(
            2,
            7,
            kind,
            kind,
            psc_codec::to_bytes(&psc_filter::rfilter!(n < 99))
                .unwrap()
                .into(),
        );
        let advertise = AdvertiseCtl::new(0xad, "x.Hostile".into(), vec![0xad, 1, 2, 3]);
        for frame in [truncated(&subscribe), truncated(&advertise)] {
            sim.send_external(ids[2], ids[0], frame);
        }
        settle(&mut sim, 10);
        let counts = registry.snapshot();
        assert_eq!(counts.counter("dace.control.rejected"), 2);
        assert_eq!(DaceNode::inspect_of(&mut sim, ids[0]).unwrap(), before);

        // The digests agree: the next announces start no pull.
        settle(&mut sim, 1_000);
        assert_eq!(registry.snapshot().counter("dace.control.pulls"), 0);
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("a".into(), 5));
        settle(&mut sim, 50);
        assert_eq!(*honest.lock().unwrap(), vec!["a".to_string()]);
        assert_eq!(registry.snapshot().counter("dace.direct_sent"), 1);
    }

    #[test]
    fn hostile_filters_are_rejected_and_the_node_keeps_running() {
        let registry = Arc::new(Registry::new());
        let mut sim = SimNet::new(SimConfig::default());
        let ids: Vec<NodeId> = (0..3u64).map(NodeId).collect();
        for i in 0..3 {
            let telemetry = if i == 0 {
                Arc::clone(&registry)
            } else {
                Arc::new(Registry::disabled())
            };
            let factory = DaceNode::factory_with_telemetry(
                ids.clone(),
                DaceConfig::default(),
                telemetry,
                Arc::new(Tracer::default()),
            );
            sim.add_node(format!("dace{i}"), factory);
        }
        let honest = subscribe_plain(
            &mut sim,
            ids[1],
            FilterSpec::remote(psc_filter::rfilter!(n < 10)),
        );
        settle(&mut sim, 10);

        // `!!!…!true`, 100 000 deep: every walk of it would recurse that
        // far — decode, insert, eval, drop.
        let not_tag = psc_codec::to_bytes(&EvalNode::Not(Box::new(EvalNode::True))).unwrap()[0];
        let mut deep = vec![0u8];
        deep.extend(std::iter::repeat_n(not_tag, 100_000));
        deep.push(psc_codec::to_bytes(&EvalNode::True).unwrap()[0]);
        // A tree naming a predicate the filter does not carry.
        let dangling =
            psc_codec::to_bytes(&(vec![Predicate::new("n", CmpOp::Lt, 10)], EvalNode::Pred(3)))
                .unwrap();
        for filter in [deep, dangling] {
            sim.send_external(ids[2], ids[0], control_frame(filter));
        }
        settle(&mut sim, 10);
        assert_eq!(registry.snapshot().counter("dace.control.rejected"), 2);

        // Still serving, and the refused subscription is not a destination
        // (a filter that merely failed to decode used to count as "no
        // filter": node 2 would have received everything).
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("a".into(), 5));
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new("b".into(), 50));
        settle(&mut sim, 50);
        assert_eq!(*honest.lock().unwrap(), vec!["a".to_string()]);
        assert_eq!(registry.snapshot().counter("dace.direct_sent"), 1);
        assert!(DaceNode::filter_oracle_of(
            &mut sim,
            ids[0],
            &psc_filter::Value::record([("n", psc_filter::Value::Int(5))])
        )
        .is_empty());
    }
}

mod class_resolution {
    //! A subscription to an interface joins every class of it the node
    //! knows of, also when the class became known after an earlier
    //! subscription to the same interface resolved its classes.
    use super::*;
    use crate::control::AdvertiseCtl;
    use psc_obvent::{declare_obvent_interface, WireObvent};

    declare_obvent_interface! {
        pub interface Watched;
    }
    declare_obvent_interface! {
        pub interface WatchedMore extends [Watched];
    }
    declare_obvent_model! {
        pub class EarlyWatch implements [Watched] { n: u64 }
    }
    declare_obvent_model! {
        pub class PeerWatch implements [Watched] { n: u64 }
    }
    declare_obvent_model! {
        pub class LocalWatch implements [Watched] { n: u64 }
    }

    fn subscribe_watched(sim: &mut SimNet, node: NodeId) {
        DaceNode::drive(sim, node, |domain| {
            let sub = domain.subscribe_view(Watched::kind(), FilterSpec::accept_all(), |_| {});
            sub.activate().unwrap();
            sub.detach();
        });
        settle(sim, 10);
    }

    /// The classes `node`'s newest subscription joined, as its inspect
    /// report lists them.
    fn newest_joined(sim: &mut SimNet, node: NodeId) -> String {
        let report = DaceNode::inspect_of(sim, node).unwrap();
        let line = report.lines().rfind(|l| l.trim_start().starts_with("sub="));
        line.and_then(|l| l.split("joined=").nth(1))
            .unwrap()
            .to_string()
    }

    #[test]
    fn later_subscriptions_join_classes_that_became_known_meanwhile() {
        let (mut sim, ids) = cluster(3, SimConfig::default(), DaceConfig::default());
        let _ = (EarlyWatch::kind(), WatchedMore::kind());
        subscribe_watched(&mut sim, ids[1]);
        assert!(newest_joined(&mut sim, ids[1]).contains("EarlyWatch"));

        // A peer publishes a class of the interface: it advertises it.
        DaceNode::publish_from(&mut sim, ids[0], PeerWatch::new(1));
        settle(&mut sim, 10);
        subscribe_watched(&mut sim, ids[1]);
        assert!(newest_joined(&mut sim, ids[1]).contains("PeerWatch"));

        // A class first registered in this process, advertised by nobody.
        let _ = LocalWatch::kind();
        subscribe_watched(&mut sim, ids[1]);
        assert!(newest_joined(&mut sim, ids[1]).contains("LocalWatch"));

        // A peer advertises a kind this process registered long ago: only
        // the node's known kinds grew.
        let more = WatchedMore::kind();
        let advert = AdvertiseCtl::new(
            more.id().as_u64(),
            more.name().to_string(),
            more.ancestry().iter().map(|k| k.as_u64()).collect(),
        );
        let mut frame = vec![0u8];
        frame.extend(psc_codec::to_bytes(&WireObvent::encode(&advert).unwrap()).unwrap());
        sim.send_external(ids[2], ids[1], frame);
        settle(&mut sim, 10);
        subscribe_watched(&mut sim, ids[1]);
        assert!(newest_joined(&mut sim, ids[1]).contains("WatchedMore"));
    }
}
