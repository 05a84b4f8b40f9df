//! Exact per-publish counts, alone in their process on purpose:
//! `codec.encodes` lives in the process-global telemetry registry, which
//! any other test's traffic would bump concurrently (the cases below
//! take turns for the same reason).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use psc_dace::{DaceConfig, DaceNode};
use psc_filter::{CmpOp, Predicate, RemoteFilter};
use psc_obvent::builtin::Certified;
use psc_obvent::declare_obvent_model;
use psc_simnet::{DiskFault, Duration, NodeId, SimConfig, SimNet};
use psc_telemetry::{Registry, Tracer};
use pubsub_core::FilterSpec;

declare_obvent_model! {
    /// A best-effort kind: no QoS marker, so it travels as direct sends.
    pub class PlainTick { n: u64 }
}
declare_obvent_model! {
    pub class CertifiedTick implements [Certified] { n: u64 }
}

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// An `n`-node cluster recording into one registry (counts are sums over
/// the cluster, and survive a node's crash).
fn cluster(n: u64, config: DaceConfig) -> (SimNet, Vec<NodeId>, Arc<Registry>) {
    let mut sim = SimNet::new(SimConfig::default());
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let tracer = Arc::new(Tracer::default());
    tracer.set_enabled(false);
    let registry = Arc::new(Registry::new());
    for i in 0..n {
        sim.add_node(
            format!("n{i}"),
            DaceNode::factory_with_telemetry(
                ids.clone(),
                config.clone(),
                Arc::clone(&registry),
                Arc::clone(&tracer),
            ),
        );
    }
    (sim, ids, registry)
}

fn settle(sim: &mut SimNet, ms: u64) {
    let deadline = sim.now() + Duration::from_millis(ms);
    sim.run_until(deadline);
}

/// `codec.encodes` spent on `PUBLISHES` best-effort publishes to `fanout`
/// remote subscribers (each reached by exactly one direct send).
fn best_effort_encodes(fanout: u64) -> u64 {
    const PUBLISHES: u64 = 20;
    // Keep the periodic re-announcements out of the publish window.
    let config = DaceConfig { announce_interval: Duration::from_secs(30), ..DaceConfig::default() };
    let (mut sim, ids, registry) = cluster(fanout + 1, config);
    let delivered = Arc::new(AtomicU64::new(0));
    for &id in &ids[1..] {
        let delivered = Arc::clone(&delivered);
        DaceNode::drive(&mut sim, id, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |_t: PlainTick| {
                delivered.fetch_add(1, Ordering::Relaxed);
            });
            sub.activate().unwrap();
            sub.detach();
        });
    }
    settle(&mut sim, 50);

    let encodes = psc_telemetry::global().counter("codec.encodes");
    let before = (encodes.get(), registry.snapshot().counter("dace.direct_sent"));
    for n in 0..PUBLISHES {
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new(n));
    }
    settle(&mut sim, 1_000);
    assert_eq!(delivered.load(Ordering::Relaxed), PUBLISHES * fanout);
    let direct_sent = registry.snapshot().counter("dace.direct_sent") - before.1;
    assert_eq!(direct_sent, PUBLISHES * fanout, "one direct send per remote subscriber");
    encodes.get() - before.0
}

/// Serialize-once: what a publish costs the codec does not depend on how
/// many nodes it fans out to — the wire form is encoded once and shared.
/// The level is today's exact figure, 2.1 encodes per publish (the one
/// E8's end-to-end table prints at every fan-out).
#[test]
fn best_effort_fanout_encodes_once_per_publish_whatever_the_fanout() {
    let _turn = ONE_AT_A_TIME.lock().unwrap();
    psc_telemetry::set_global_enabled(true);
    let narrow = best_effort_encodes(2);
    let wide = best_effort_encodes(8);
    assert_eq!(narrow, 42, "codec.encodes for 20 publishes");
    assert_eq!(wide, narrow, "codec.encodes per publish must not grow with fan-out");
}

/// A direct publish costs the simulator its deliveries and nothing else:
/// no timer is armed to pace the sends, so 20 publishes to 2 subscribers
/// are 40 delivery events, plus the 2 advertisements of the kind's first
/// publish.
#[test]
fn a_direct_publish_costs_one_event_per_delivery() {
    // Takes its turn: its traffic would bump the others' global counts.
    let _turn = ONE_AT_A_TIME.lock().unwrap();
    let config = DaceConfig {
        announce_interval: Duration::from_secs(30),
        ..DaceConfig::default()
    };
    let (mut sim, ids, _registry) = cluster(3, config);
    let delivered = Arc::new(AtomicU64::new(0));
    for &id in &ids[1..] {
        let delivered = Arc::clone(&delivered);
        DaceNode::drive(&mut sim, id, move |domain| {
            let sub = domain.subscribe(FilterSpec::accept_all(), move |_t: PlainTick| {
                delivered.fetch_add(1, Ordering::Relaxed);
            });
            sub.activate().unwrap();
            sub.detach();
        });
    }
    settle(&mut sim, 50);
    let mut events = 0;
    for n in 0..20 {
        DaceNode::publish_from(&mut sim, ids[0], PlainTick::new(n));
        events += sim.run_until(sim.now() + Duration::from_millis(10));
    }
    assert_eq!(delivered.load(Ordering::Relaxed), 40);
    assert_eq!(events, 42, "simulator events over 20 publishes");
}

fn attach_durable(sim: &mut SimNet, node: NodeId) -> Arc<AtomicU64> {
    let delivered = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&delivered);
    DaceNode::drive(sim, node, move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |_t: CertifiedTick| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        sub.activate_with_id(0xE14).unwrap();
        sub.detach();
    });
    delivered
}

/// What durability costs the logs, per certified publish to one durable
/// subscriber (publisher's and subscriber's logs together) — and that the
/// log is worth it: after a crash, recovery and re-attach under the same
/// durable id nothing is delivered twice. The counts are exact although
/// the simulator reorders the burst: a first delivery is one record
/// whether it arrived in order or not, so moving either count is a
/// deliberate edit here.
///
/// - appends, 770 = 3 × 256 + 2: per publish the publisher's frame record,
///   the subscriber's delivered record and the frame's removal on the ack;
///   once, the publisher's epoch record (with its first frame) and the
///   durable subscription's record;
/// - syncs, 514 = 1 + 256 + 256 + 1: one commit for the burst of 256
///   frames, one per delivery at the subscriber, one per ack at the
///   publisher, one for the subscription.
#[test]
fn certified_publishes_cost_three_appends_two_syncs_and_recover_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap();
    const PUBLISHES: u64 = 256;
    // Small segments so the burst crosses rotations; compaction held off
    // so recovery replays the full history.
    let (mut sim, ids, registry) = cluster(2, DaceConfig::default());
    for &id in &ids {
        sim.act_now(id, |_, ctx| ctx.storage().set_wal_limits(4 * 1024, 1 << 20));
    }
    let first = attach_durable(&mut sim, ids[1]);
    settle(&mut sim, 40);
    DaceNode::drive(&mut sim, ids[0], |domain| {
        for n in 0..PUBLISHES {
            domain.publish(CertifiedTick::new(n)).unwrap();
        }
    });
    settle(&mut sim, 2_000);
    assert_eq!(first.load(Ordering::Relaxed), PUBLISHES);

    let counts = registry.snapshot();
    assert_eq!(counts.counter("wal.appends"), 770, "wal.appends for {PUBLISHES} publishes");
    assert_eq!(counts.counter("wal.syncs"), 514, "wal.syncs for {PUBLISHES} publishes");

    sim.crash_with_fault(ids[1], DiskFault::None);
    settle(&mut sim, 20);
    sim.recover(ids[1]);
    let second = attach_durable(&mut sim, ids[1]);
    settle(&mut sim, 1_000);
    assert!(
        registry.snapshot().counter("wal.replay.records") > counts.counter("wal.replay.records"),
        "recovery replays the log"
    );
    assert_eq!(second.load(Ordering::Relaxed), 0, "the delivered set survived: no redelivery");
    assert_eq!(first.load(Ordering::Relaxed), PUBLISHES, "the dead handler stays silent");
}

/// What the logs write for `PUBLISHES` certified publishes, one at a
/// time, to a durable subscriber that attached after the publisher's
/// first `EARLY` (which had no target). Every later frame names where the
/// subscriber's part of the stream starts until it acknowledges one, so
/// each delivery appends a `cert/delivered/<origin>` record of a few bytes
/// (a watermark), not one listing every seq delivered past the `EARLY` it
/// never saw (which would read 22 647 here: one more byte per delivery,
/// per seq past the gap). Moving the count is a deliberate edit here.
#[test]
fn a_late_durable_subscriber_logs_a_watermark_per_delivery() {
    let _turn = ONE_AT_A_TIME.lock().unwrap();
    const EARLY: u64 = 3;
    const PUBLISHES: u64 = 100;
    let (mut sim, ids, registry) = cluster(2, DaceConfig::default());
    for n in 0..EARLY {
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(n));
    }
    settle(&mut sim, 40);
    let delivered = attach_durable(&mut sim, ids[1]);
    settle(&mut sim, 40);
    for n in EARLY..EARLY + PUBLISHES {
        DaceNode::publish_from(&mut sim, ids[0], CertifiedTick::new(n));
        settle(&mut sim, 20);
    }
    assert_eq!(delivered.load(Ordering::Relaxed), PUBLISHES);
    let bytes = registry.snapshot().counter("wal.bytes");
    assert_eq!(bytes, 17_597, "wal.bytes for {EARLY} + {PUBLISHES} publishes");
}

/// `dace.control_sent`, summed over a two-node cluster, across ten announce
/// intervals after the control plane has converged: `subs` filtered
/// subscriptions at n1, one published kind at n0.
fn steady_control_sent(subs: u64) -> u64 {
    let (mut sim, ids, registry) = cluster(2, DaceConfig::default());
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        for n in 0..subs {
            let filter = RemoteFilter::conjunction(vec![Predicate::new("n", CmpOp::Eq, n)]);
            let sub = domain.subscribe(FilterSpec::remote(filter), |_t: PlainTick| {});
            sub.activate().unwrap();
            sub.detach();
        }
    });
    DaceNode::publish_from(&mut sim, ids[0], PlainTick::new(0));
    // Announces fire every 200 ms from t = 0; measure from between two.
    settle(&mut sim, 1_100);
    let before = registry.snapshot().counter("dace.control_sent");
    settle(&mut sim, 2_000);
    registry.snapshot().counter("dace.control_sent") - before
}

/// Anti-entropy's steady-state price does not grow with the subscription
/// count: per interval, one digest per peer from each node, plus n0's one
/// advertisement of its published kind — 10 × (2 + 1) = 30.
#[test]
fn steady_state_control_traffic_does_not_grow_with_the_subscription_count() {
    let _turn = ONE_AT_A_TIME.lock().unwrap();
    for subs in [20, 2_000] {
        assert_eq!(
            steady_control_sent(subs),
            30,
            "dace.control_sent at {subs} subscriptions"
        );
    }
}

declare_obvent_model! {
    /// `filter_match`'s subscription shape: an equality gate and a price
    /// band per subscription.
    pub class InstallQuote { symbol: String, price: f64 }
}

/// What installing `SUBS` filtered subscriptions on n1 in one drive costs:
/// `dace.control_sent`, the frames and bytes n0 receives (n0 sends nothing
/// back: announces are held off), and the codec's encodes and decodes
/// across both nodes.
fn install_traffic() -> (u64, u64, u64, u64, u64) {
    const SUBS: u32 = 2_000;
    let config = DaceConfig {
        announce_interval: Duration::from_secs(30),
        ..DaceConfig::default()
    };
    let (mut sim, ids, registry) = cluster(2, config);
    settle(&mut sim, 50);
    sim.reset_stats();
    let codec = psc_telemetry::global();
    let (encodes, decodes) = (
        codec.counter("codec.encodes"),
        codec.counter("codec.decodes"),
    );
    let before = (
        registry.snapshot().counter("dace.control_sent"),
        encodes.get(),
        decodes.get(),
    );
    DaceNode::drive(&mut sim, ids[1], move |domain| {
        for n in 0..SUBS {
            let band = f64::from(n % 4) * 25.0;
            let filter = RemoteFilter::conjunction(vec![
                Predicate::new("symbol", CmpOp::Eq, format!("S{:04}", n / 4)),
                Predicate::new("price", CmpOp::Ge, band),
                Predicate::new("price", CmpOp::Lt, band + 25.0),
            ]);
            let sub = domain.subscribe(FilterSpec::remote(filter), |_q: InstallQuote| {});
            sub.activate().unwrap();
            sub.detach();
        }
    });
    settle(&mut sim, 50);
    let stats = sim.stats();
    assert_eq!(
        stats.delivered, stats.sent,
        "n0 received all of it and sent nothing"
    );
    (
        registry.snapshot().counter("dace.control_sent") - before.0,
        stats.sent,
        stats.bytes_sent,
        encodes.get() - before.1,
        decodes.get() - before.2,
    )
}

/// Installing subscriptions costs the wire exactly one `SubscribeCtl` per
/// subscription and class, coalesced into one batch frame to the peer.
#[test]
fn filtered_subscription_install_traffic_is_pinned() {
    let _turn = ONE_AT_A_TIME.lock().unwrap();
    psc_telemetry::set_global_enabled(true);
    let (control_sent, frames, bytes, encodes, decodes) = install_traffic();
    assert_eq!(control_sent, 2_000, "dace.control_sent");
    assert_eq!(frames, 1, "control frames n0 receives");
    assert_eq!(bytes, 201_877, "control bytes n0 receives");
    assert_eq!(encodes, 6_001, "codec.encodes");
    // Per subscription, n1 encodes its filter once (at activation) and
    // its `SubscribeCtl` twice (obvent, envelope); n0 decodes the envelope
    // and the obvent. n0's index decodes only the predicates it does not
    // hold yet, once each: 500 symbols and 8 price bounds. The rest are
    // found by their bytes.
    assert_eq!(decodes, 4_509, "codec.decodes");
}
