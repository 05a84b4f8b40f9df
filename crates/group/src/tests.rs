use std::sync::Arc;

use proptest::prelude::*;

use psc_simnet::{Duration, NodeId, SimConfig, SimNet, SimTime};
use psc_telemetry::Registry;

use crate::causal::CausalHoldBack;
use crate::fifo::FifoHoldBack;
use crate::reliable::{Eager, HoldBack};
use crate::sim_host::GroupNode;
use crate::{BestEffort, Causal, Certified, Fifo, Lpbcast, LpbcastConfig, Multicast, Reliable, Total};

/// Builds a simulation with `n` nodes running protocol instances from
/// `make`, all members of one group.
fn cluster(
    n: usize,
    config: SimConfig,
    make: impl Fn() -> Box<dyn Multicast> + Clone + 'static,
) -> (SimNet, Vec<NodeId>) {
    let mut sim = SimNet::new(config);
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let make = make.clone();
            sim.add_node(format!("n{i}"), move || GroupNode::boxed(make()))
        })
        .collect();
    for &id in &ids {
        GroupNode::set_members(&mut sim, id, ids.clone());
    }
    (sim, ids)
}

/// Node `id`'s duplicate-suppression records: `(origin, watermark, seqs
/// past a gap)` per stream.
fn stream_records<H: HoldBack>(sim: &mut SimNet, id: NodeId) -> Vec<(NodeId, u64, usize)> {
    GroupNode::with_proto::<Eager<H>, _>(sim, id, |proto| {
        let streams = proto.seen.0.iter().flat_map(|(&origin, epochs)| epochs.values().map(move |seen| (origin, seen)));
        streams.map(|(origin, seen)| (origin, seen.upto, seen.above.len())).collect()
    })
    .unwrap()
}

fn payload(tag: u8, i: u64) -> Vec<u8> {
    let mut p = vec![tag];
    p.extend_from_slice(&i.to_le_bytes());
    p
}

mod besteffort {
    use super::*;

    #[test]
    fn delivers_to_all_members_without_loss() {
        let (mut sim, ids) = cluster(4, SimConfig::default(), || Box::new(BestEffort::new()));
        GroupNode::broadcast(&mut sim, ids[0], b"tick".to_vec());
        sim.run_to_quiescence();
        for &id in &ids {
            let delivered = GroupNode::delivered(&mut sim, id);
            assert_eq!(delivered, vec![(ids[0], b"tick".to_vec())], "node {id}");
        }
    }

    #[test]
    fn loses_messages_under_loss_and_sends_n_minus_1() {
        let (mut sim, ids) = cluster(
            10,
            SimConfig::with_loss(0.5),
            || Box::new(BestEffort::new()),
        );
        sim.reset_stats();
        GroupNode::broadcast(&mut sim, ids[0], b"x".to_vec());
        sim.run_to_quiescence();
        assert_eq!(sim.stats().sent, 9); // exactly one send per other member
        let received: usize = ids
            .iter()
            .map(|&id| GroupNode::delivered(&mut sim, id).len())
            .sum();
        // Origin always delivers; some subset of the rest.
        assert!(received >= 1);
        assert!(received < 10, "50% loss should drop something");
    }
}

mod reliable {
    use super::*;

    #[test]
    fn survives_heavy_loss_via_redundancy() {
        // With eager re-forwarding each message has n-1 independent entry
        // paths per holder; at 30% loss and 8 nodes delivery is (for this
        // seed) complete.
        let (mut sim, ids) = cluster(8, SimConfig::with_loss(0.3), || Box::new(Reliable::new()));
        for i in 0..5u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(1, i));
        }
        sim.run_to_quiescence();
        for &id in &ids {
            assert_eq!(
                GroupNode::delivered(&mut sim, id).len(),
                5,
                "node {id} missed messages"
            );
        }
    }

    #[test]
    fn no_duplicate_deliveries_despite_redundant_relays() {
        let (mut sim, ids) = cluster(5, SimConfig::default(), || Box::new(Reliable::new()));
        GroupNode::broadcast(&mut sim, ids[2], b"once".to_vec());
        sim.run_to_quiescence();
        for &id in &ids {
            assert_eq!(GroupNode::delivered(&mut sim, id).len(), 1);
        }
        // Redundancy really happened: more sends than best-effort's n-1.
        assert!(sim.stats().sent > 4);
    }

    #[test]
    fn costs_quadratic_messages() {
        let (mut sim, ids) = cluster(6, SimConfig::default(), || Box::new(Reliable::new()));
        sim.reset_stats();
        GroupNode::broadcast(&mut sim, ids[0], b"x".to_vec());
        sim.run_to_quiescence();
        // Origin sends n-1, each of the other 5 re-forwards n-1: 6*5 = 30.
        assert_eq!(sim.stats().sent, 30);
    }

    /// A first receipt is relayed to the members other than the origin and
    /// the receiver: `n − 2` of them, none in a pair, where neither a frame
    /// nor a `reliable.relays` count is spent on an empty list.
    #[test]
    fn relays_go_to_the_other_n_minus_two_members() {
        const BROADCASTS: u64 = 10;
        for n in [2u64, 3] {
            let registry = Arc::new(Registry::new());
            let mut sim = SimNet::new(SimConfig::default());
            let ids: Vec<NodeId> = (0..n)
                .map(|i| {
                    let registry = Arc::clone(&registry);
                    sim.add_node(format!("n{i}"), move || {
                        GroupNode::boxed_with_telemetry(Reliable::new(), Arc::clone(&registry))
                    })
                })
                .collect();
            for &id in &ids {
                GroupNode::set_members(&mut sim, id, ids.clone());
            }
            for i in 0..BROADCASTS {
                GroupNode::broadcast(&mut sim, ids[0], payload(1, i));
            }
            sim.run_to_quiescence();
            let receipts = BROADCASTS * (n - 1);
            let relays = registry.snapshot().counter("group.reliable.relays");
            assert_eq!(relays, receipts * (n - 2), "relays at n = {n}");
            // Per broadcast: a frame and an ack per receiver, plus the relays.
            assert_eq!(sim.stats().sent, 2 * receipts + relays, "frames at n = {n}");
        }
    }
}

mod fifo {
    use super::*;

    #[test]
    fn per_publisher_order_holds_despite_variable_latency() {
        let (mut sim, ids) = cluster(4, SimConfig::with_seed(11), || Box::new(Fifo::new()));
        for i in 0..20u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(7, i));
        }
        sim.run_to_quiescence();
        for &id in &ids {
            let got = GroupNode::delivered_payloads(&mut sim, id);
            let expected: Vec<Vec<u8>> = (0..20).map(|i| payload(7, i)).collect();
            assert_eq!(got, expected, "node {id} out of order");
        }
    }

    #[test]
    fn interleaved_publishers_each_stay_ordered() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(5), || Box::new(Fifo::new()));
        for i in 0..10u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
            GroupNode::broadcast(&mut sim, ids[1], payload(1, i));
        }
        sim.run_to_quiescence();
        for &id in &ids {
            let delivered = GroupNode::delivered(&mut sim, id);
            assert_eq!(delivered.len(), 20);
            for origin in [ids[0], ids[1]] {
                let seqs: Vec<u64> = delivered
                    .iter()
                    .filter(|(o, _)| *o == origin)
                    .map(|(_, p)| u64::from_le_bytes(p[1..9].try_into().unwrap()))
                    .collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                assert_eq!(seqs, sorted, "origin {origin} out of order at {id}");
            }
        }
    }
}

mod causal {
    use super::*;

    #[test]
    fn causal_chains_are_respected() {
        // n0 broadcasts A; n1, upon delivering A, broadcasts B (causally
        // after A). No correct node may deliver B before A.
        let (mut sim, ids) = cluster(4, SimConfig::with_seed(3), || Box::new(Causal::new()));
        GroupNode::broadcast(&mut sim, ids[0], b"A".to_vec());
        // Drive until n1 has A, then publish B from n1.
        sim.run_to_quiescence();
        assert_eq!(GroupNode::delivered(&mut sim, ids[1]).len(), 1);
        GroupNode::broadcast(&mut sim, ids[1], b"B".to_vec());
        sim.run_to_quiescence();
        for &id in &ids {
            let got = GroupNode::delivered_payloads(&mut sim, id);
            assert_eq!(got, vec![b"A".to_vec(), b"B".to_vec()], "node {id}");
        }
    }

    #[test]
    fn concurrent_broadcasts_all_arrive() {
        let (mut sim, ids) = cluster(5, SimConfig::with_seed(9), || Box::new(Causal::new()));
        for (i, &id) in ids.iter().enumerate() {
            GroupNode::broadcast(&mut sim, id, payload(i as u8, 0));
        }
        sim.run_to_quiescence();
        for &id in &ids {
            assert_eq!(GroupNode::delivered(&mut sim, id).len(), 5);
            let pending =
                GroupNode::with_proto::<Causal, usize>(&mut sim, id, |c| c.pending_len()).unwrap();
            assert_eq!(pending, 0);
        }
    }

    /// Regression for unbounded `seen` retention: duplicate suppression on
    /// a long-lived group must stay one watermark per stream instead of
    /// growing with every message ever broadcast. 120 rounds × 3
    /// publishers = 360 broadcasts; a set of ids would hold all 360 at
    /// every node.
    #[test]
    fn seen_set_stays_bounded_on_a_long_lived_group() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(13), || Box::new(Causal::new()));
        let rounds = 120u64;
        for round in 0..rounds {
            for (i, &id) in ids.iter().enumerate() {
                GroupNode::broadcast(&mut sim, id, payload(i as u8, round));
            }
            sim.run_for(Duration::from_millis(5));
        }
        sim.run_to_quiescence();
        for &id in &ids {
            assert_eq!(
                GroupNode::delivered(&mut sim, id).len(),
                (rounds * 3) as usize,
                "node {id} lost messages"
            );
            let expected: Vec<_> = ids.iter().map(|&origin| (origin, rounds, 0)).collect();
            assert_eq!(stream_records::<CausalHoldBack>(&mut sim, id), expected, "node {id}");
        }
    }

    /// Randomized: build a random causal history by publishing from random
    /// nodes with partial progress in between; verify causal delivery
    /// everywhere (happens-before never inverted).
    #[test]
    fn randomized_schedules_preserve_causality() {
        for seed in 0..10u64 {
            let (mut sim, ids) = cluster(4, SimConfig::with_seed(seed), || Box::new(Causal::new()));
            let mut published: Vec<(NodeId, Vec<u8>)> = Vec::new();
            for step in 0..12u64 {
                let publisher = ids[(seed as usize + step as usize) % ids.len()];
                let p = payload(publisher.0 as u8, step);
                GroupNode::broadcast(&mut sim, publisher, p.clone());
                published.push((publisher, p));
                // Partial progress: let some messages propagate.
                sim.run_for(Duration::from_micros(300 * (step % 3)));
            }
            sim.run_to_quiescence();
            // Every node delivered everything exactly once.
            for &id in &ids {
                let delivered = GroupNode::delivered(&mut sim, id);
                assert_eq!(delivered.len(), published.len(), "seed {seed} node {id}");
                // Per-origin FIFO (causal order implies it).
                for &origin in &ids {
                    let seqs: Vec<u64> = delivered
                        .iter()
                        .filter(|(o, _)| *o == origin)
                        .map(|(_, p)| u64::from_le_bytes(p[1..9].try_into().unwrap()))
                        .collect();
                    let mut sorted = seqs.clone();
                    sorted.sort_unstable();
                    assert_eq!(seqs, sorted, "seed {seed}");
                }
            }
        }
    }
}

mod total {
    use super::*;

    #[test]
    fn all_nodes_deliver_in_the_same_order() {
        let (mut sim, ids) = cluster(5, SimConfig::with_seed(17), || Box::new(Total::new()));
        // Concurrent publishes from everyone.
        for round in 0..6u64 {
            for (i, &id) in ids.iter().enumerate() {
                GroupNode::broadcast(&mut sim, id, payload(i as u8, round));
            }
        }
        sim.run_to_quiescence();
        let reference = GroupNode::delivered(&mut sim, ids[0]);
        assert_eq!(reference.len(), 30);
        for &id in &ids[1..] {
            assert_eq!(
                GroupNode::delivered(&mut sim, id),
                reference,
                "node {id} diverged from the total order"
            );
        }
    }

    #[test]
    fn gap_repair_recovers_lost_sequenced_messages() {
        let (mut sim, ids) = cluster(4, SimConfig::with_loss(0.25), || Box::new(Total::new()));
        for i in 0..10u64 {
            GroupNode::broadcast(&mut sim, ids[1], payload(9, i));
        }
        // Give NACK/retransmit cycles time to repair.
        sim.run_until(SimTime::from_millis(2_000));
        let reference = GroupNode::delivered(&mut sim, ids[0]);
        assert_eq!(reference.len(), 10);
        for &id in &ids[1..] {
            assert_eq!(GroupNode::delivered(&mut sim, id), reference);
        }
    }
}

mod certified {
    use super::*;

    #[test]
    fn subscriber_crash_then_recovery_still_delivers() {
        let (mut sim, ids) = cluster(3, SimConfig::default(), || Box::new(Certified::new()));
        // Crash n2, publish while it is down, recover, and verify delivery.
        sim.crash(ids[2]);
        GroupNode::broadcast(&mut sim, ids[0], b"must-arrive".to_vec());
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(GroupNode::delivered(&mut sim, ids[1]).len(), 1);
        assert!(GroupNode::delivered(&mut sim, ids[2]).is_empty());

        sim.recover(ids[2]);
        sim.run_until(SimTime::from_millis(1_000));
        assert_eq!(
            GroupNode::delivered_payloads(&mut sim, ids[2]),
            vec![b"must-arrive".to_vec()],
            "certified delivery must survive the crash"
        );
        // Publisher stopped retransmitting (log drained).
        let unacked = GroupNode::with_proto::<Certified, _>(&mut sim, ids[0], |c| c.queue_depths());
        assert_eq!(unacked, Some(vec![("reliable.unacked", 0)]));
    }

    #[test]
    fn no_duplicates_across_recovery() {
        let (mut sim, ids) = cluster(2, SimConfig::default(), || Box::new(Certified::new()));
        GroupNode::broadcast(&mut sim, ids[0], b"one".to_vec());
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(GroupNode::delivered(&mut sim, ids[1]).len(), 1);
        // Crash after delivery but pretend the ack got lost by crashing
        // before the publisher processes it: then recover and ensure the
        // retransmission is acked but NOT redelivered.
        sim.crash(ids[1]);
        sim.recover(ids[1]);
        sim.run_until(SimTime::from_millis(500));
        // Delivered log is volatile and was rebuilt empty, but the
        // *persisted* delivered-set suppresses redelivery.
        assert!(GroupNode::delivered(&mut sim, ids[1]).is_empty());
        let delivered = GroupNode::capture(&mut sim, ids[1]).unwrap().delivered;
        assert_eq!(delivered.len(), 1);
    }

    #[test]
    fn publisher_crash_resumes_retransmission_from_log() {
        let (mut sim, ids) = cluster(3, SimConfig::default(), || Box::new(Certified::new()));
        sim.crash(ids[2]);
        GroupNode::broadcast(&mut sim, ids[0], b"durable".to_vec());
        sim.run_until(SimTime::from_millis(100));
        // Publisher crashes with n2 still unacked.
        sim.crash(ids[0]);
        sim.recover(ids[0]);
        sim.recover(ids[2]);
        sim.run_until(SimTime::from_millis(1_000));
        assert_eq!(
            GroupNode::delivered_payloads(&mut sim, ids[2]),
            vec![b"durable".to_vec()],
            "publisher recovery must resume retransmission from its log"
        );
    }

    #[test]
    fn loss_is_overcome_by_retransmission() {
        let (mut sim, ids) = cluster(4, SimConfig::with_loss(0.4), || Box::new(Certified::new()));
        for i in 0..5u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(3, i));
        }
        sim.run_until(SimTime::from_secs(5));
        for &id in &ids[1..] {
            assert_eq!(GroupNode::delivered(&mut sim, id).len(), 5, "node {id}");
        }
    }
}

mod lpbcast {
    use super::*;

    fn gossip_cluster(n: usize, fanout: usize, seed: u64) -> (SimNet, Vec<NodeId>) {
        let config = LpbcastConfig {
            fanout,
            ..LpbcastConfig::default()
        };
        cluster(n, SimConfig::with_seed(seed), move || {
            Box::new(Lpbcast::new(config))
        })
    }

    #[test]
    fn adequate_fanout_reaches_everyone() {
        // fanout 5 ≈ ln(32) + 1.5 — should reach all 32 nodes.
        let (mut sim, ids) = gossip_cluster(32, 5, 2);
        GroupNode::broadcast(&mut sim, ids[0], b"rumor".to_vec());
        sim.run_until(SimTime::from_millis(500));
        let reached = ids
            .iter()
            .filter(|&&id| !GroupNode::delivered(&mut sim, id).is_empty())
            .count();
        assert_eq!(reached, 32);
    }

    #[test]
    fn fanout_one_reaches_fewer_nodes_than_fanout_five() {
        let reach = |fanout: usize| {
            let (mut sim, ids) = gossip_cluster(48, fanout, 7);
            GroupNode::broadcast(&mut sim, ids[0], b"rumor".to_vec());
            sim.run_until(SimTime::from_millis(300));
            ids.iter()
                .filter(|&&id| !GroupNode::delivered(&mut sim, id).is_empty())
                .count()
        };
        let low = reach(1);
        let high = reach(5);
        assert!(
            low < high,
            "fanout 1 reached {low}, fanout 5 reached {high}"
        );
        assert_eq!(high, 48);
    }

    #[test]
    fn buffer_stays_bounded() {
        let config = LpbcastConfig {
            fanout: 3,
            max_buffer: 16,
            ..LpbcastConfig::default()
        };
        let (mut sim, ids) = cluster(8, SimConfig::with_seed(4), move || {
            Box::new(Lpbcast::new(config))
        });
        for i in 0..200u64 {
            GroupNode::broadcast(&mut sim, ids[(i % 8) as usize], payload(0, i));
            if i % 10 == 0 {
                sim.run_for(Duration::from_millis(2));
            }
        }
        for &id in &ids {
            let len =
                GroupNode::with_proto::<Lpbcast, usize>(&mut sim, id, |l| l.buffer_len()).unwrap();
            assert!(len <= 16, "buffer {len} exceeds bound at {id}");
        }
    }

    #[test]
    fn deduplicates_gossiped_events() {
        let (mut sim, ids) = gossip_cluster(10, 4, 5);
        GroupNode::broadcast(&mut sim, ids[3], b"once".to_vec());
        sim.run_until(SimTime::from_millis(500));
        for &id in &ids {
            assert!(
                GroupNode::delivered(&mut sim, id).len() <= 1,
                "duplicate delivery at {id}"
            );
        }
    }
}

/// The delivery layer `Reliable`, `Fifo` and `Causal` share.
mod delivery_layer {
    use super::*;

    fn long_stream_keeps_one_record<H: HoldBack>() {
        let (mut sim, ids) = cluster(2, SimConfig::with_seed(3), || Box::new(Eager::<H>::new()));
        for i in 0..10_000u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
        }
        sim.run_to_quiescence();
        assert_eq!(GroupNode::delivered(&mut sim, ids[1]).len(), 10_000);
        for &id in &ids {
            assert_eq!(stream_records::<H>(&mut sim, id), [(ids[0], 10_000, 0)], "node {id}");
        }
    }

    #[test]
    fn ten_thousand_reliable_deliveries_keep_one_record_per_stream() {
        long_stream_keeps_one_record::<()>();
    }

    #[test]
    fn ten_thousand_fifo_deliveries_keep_one_record_per_stream() {
        long_stream_keeps_one_record::<FifoHoldBack>();
    }

    /// Relay alone is a single path in a 2-node group; the origin's
    /// retransmission is what completes every kind under loss.
    fn two_nodes_at_twenty_percent_loss_deliver_everything<H: HoldBack>() {
        for seed in 1..=5 {
            let config = SimConfig { seed, drop_probability: 0.2, ..SimConfig::default() };
            let (mut sim, ids) = cluster(2, config, || Box::new(Eager::<H>::new()));
            for i in 0..20u64 {
                GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
            }
            sim.run_until(SimTime::from_secs(5));
            let mut got = GroupNode::delivered_payloads(&mut sim, ids[1]);
            if H::NAME == "reliable" {
                got.sort(); // no order promised
            }
            assert_eq!(got, (0..20).map(|i| payload(0, i)).collect::<Vec<_>>(), "{}, seed {seed}", H::NAME);
        }
    }

    /// A member the origin starts addressing after 5 broadcasts is told
    /// where its part of the stream starts: after 1 000 more its record is
    /// a watermark at the last seq, not 1 000 seqs past a gap at 0.
    #[test]
    fn a_late_reliable_member_keeps_one_record_per_stream() {
        let (mut sim, ids) = cluster(2, SimConfig::with_seed(3), || Box::new(Reliable::new()));
        GroupNode::set_members(&mut sim, ids[0], vec![ids[0]]);
        for i in 0..5u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
        }
        sim.run_to_quiescence();
        GroupNode::set_members(&mut sim, ids[0], ids.clone());
        for i in 5..1_005u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
        }
        sim.run_to_quiescence();
        assert_eq!(GroupNode::delivered(&mut sim, ids[1]).len(), 1_000);
        assert_eq!(stream_records::<()>(&mut sim, ids[1]), [(ids[0], 1_005, 0)]);
    }

    #[test]
    fn reliable_fifo_and_causal_pairs_complete_at_twenty_percent_loss() {
        two_nodes_at_twenty_percent_loss_deliver_everything::<()>();
        two_nodes_at_twenty_percent_loss_deliver_everything::<FifoHoldBack>();
        two_nodes_at_twenty_percent_loss_deliver_everything::<CausalHoldBack>();
    }
}

/// Crash–recovery regressions for the volatile protocols' incarnation
/// epochs (`MsgId::epoch`). Each test pins the defect class the simulation
/// harness's oracles surfaced on the seed suite: without epochs, a
/// recovered publisher restarts at `seq = 1` and its new messages collide
/// with pre-crash ids in survivors' duplicate-suppression state.
mod crash_recovery {
    use super::*;

    #[test]
    fn reliable_republish_after_crash_is_not_swallowed_as_duplicate() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(21), || Box::new(Reliable::new()));
        GroupNode::broadcast(&mut sim, ids[0], b"first-life".to_vec());
        sim.run_to_quiescence();
        for &id in &ids[1..] {
            assert_eq!(GroupNode::delivered(&mut sim, id).len(), 1);
        }
        // n0 crashes, loses its counters, and publishes again from seq 1.
        sim.crash(ids[0]);
        sim.run_for(Duration::from_millis(10));
        sim.recover(ids[0]);
        GroupNode::set_members(&mut sim, ids[0], ids.clone());
        GroupNode::broadcast(&mut sim, ids[0], b"second-life".to_vec());
        sim.run_to_quiescence();
        for &id in &ids[1..] {
            assert_eq!(
                GroupNode::delivered_payloads(&mut sim, id),
                vec![b"first-life".to_vec(), b"second-life".to_vec()],
                "node {id}: the new incarnation's seq-1 message must not be \
                 deduplicated against the old incarnation's"
            );
        }
    }

    #[test]
    fn fifo_receivers_follow_the_publishers_new_incarnation() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(23), || Box::new(Fifo::new()));
        for i in 0..3u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
        }
        sim.run_to_quiescence();
        sim.crash(ids[0]);
        sim.run_for(Duration::from_millis(10));
        sim.recover(ids[0]);
        GroupNode::set_members(&mut sim, ids[0], ids.clone());
        for i in 10..13u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
        }
        sim.run_to_quiescence();
        for &id in &ids[1..] {
            let got = GroupNode::delivered_payloads(&mut sim, id);
            let expected: Vec<Vec<u8>> = (0..3)
                .chain(10..13)
                .map(|i| payload(0, i))
                .collect();
            assert_eq!(
                got, expected,
                "node {id}: both incarnations' streams, each in FIFO order"
            );
        }
    }

    /// A restarted receiver has no record of the streams that began before
    /// its crash: the first frame of each fixes where FIFO delivery
    /// resumes, instead of waiting for a seq 1 that went to its previous
    /// incarnation.
    #[test]
    fn fifo_receiver_restarted_mid_stream_resumes_at_the_first_frame() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(41), || Box::new(Fifo::new()));
        for i in 0..3u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
            sim.run_for(Duration::from_millis(10));
        }
        sim.crash(ids[2]);
        sim.run_for(Duration::from_millis(10));
        sim.recover(ids[2]);
        GroupNode::set_members(&mut sim, ids[2], ids.clone());
        for i in 3..6u64 {
            GroupNode::broadcast(&mut sim, ids[0], payload(0, i));
            sim.run_for(Duration::from_millis(10));
        }
        sim.run_to_quiescence();
        assert_eq!(
            GroupNode::delivered_payloads(&mut sim, ids[2]),
            (3..6).map(|i| payload(0, i)).collect::<Vec<_>>()
        );
        assert_eq!(stream_records::<FifoHoldBack>(&mut sim, ids[2]), [(ids[0], 6, 0)]);
    }

    #[test]
    fn causal_receivers_sever_dependencies_on_a_dead_incarnation() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(29), || Box::new(Causal::new()));
        GroupNode::broadcast(&mut sim, ids[0], b"old".to_vec());
        sim.run_to_quiescence();
        // n0's second incarnation restarts its clock; survivors must
        // deliver its fresh messages instead of waiting forever for a
        // (never-coming) continuation of the old incarnation's counter.
        sim.crash(ids[0]);
        sim.run_for(Duration::from_millis(10));
        sim.recover(ids[0]);
        GroupNode::set_members(&mut sim, ids[0], ids.clone());
        GroupNode::broadcast(&mut sim, ids[0], b"new".to_vec());
        sim.run_to_quiescence();
        for &id in &ids[1..] {
            assert_eq!(
                GroupNode::delivered_payloads(&mut sim, id),
                vec![b"old".to_vec(), b"new".to_vec()],
                "node {id}"
            );
            let pending =
                GroupNode::with_proto::<Causal, usize>(&mut sim, id, |c| c.pending_len()).unwrap();
            assert_eq!(pending, 0, "node {id} must not hold back the new incarnation");
        }
    }

    #[test]
    fn total_recovered_receiver_adopts_horizon_without_redelivery() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(31), || Box::new(Total::new()));
        for i in 0..4u64 {
            GroupNode::broadcast(&mut sim, ids[1], payload(1, i));
        }
        sim.run_to_quiescence();
        assert_eq!(GroupNode::delivered(&mut sim, ids[2]).len(), 4);
        // n2 crashes and rejoins mid-stream: it must resume at the stream
        // horizon (not NACK-replay history its previous life consumed) and
        // deliver only what comes after.
        sim.crash(ids[2]);
        sim.run_for(Duration::from_millis(10));
        sim.recover(ids[2]);
        GroupNode::set_members(&mut sim, ids[2], ids.clone());
        for i in 10..12u64 {
            GroupNode::broadcast(&mut sim, ids[1], payload(1, i));
        }
        sim.run_to_quiescence();
        let got = GroupNode::delivered_payloads(&mut sim, ids[2]);
        assert_eq!(
            got,
            vec![payload(1, 10), payload(1, 11)],
            "the rejoined receiver must deliver exactly the post-recovery tail"
        );
        // The steady node agrees on the shared suffix.
        let steady = GroupNode::delivered_payloads(&mut sim, ids[0]);
        assert_eq!(&steady[4..], &got[..], "total order preserved on the suffix");
    }

    #[test]
    fn total_restarted_sequencer_renumbers_without_duplicates() {
        let (mut sim, ids) = cluster(3, SimConfig::with_seed(37), || Box::new(Total::new()));
        // ids[0] is the sequencer (lowest id). Let a first batch sequence,
        // then restart it: the new incarnation renumbers from gseq 1 and
        // receivers must switch streams without re-delivering re-ordered
        // submissions.
        for i in 0..3u64 {
            GroupNode::broadcast(&mut sim, ids[1], payload(1, i));
        }
        sim.run_to_quiescence();
        sim.crash(ids[0]);
        sim.run_for(Duration::from_millis(10));
        sim.recover(ids[0]);
        GroupNode::set_members(&mut sim, ids[0], ids.clone());
        for i in 10..13u64 {
            GroupNode::broadcast(&mut sim, ids[2], payload(2, i));
        }
        sim.run_until(SimTime::from_secs(3));
        // Total order promises agreement, not publisher order (submissions
        // race to the sequencer with independent latencies): both survivors
        // must have identical logs — the old stream's batch, then the new
        // stream's, each exactly once.
        let reference = GroupNode::delivered_payloads(&mut sim, ids[1]);
        assert_eq!(
            GroupNode::delivered_payloads(&mut sim, ids[2]),
            reference,
            "survivors diverged across the sequencer restart"
        );
        let (old_batch, new_batch) = reference.split_at(3);
        let mut old_sorted = old_batch.to_vec();
        old_sorted.sort();
        let mut new_sorted = new_batch.to_vec();
        new_sorted.sort();
        assert_eq!(old_sorted, (0..3).map(|i| payload(1, i)).collect::<Vec<_>>());
        assert_eq!(new_sorted, (10..13).map(|i| payload(2, i)).collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Agreement: under arbitrary loss below the redundancy threshold, all
    /// reliable-broadcast nodes deliver the same multiset.
    #[test]
    fn prop_reliable_agreement(seed in 0u64..200, msgs in 1usize..6) {
        let (mut sim, ids) = cluster(5, SimConfig { seed, drop_probability: 0.2, ..SimConfig::default() }, || Box::new(Reliable::new()));
        for i in 0..msgs {
            GroupNode::broadcast(&mut sim, ids[i % 5], payload(0, i as u64));
        }
        sim.run_to_quiescence();
        let mut reference: Vec<Vec<u8>> = GroupNode::delivered_payloads(&mut sim, ids[0]);
        reference.sort();
        for &id in &ids[1..] {
            let mut got = GroupNode::delivered_payloads(&mut sim, id);
            got.sort();
            prop_assert_eq!(&got, &reference);
        }
    }

    /// Wherever a third member joins, and whatever the loss, once every
    /// frame is acknowledged every receiver's records are watermarks: each
    /// pre-join publisher broadcasts again after the join, and that frame
    /// names the newcomer's start until the newcomer acknowledges it.
    #[test]
    fn prop_a_late_member_leaves_no_gap(
        seed in 0u64..200,
        early in 0u64..8,
        join_ms in 0u64..120,
        late in 1u64..5,
        loss in 0.0f64..0.3,
    ) {
        late_member_leaves_no_gap::<()>(seed, early, join_ms, late, loss)?;
        late_member_leaves_no_gap::<FifoHoldBack>(seed, early, join_ms, late, loss)?;
    }

    /// Total order: arbitrary concurrent publishers, identical delivery
    /// sequences everywhere.
    #[test]
    fn prop_total_order_agreement(seed in 0u64..200, msgs in 1usize..8) {
        let (mut sim, ids) = cluster(4, SimConfig::with_seed(seed), || Box::new(Total::new()));
        for i in 0..msgs {
            GroupNode::broadcast(&mut sim, ids[i % 4], payload(1, i as u64));
        }
        sim.run_until(SimTime::from_secs(2));
        let reference = GroupNode::delivered(&mut sim, ids[0]);
        prop_assert_eq!(reference.len(), msgs);
        for &id in &ids[1..] {
            prop_assert_eq!(GroupNode::delivered(&mut sim, id), reference.clone());
        }
    }
}

/// `early` broadcasts from n0 and n1 to each other, then n2 joins after
/// `join_ms` (frames may still be in flight or owed) and all three
/// broadcast `late` more each under `loss`.
fn late_member_leaves_no_gap<H: HoldBack>(
    seed: u64,
    early: u64,
    join_ms: u64,
    late: u64,
    loss: f64,
) -> Result<(), TestCaseError> {
    let config = SimConfig { seed, drop_probability: loss, ..SimConfig::default() };
    let (mut sim, ids) = cluster(3, config, || Box::new(Eager::<H>::new()));
    for &id in &ids {
        GroupNode::set_members(&mut sim, id, ids[..2].to_vec());
    }
    for i in 0..early {
        GroupNode::broadcast(&mut sim, ids[(i % 2) as usize], payload(0, i));
    }
    sim.run_until(SimTime::from_millis(join_ms));
    for &id in &ids {
        GroupNode::set_members(&mut sim, id, ids.clone());
    }
    for i in 0..late {
        for &id in &ids {
            GroupNode::broadcast(&mut sim, id, payload(1, i));
        }
    }
    sim.run_to_quiescence();
    for &id in &ids {
        let depths = GroupNode::with_proto::<Eager<H>, _>(&mut sim, id, |proto| proto.queue_depths());
        prop_assert_eq!(depths.unwrap()[0], ("reliable.unacked", 0), "{} at {}", H::NAME, id);
        for (origin, upto, above) in stream_records::<H>(&mut sim, id) {
            prop_assert_eq!(above, 0, "{} at {}: {}'s stream at {}", H::NAME, id, origin, upto);
        }
    }
    Ok(())
}
