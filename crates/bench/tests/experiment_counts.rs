//! Exact counts behind the EXPERIMENTS.md tables whose scenarios are
//! deterministic (E2, E3, E6, E8, E11, E15). Each test runs a small point of
//! the same `psc_bench` function its `exp_*` binary sweeps, so a change to
//! the mechanism a table measures fails here rather than drifting the
//! table.
//!
//! The codec and filter counters live in the process-global registry, and
//! every scenario here bumps them: the tests take turns.

use std::sync::{Mutex, MutexGuard, PoisonError};

use psc_bench::delivery::{self, PROTOCOLS};
use psc_bench::match_scale::{self, EVENTS};
use psc_bench::placement::{self, PLACEMENTS, SELECTIVITIES};
use psc_bench::snapshot::run_wave;
use psc_bench::{fanout, serialize_once};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    let turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    psc_telemetry::set_global_enabled(true);
    turn
}

/// E2 at S = 4, in the order `exp_filter_placement` prints it: (messages
/// sent, bytes sent, deliveries) for each selectivity × placement.
#[test]
fn e2_placement_traffic_at_four_subscribers() {
    let _turn = turn();
    let expected: [[(u64, u64, u64); 3]; 4] = [
        [(404, 18_536, 8), (12, 628, 8), (110, 5_005, 8)],
        [(404, 18_536, 44), (48, 2_268, 44), (137, 6_235, 44)],
        [(404, 18_536, 208), (212, 9_736, 208), (260, 11_836, 208)],
        [(404, 18_536, 400), (404, 18_536, 400), (404, 18_436, 400)],
    ];
    for (selectivity, row) in SELECTIVITIES.into_iter().zip(expected) {
        for ((name, placement), cell) in PLACEMENTS.into_iter().zip(row) {
            let got = placement::run(placement, selectivity, 4);
            assert_eq!(got, cell, "selectivity {selectivity}, {name} placement");
        }
    }
}

/// E3: (messages sent, deliveries) per protocol, in the order
/// `exp_delivery_semantics` prints them — 8 nodes at 0, 5 and 20 % loss,
/// then 3 nodes at 20 %. Complete is 160 deliveries on 8 nodes, 60 on 3:
/// every kind above best-effort, under every loss. `certified`'s cells
/// under loss follow the delivery layer's 40 ms retransmission interval,
/// which it shares with the reliable kinds.
#[test]
fn e3_delivery_ladder_counts() {
    let _turn = turn();
    let expected: [[(u64, usize); 6]; 4] = [
        [(140, 160), (1_120, 160), (1_120, 160), (1_120, 160), (314, 160), (280, 160)],
        [(140, 154), (1_140, 160), (1_140, 160), (1_140, 160), (333, 160), (294, 160)],
        [(140, 138), (1_206, 160), (1_206, 160), (1_206, 160), (409, 160), (360, 160)],
        [(40, 53), (139, 60), (139, 60), (139, 60), (135, 60), (104, 60)],
    ];
    for ((nodes, loss), row) in [(8, 0.0), (8, 0.05), (8, 0.2), (3, 0.2)].into_iter().zip(expected) {
        for ((name, make), cell) in PROTOCOLS.into_iter().zip(row) {
            let point = delivery::run(name, make, nodes, loss);
            assert_eq!((point.sent, point.delivered), cell, "{name}, {nodes} nodes, loss {loss}");
        }
    }
}

/// E6: a publish encodes once whatever the receiver count; each remote
/// call pays its own four encodes.
#[test]
fn e6_a_publish_encodes_once_per_round_and_a_remote_call_four_times() {
    let _turn = turn();
    const ROUNDS: usize = 20;
    for n in [1, 4] {
        let pubsub = fanout::pubsub(n, ROUNDS).encodes;
        assert_eq!(pubsub, ROUNDS as u64, "pub/sub encodes, N = {n}");
        let rmi = fanout::rmi(n, ROUNDS).encodes;
        assert_eq!(rmi, (4 * n * ROUNDS) as u64, "RMI encodes, N = {n}");
    }
}

/// E8 mechanism at F = 8: a shared envelope is encoded once per publish,
/// a per-destination one F times.
#[test]
fn e8_a_shared_envelope_is_encoded_once_per_publish() {
    let _turn = turn();
    assert_eq!(serialize_once::mechanism(8, 50, true).1, 1.0);
    assert_eq!(serialize_once::mechanism(8, 50, false).1, 8.0);
}

/// E11 at 8 attributes: one probe (the symbol bucket) per matching call,
/// and only the filters pinned to the event's symbol become candidates.
#[test]
fn e11_one_probe_per_event_and_equality_gated_candidates() {
    let _turn = turn();
    let events = EVENTS as u64;
    for (subs, candidates) in [(1_000, 182), (10_000, 2_051)] {
        let row = match_scale::row(subs, 8, 1);
        assert_eq!(
            (row.calls, row.probes, row.candidates),
            (events, events, candidates),
            "{subs} subscriptions"
        );
    }
}

/// E15: at every loss rate the wave completes without force-closing a
/// recording and renders byte-identically on replay; markers, retries and
/// virtual completion time are the table's. The certified workload's
/// retransmissions share the simulator's loss draws with the markers, so
/// the 30 % row's completion time follows the delivery layer's 40 ms
/// retransmission interval.
#[test]
fn e15_the_snapshot_wave_at_loss_0_10_30() {
    let _turn = turn();
    for (loss, markers, retries, wave_ms) in [(0.0, 6, 0, 12), (0.1, 6, 0, 10), (0.3, 10, 2, 58)] {
        let (first, replay) = (run_wave(loss), run_wave(loss));
        assert!(first.completed, "loss {loss}: the cut must assemble");
        assert!(
            first.render == replay.render,
            "loss {loss}: the replay must render identically"
        );
        assert_eq!(
            (
                first.markers_sent,
                first.retries,
                first.wave_virtual_ms,
                first.forced
            ),
            (markers, retries, wave_ms, 0),
            "loss {loss}: (markers, retries, wave ms, forced)"
        );
        if loss == 0.0 {
            assert_eq!((first.inflight_recorded, first.render.len()), (17, 15_289));
        }
    }
}
