//! Consistent cluster snapshots over the real socket transport.
//!
//! The same Chandy–Lamport plane the simulator fuzzes runs unchanged
//! behind TCP: a node initiates a wave via [`DaceEndpoint::snapshot_capture`],
//! markers and fragments travel as ordinary framed messages, and the
//! assembled [`ClusterCut`] renders the same byte-stable cluster image the
//! harness oracles check under simnet. Because the rendering excludes
//! wall-clock and addresses, a *quiesced* cluster is reproducible: two
//! freshly built clusters running the same workload render identical
//! images, and two waves over one idle cluster differ only in the wave id.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use psc_dace::DaceConfig;
use psc_net::{DaceEndpoint, NetConfig};
use psc_obvent::builtin::Certified;
use psc_obvent::declare_obvent_model;
use psc_simnet::NodeId;
use pubsub_core::FilterSpec;

declare_obvent_model! {
    /// The live snapshot test's certified workload.
    pub class CutTick implements [Certified] { n: u64 }
}

/// Starts `n` endpoints on ephemeral loopback ports, fully meshed, with
/// the announce anti-entropy slowed to keep links silent once quiesced
/// (in-flight recordings must be empty for byte-stable replays).
fn start_cluster(n: usize) -> Vec<DaceEndpoint> {
    let dace = DaceConfig {
        announce_interval: psc_simnet::Duration::from_millis(10_000),
        ..DaceConfig::default()
    };
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

fn subscribe(endpoint: &DaceEndpoint) -> Arc<AtomicU64> {
    let count = Arc::new(AtomicU64::new(0));
    let recorder = Arc::clone(&count);
    endpoint.with_domain(move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |_: CutTick| {
            recorder.fetch_add(1, Ordering::SeqCst);
        });
        sub.activate().expect("activate");
        sub.detach();
    });
    count
}

/// One full run: mesh, subscribe, publish a certified stream, quiesce,
/// snapshot from node 0, return the rendered cluster image.
fn run_once(pubs: u64) -> (String, Vec<DaceEndpoint>) {
    let endpoints = start_cluster(3);
    let sinks: Vec<Arc<AtomicU64>> =
        endpoints[1..].iter().map(subscribe).collect();
    // Subscription announcements converge before the first publish.
    std::thread::sleep(StdDuration::from_millis(500));
    for i in 0..pubs {
        endpoints[0].with_domain(move |domain| {
            domain.publish(CutTick::new(i)).expect("publish");
        });
    }
    let deadline = Instant::now() + StdDuration::from_secs(20);
    while sinks.iter().any(|s| s.load(Ordering::SeqCst) < pubs)
        && Instant::now() < deadline
    {
        std::thread::sleep(StdDuration::from_millis(20));
    }
    for (i, sink) in sinks.iter().enumerate() {
        assert_eq!(
            sink.load(Ordering::SeqCst),
            pubs,
            "subscriber {i} must deliver the full certified stream"
        );
    }
    // Let the certified acks drain the retransmit logs so the captured
    // channel state is settled (and the links are silent).
    std::thread::sleep(StdDuration::from_millis(500));
    let render = endpoints[0]
        .snapshot_capture(StdDuration::from_secs(10))
        .expect("wave completes on an idle cluster");
    (render, endpoints)
}

#[test]
fn live_cluster_snapshot_is_byte_stable_and_repeatable() {
    let (first, endpoints) = run_once(5);

    assert!(first.contains("cluster snapshot #1"), "{first}");
    for node in ["node n0", "node n1", "node n2"] {
        assert!(first.contains(node), "missing {node} in:\n{first}");
    }
    assert!(first.contains("proto=certified"), "{first}");
    assert!(first.contains("next_seq=5"), "{first}");
    assert!(first.contains("delivered=o0e1:1-5"), "{first}");
    assert!(
        !first.contains("retransmit"),
        "a quiesced cluster owes nothing:\n{first}"
    );

    // The snapshot plane lands in the same telemetry registry as
    // everything else, and the inspect report names the wave.
    let metrics = endpoints[0].metrics();
    assert_eq!(metrics.counter("snapshot.initiated"), 1);
    assert!(metrics.counter("snapshot.markers.sent") >= 2);
    assert_eq!(metrics.counter("snapshot.completed"), 1);
    let inspect = endpoints[0].inspect();
    assert!(inspect.contains("snapshot wave=1"), "{inspect}");

    // A second wave over the same idle cluster captures the same state —
    // only the wave id moves.
    let second = endpoints[0]
        .snapshot_capture(StdDuration::from_secs(10))
        .expect("second wave completes");
    assert_eq!(
        second.replace("cluster snapshot #2", "cluster snapshot #1"),
        first,
        "an idle cluster must render the same image wave after wave"
    );
    for endpoint in &endpoints {
        endpoint.shutdown();
    }

    // A freshly built cluster running the same workload renders the
    // identical byte-stable image (no ports, no wall-clock in the image).
    let (replay, endpoints) = run_once(5);
    assert_eq!(replay, first, "replayed cluster image must be byte-identical");
    for endpoint in &endpoints {
        endpoint.shutdown();
    }
}
