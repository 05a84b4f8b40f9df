//! The file-backed write-ahead log against the simulated disk.
//!
//! Two claims, each with its own test style:
//!
//! 1. **Byte equivalence** (property test): a random `WalOp` stream
//!    applied to a `psc_simnet::Storage` and mirrored through [`FileWal`]
//!    reloads into identical segments — same logs, same indices, same
//!    bytes. The file backend is *defined* by this equivalence: everything
//!    the fault-injection harness proved about the simulated disk then
//!    carries over to the real one.
//! 2. **Kill + restart exactly once** (integration): a durable certified
//!    subscriber endpoint with a `data_dir` is torn down mid-stream —
//!    process state gone, only segment files survive — and a fresh
//!    endpoint on the same directory and durable identity resumes the
//!    stream with every acked publish delivered exactly once. The same
//!    holds for a publisher torn down and restarted on its directory: its
//!    new incarnation's frames are not swallowed under a reused epoch, and
//!    a graceful shutdown right after a local call leaves that call's log
//!    records on disk.

use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use proptest::prelude::*;
use psc_dace::DaceConfig;
use psc_net::{DaceEndpoint, FileWal, NetConfig};
use psc_obvent::builtin::Certified;
use psc_obvent::declare_obvent_model;
use psc_simnet::{NodeId, Storage};
use pubsub_core::FilterSpec;

declare_obvent_model! {
    /// The restart test's certified workload.
    pub class WireTick implements [Certified] { n: u64 }
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root =
        std::env::temp_dir().join(format!("psc-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

// ---- 1. byte equivalence ----------------------------------------------

/// One generated WAL mutation (indices/rotation bookkeeping is derived
/// while replaying, mirroring how `DaceNode` drives the real API).
#[derive(Debug, Clone)]
enum GenOp {
    Append { log: usize, len: usize, fill: u8 },
    Sync { log: usize },
    Rotate { log: usize },
    DropThroughPrevious { log: usize },
}

const GEN_LOGS: [&str; 3] = ["node", "ch/00000000000000aa", "ch/ffffffffffffffff"];

fn gen_ops() -> impl Strategy<Value = Vec<GenOp>> {
    let op = (0usize..GEN_LOGS.len(), 0u32..10, 1usize..200, any::<u8>()).prop_map(
        |(log, kind, len, fill)| match kind {
            0..=5 => GenOp::Append { log, len, fill },
            6 | 7 => GenOp::Sync { log },
            8 => GenOp::Rotate { log },
            _ => GenOp::DropThroughPrevious { log },
        },
    );
    proptest::collection::vec(op, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The defining property of the file backend: mirror the journal of a
    /// random op stream to disk, reload, and the segments are identical to
    /// the in-memory WAL — byte for byte, index for index.
    #[test]
    fn file_backend_mirrors_the_simulated_disk_byte_for_byte(ops in gen_ops(), case in 0u32..u32::MAX) {
        let root = temp_root(&format!("equiv-{case}"));
        let mut storage = Storage::new();
        storage.enable_wal_journal();
        let (_, mut file_wal) = FileWal::open(&root).unwrap();

        for op in &ops {
            match *op {
                GenOp::Append { log, len, fill } => {
                    storage.wal_append(GEN_LOGS[log], &vec![fill; len]);
                }
                GenOp::Sync { log } => storage.wal_sync(GEN_LOGS[log]),
                GenOp::Rotate { log } => {
                    storage.wal_rotate(GEN_LOGS[log]);
                }
                GenOp::DropThroughPrevious { log } => {
                    // Checkpoint shape: rotate, then drop everything before
                    // the fresh active segment (exactly what compaction does).
                    let index = storage.wal_rotate(GEN_LOGS[log]);
                    storage.wal_drop_through(GEN_LOGS[log], index - 1);
                }
            }
            // Mirror per mutation batch, like the transport drains per
            // callback.
            file_wal.apply(&storage.take_wal_journal()).unwrap();
        }

        let (reloaded, _) = FileWal::open(&root).unwrap();
        let mut logs = storage.wal_logs();
        logs.sort();
        for log in &logs {
            let mem = storage.wal_segments(log);
            let disk = reloaded.wal_segments(log);
            // In-memory logs may carry a trailing never-written segment
            // (lazy active); files only exist once something was appended
            // or rotated into them. Compare the written prefix.
            let mem_written: Vec<_> =
                mem.iter().filter(|s| !s.bytes.is_empty()).collect();
            let disk_written: Vec<_> =
                disk.iter().filter(|s| !s.bytes.is_empty()).collect();
            prop_assert_eq!(
                mem_written.len(),
                disk_written.len(),
                "segment count diverges for log {}",
                log
            );
            for (m, d) in mem_written.iter().zip(&disk_written) {
                prop_assert_eq!(m.index, d.index, "index diverges for log {}", log);
                prop_assert_eq!(&m.bytes, &d.bytes, "bytes diverge for log {}", log);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ---- 2. kill + restart exactly once -----------------------------------

fn endpoint(
    id: NodeId,
    listen: &str,
    cluster: Vec<NodeId>,
    data_dir: Option<&std::path::Path>,
) -> DaceEndpoint {
    let mut net = NetConfig::new(id, listen);
    net.seed = id.0;
    net.data_dir = data_dir.map(|p| p.to_path_buf());
    DaceEndpoint::start(net, cluster, DaceConfig::default()).expect("bind endpoint")
}

fn attach_durable(ep: &DaceEndpoint, durable_id: u64) -> Arc<Mutex<Vec<u64>>> {
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    ep.with_domain(move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |t: WireTick| {
            sink.lock().unwrap().push(*t.n());
        });
        sub.activate_with_id(durable_id).expect("durable attach");
        sub.detach();
    });
    seen
}

fn publish(ep: &DaceEndpoint, n: u64) {
    ep.with_domain(move |domain| {
        domain.publish(WireTick::new(n)).expect("publish");
    });
}

fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + StdDuration::from_millis(deadline_ms);
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(20));
    }
    done()
}

/// The real-file acceptance run: subscriber killed mid-stream (only its
/// segment files survive), publishes continue while it is down, restart
/// on the same `--data-dir` + durable identity resumes exactly once.
#[test]
fn killed_subscriber_resumes_exactly_once_from_segment_files() {
    let data = temp_root("restart");
    let cluster = vec![NodeId(0), NodeId(1)];
    let publisher = endpoint(NodeId(0), "127.0.0.1:0", cluster.clone(), None);

    // First subscriber incarnation.
    let first_seen;
    {
        let subscriber = endpoint(NodeId(1), "127.0.0.1:0", cluster.clone(), Some(&data));
        publisher
            .transport()
            .add_peer(NodeId(1), &subscriber.local_addr().to_string());
        subscriber
            .transport()
            .add_peer(NodeId(0), &publisher.local_addr().to_string());
        assert!(publisher.wait_connected(StdDuration::from_secs(10)));

        first_seen = attach_durable(&subscriber, 7_001);
        // Announcement settles, then the first half of the stream arrives.
        std::thread::sleep(StdDuration::from_millis(400));
        for n in 0..3u64 {
            publish(&publisher, n);
        }
        assert!(
            wait_until(10_000, || first_seen.lock().unwrap().len() >= 3),
            "first incarnation must receive the head of the stream: {:?}",
            first_seen.lock().unwrap()
        );
        subscriber.shutdown();
        // The endpoint drops here: every byte of in-memory state is gone,
        // only <data>/ segment files remain.
    }

    // Publishes while the subscriber is down: certified retransmission
    // holds them for the durable subscription.
    for n in 3..6u64 {
        publish(&publisher, n);
    }
    std::thread::sleep(StdDuration::from_millis(200));

    // Second incarnation: same data dir, same durable identity, same port
    // is NOT required (fresh ephemeral bind; the publisher re-dials).
    let revived = endpoint(NodeId(1), "127.0.0.1:0", cluster, Some(&data));
    publisher.transport().add_peer(NodeId(1), &revived.local_addr().to_string());
    revived
        .transport()
        .add_peer(NodeId(0), &publisher.local_addr().to_string());
    let second_seen = attach_durable(&revived, 7_001);

    assert!(
        wait_until(20_000, || second_seen.lock().unwrap().len() >= 3),
        "second incarnation must resume the stream: {:?}",
        second_seen.lock().unwrap()
    );
    // Duplicate grace window: a lost delivered-set would resurface the
    // head of the stream via retransmission about now.
    std::thread::sleep(StdDuration::from_millis(500));

    let first: Vec<u64> = first_seen.lock().unwrap().clone();
    let mut second: Vec<u64> = second_seen.lock().unwrap().clone();
    second.sort_unstable();
    assert_eq!(first, vec![0, 1, 2], "head of the stream, in order, once");
    assert_eq!(
        second,
        vec![3, 4, 5],
        "tail of the stream exactly once — nothing lost, nothing re-delivered"
    );

    revived.shutdown();
    publisher.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// Publishes probes (from `base` up) until one reaches `seen`: the
/// publisher has learnt the durable subscription (a probe before that has
/// no target and goes nowhere). Returns the probes sent.
fn route(publisher: &DaceEndpoint, seen: &Arc<Mutex<Vec<u64>>>, base: u64) -> Vec<u64> {
    for probe in base..base + 100 {
        publish(publisher, probe);
        if wait_until(200, || seen.lock().unwrap().contains(&probe)) {
            return (base..=probe).collect();
        }
    }
    panic!("the publisher never learnt the subscription: {:?}", seen.lock().unwrap());
}

/// A publisher endpoint with a `data_dir` is torn down after its stream
/// was acked and restarted on its directory under the same `NodeId`. The
/// new incarnation publishes under the next epoch (its first frame waits
/// for that record; the ones after it leave ahead of their own records),
/// so the subscriber's dedup, which remembers the old epoch's seqs,
/// swallows nothing: every publish arrives exactly once.
#[test]
fn restarted_publisher_is_not_swallowed_under_a_reused_epoch() {
    let data = temp_root("publisher");
    let cluster = vec![NodeId(0), NodeId(1)];
    let subscriber = endpoint(NodeId(1), "127.0.0.1:0", cluster.clone(), None);
    let seen = attach_durable(&subscriber, 7_002);
    let mut probes = Vec::new();

    for (round, values) in [(0u64, 0..10u64), (1, 10..20)] {
        let publisher = endpoint(NodeId(0), "127.0.0.1:0", cluster.clone(), Some(&data));
        publisher
            .transport()
            .add_peer(NodeId(1), &subscriber.local_addr().to_string());
        subscriber
            .transport()
            .add_peer(NodeId(0), &publisher.local_addr().to_string());
        assert!(publisher.wait_connected(StdDuration::from_secs(10)));
        probes.extend(route(&publisher, &seen, 1_000_000 * (round + 1)));
        for n in values.clone() {
            publish(&publisher, n);
        }
        assert!(
            wait_until(10_000, || values.clone().all(|n| seen.lock().unwrap().contains(&n))),
            "round {round} must arrive: {:?}",
            seen.lock().unwrap()
        );
        assert!(
            wait_until(10_000, || publisher.inspect().contains("queue reliable.unacked=0")),
            "round {round} must be acked before the teardown:\n{}",
            publisher.inspect()
        );
        publisher.shutdown();
    }
    // Grace window for a stray retransmission to show as a duplicate.
    std::thread::sleep(StdDuration::from_millis(300));

    let mut got = seen.lock().unwrap().clone();
    got.sort_unstable();
    let mut once = got.clone();
    once.dedup();
    assert_eq!(got, once, "nothing is delivered twice");
    assert!((0..20).all(|n| got.contains(&n)), "nothing is lost or swallowed: {got:?}");
    assert!(got.iter().all(|n| *n < 20 || probes.contains(n)), "{got:?}");

    subscriber.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// A local call that wrote to the log returns before the write, which the
/// timer thread finishes. A graceful `shutdown` right after it finishes
/// the write itself: reopened, the segment files hold the durable
/// subscription's record, round after round.
#[test]
fn shutdown_right_after_a_local_call_keeps_its_log_records() {
    let missing: Vec<u32> = (0..20)
        .filter(|round| {
            let data = temp_root(&format!("shutdown-{round}"));
            let ep = endpoint(NodeId(0), "127.0.0.1:0", vec![NodeId(0)], Some(&data));
            attach_durable(&ep, 7_003);
            ep.shutdown();
            drop(ep);
            let (mut storage, _) = FileWal::open(&data).unwrap();
            storage.wal_recover();
            let kept = storage.keys_with_prefix("dursub/").count() == 1;
            let _ = std::fs::remove_dir_all(&data);
            !kept
        })
        .collect();
    assert!(missing.is_empty(), "rounds that lost the record: {missing:?}");
}
