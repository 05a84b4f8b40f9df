//! The `replay` driver: the same inputs through one `psc_simnet::NodeHost`
//! per node, on one thread, under a virtual clock.
//!
//! Publishes are due at the paced rate, timers fire at their virtual
//! deadline, so announce / heartbeat / retransmit work keeps the ratio to
//! data work it has live, and — nothing here depends on the scheduler —
//! every count repeats exactly. Every message crosses
//! `psc_codec::frame::encode_crc` → `FrameReassembler`; journaled `WalOp`s
//! go through `psc_net::FileWal::apply` on the real disk. With tracing on, a
//! span is recorded around every call into a layer's public function
//! (`NodeHost::{act,message,timer}`, `encode_crc` / `next_frame`,
//! `FileWal::apply`, the handler), and the counters the stack already keeps
//! are read around each callback so the layer probes can be charged to it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use psc_codec::frame::{encode_crc, FrameReassembler};
use psc_dace::{DaceConfig, DaceNode};
use psc_net::FileWal;
use psc_simnet::{HostEffect, NodeHost, NodeId, SimTime, TimerId, WalOp};
use psc_telemetry::{
    Counter, FlightRecorder, HealthConfig, HealthMonitor, Registry, Tracer, DEFAULT_FLIGHT_CAPACITY,
};
use pubsub_core::Subscription;

use crate::oracle::{self, Verdict};
use crate::sink::Sink;
use crate::span::SpanStore;
use crate::workload::{self, Inputs, SubKind, SubSpec};

/// Virtual one-way delay of a network hop / of a self-send, in µs.
const LINK_US: u64 = 50;
const SELF_US: u64 = 1;
/// Virtual time given to startup and subscription floods before the first
/// publish, and to acks / retransmits after the last.
const SETTLE_US: u64 = 300_000;
/// Traces at or above this value are churn operations, not publishes.
const CHURN_TRACE: u64 = 1 << 61;

fn is_data(trace: u64) -> bool {
    trace != 0 && trace < CHURN_TRACE
}

/// How a replay is run.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Record spans and per-callback counter deltas.
    pub traced: bool,
    /// `DaceNode::with_observability` as `DaceEndpoint::start` wires it
    /// (true) or `DaceNode::new` with telemetry disabled (false).
    pub observability: bool,
}

/// Counts of one replay's measured region. With the same inputs every field
/// must repeat exactly from replay to replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub publishes: u64,
    pub deliveries: u64,
    /// Network messages caused by a publish (data, relays, acks).
    pub data_msgs: u64,
    /// Of those, the ones addressed back to the publisher node.
    pub acks: u64,
    /// Network messages not caused by a publish (announce floods, churn).
    pub control_msgs: u64,
    pub callbacks: u64,
    pub encodes: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub wal_bytes: u64,
}

pub struct Replay {
    pub counts: Counts,
    /// Encoder buffer-pool hits over hits + misses. Not part of [`Counts`]:
    /// the pool is thread-local and stays warm from one replay to the next.
    pub pool_hit_share: f64,
    /// Wall time of the measured region (first publish → settled).
    pub wall_ns: u64,
    /// Virtual time the measured region spans.
    pub virtual_s: f64,
    pub verdict: Verdict,
    pub spans: Option<SpanStore>,
}

enum Event {
    Message {
        to: usize,
        from: usize,
        frame: Vec<u8>,
        trace: u64,
    },
    Timer {
        node: usize,
        id: TimerId,
        trace: u64,
    },
    Publish(usize),
    Churn(usize),
}

struct Queued {
    at_us: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.at_us, self.seq) == (other.at_us, other.seq)
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// Per-node counters the traced run reads around each callback.
struct NodeCounters {
    group_delivered: Counter,
    filter_evals: Counter,
    broadcasts: [Counter; 2],
}

struct Driver<'a> {
    inputs: &'a Inputs,
    hosts: Vec<NodeHost>,
    wals: Vec<Option<FileWal>>,
    /// One per directed link, indexed `to * nodes + from`.
    reassemblers: Vec<FrameReassembler>,
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    now_us: u64,
    sink: Arc<Sink>,
    churn_slots: Vec<Option<Subscription>>,
    spans: Option<SpanStore>,
    handler_notes: Vec<(u64, u64)>,
    delivered_seen: u64,
    measuring: bool,
    counts: Counts,
    node_counters: Vec<NodeCounters>,
    encodes: Counter,
    decodes: Counter,
    matching_calls: Counter,
    /// `filter_match` / `sub_churn`: filtered subscriptions, and a kind that
    /// is routed by `direct_publish` instead of a group protocol.
    quote_workload: bool,
}

impl Driver<'_> {
    fn push(&mut self, at_us: u64, event: Event) {
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            at_us,
            seq: self.seq,
            event,
        }));
    }

    fn span_open(&mut self, name: &'static str, trace: u64) -> Option<u32> {
        let measuring = self.measuring;
        self.spans
            .as_mut()
            .filter(|_| measuring)
            .map(|s| s.open(name, trace))
    }

    fn span_close(&mut self, id: Option<u32>) {
        if let (Some(spans), Some(id)) = (&mut self.spans, id) {
            spans.close(id);
        }
    }

    /// Runs one host callback with its span and counter bracket, mirrors the
    /// WAL journal to disk, then frames and schedules the effects.
    fn callback(
        &mut self,
        node: usize,
        name: &'static str,
        trace: u64,
        run: impl FnOnce(&mut NodeHost, SimTime) -> Option<Vec<HostEffect>>,
    ) {
        let now = SimTime::from_micros(self.now_us);
        let before = self.spans.is_some().then(|| self.read_counters(node));
        let span = self.span_open(name, trace);
        let effects = run(&mut self.hosts[node], now);
        self.span_close(span);
        let Some(effects) = effects else { return };
        if self.measuring {
            self.counts.callbacks += 1;
        }
        if let (Some(span), Some(before)) = (span, before) {
            let delivered = self.sink.delivered();
            if delivered != self.delivered_seen {
                self.delivered_seen = delivered;
                self.sink.take_handler_spans(&mut self.handler_notes);
                let spans = self.spans.as_mut().expect("tracing");
                for (start, end) in self.handler_notes.drain(..) {
                    spans.child(span, "handler", start, end);
                }
            }
            self.charge(node, span, name, trace, before);
        }

        let ops = self.hosts[node].storage_mut().take_wal_journal();
        if !ops.is_empty() {
            if self.measuring {
                for op in &ops {
                    match op {
                        WalOp::Append { bytes, .. } => {
                            self.counts.wal_appends += 1;
                            self.counts.wal_bytes += bytes.len() as u64;
                        }
                        WalOp::Sync { .. } => self.counts.wal_syncs += 1,
                        _ => {}
                    }
                }
            }
            let span = self.span_open("wal.apply", trace);
            self.wals[node]
                .as_mut()
                .expect("journal implies a data dir")
                .apply(&ops)
                .expect("WAL file write");
            self.span_close(span);
        }

        for effect in effects {
            match effect {
                HostEffect::Send { to, payload } => {
                    let to = to.0 as usize;
                    let span = self.span_open("codec.frame", trace);
                    let mut frame = Vec::with_capacity(payload.len() + 8);
                    encode_crc(payload.as_ref(), &mut frame);
                    self.span_close(span);
                    if self.measuring {
                        if is_data(trace) {
                            self.counts.data_msgs += 1;
                            self.counts.acks += u64::from(to == 0 && node != 0);
                        } else {
                            self.counts.control_msgs += 1;
                        }
                    }
                    let delay = if to == node { SELF_US } else { LINK_US };
                    self.push(
                        self.now_us + delay,
                        Event::Message {
                            to,
                            from: node,
                            frame,
                            trace,
                        },
                    );
                }
                HostEffect::SetTimer { id, after } => {
                    // A timer inherits the cause of the callback that armed
                    // it (the transmit timer sends a publish's envelope).
                    self.push(
                        self.now_us + after.as_micros(),
                        Event::Timer { node, id, trace },
                    );
                }
            }
        }
    }

    fn read_counters(&self, node: usize) -> [u64; 6] {
        let nc = &self.node_counters[node];
        [
            self.encodes.get(),
            self.decodes.get(),
            self.matching_calls.get(),
            nc.group_delivered.get(),
            nc.filter_evals.get(),
            nc.broadcasts[0].get() + nc.broadcasts[1].get(),
        ]
    }

    /// Charges the layer probes to callback `span` by what the stack's own
    /// counters say happened inside it.
    fn charge(&mut self, node: usize, span: u32, name: &'static str, trace: u64, before: [u64; 6]) {
        let after = self.read_counters(node);
        let [encodes, decodes, matches, group_delivered, filter_evals, broadcasts] =
            std::array::from_fn(|i| after[i] - before[i]);
        let data_arrival = name == "dace.recv_cb";
        // A direct (non-group) data arrival at a subscriber is one `deliver`.
        let direct_arrival = self.quote_workload && node != 0 && data_arrival;
        let delivers = group_delivered + u64::from(direct_arrival);
        // A filtered population costs one `view()` per deliver.
        let views = filter_evals + if self.quote_workload { delivers } else { 0 };
        let group_msgs = u64::from(!self.quote_workload && data_arrival);
        let churned = u64::from(trace >= CHURN_TRACE && name != "dace.timer_cb");
        let spans = self.spans.as_mut().expect("tracing");
        spans.charge(span, "codec.encode", encodes);
        spans.charge(span, "codec.decode", decodes);
        spans.charge(span, "obvent.view", views);
        spans.charge(span, "filter.index_match", matches);
        spans.charge(span, "filter.index_insert", churned);
        spans.charge(span, "filter.index_remove", churned);
        spans.charge(span, "core.deliver", delivers);
        spans.charge(span, "group.broadcast", broadcasts);
        spans.charge(span, "group.on_message", group_msgs);
    }

    fn step(&mut self, event: Event) {
        match event {
            Event::Message {
                to,
                from,
                frame,
                trace,
            } => {
                let span = self.span_open("codec.frame", trace);
                let reassembler = &mut self.reassemblers[to * self.hosts.len() + from];
                reassembler.extend(&frame);
                let payload = reassembler
                    .next_frame()
                    .expect("frames are intact")
                    .expect("one whole frame per message");
                self.span_close(span);
                let name = if is_data(trace) {
                    "dace.recv_cb"
                } else {
                    "dace.ctl_cb"
                };
                self.callback(to, name, trace, |host, now| {
                    Some(host.message(now, NodeId(from as u64), &payload))
                });
            }
            Event::Timer { node, id, trace } => {
                self.callback(node, "dace.timer_cb", trace, |host, now| {
                    host.timer(now, id)
                });
            }
            Event::Publish(i) => {
                let inputs = self.inputs;
                let publish = &inputs.replay_phase().publishes[i];
                let workload = inputs.workload;
                let sent_ns = self.now_us * 1_000;
                self.counts.publishes += 1;
                self.callback(0, "dace.publish_cb", publish.tag, |host, now| {
                    Some(host.act(now, |node, ctx| {
                        DaceNode::drive_ctx(node, ctx, |domain| {
                            workload::publish(domain, workload, publish, sent_ns)
                        })
                    }))
                });
            }
            Event::Churn(j) => {
                let inputs = self.inputs;
                let op = &inputs.replay_phase().churn[j];
                let old = self.churn_slots[op.slot].take();
                let spec = SubSpec {
                    node: 1,
                    kind: SubKind::Quote {
                        symbol: op.symbol.clone(),
                        lo: 0.0,
                        hi: 100.0,
                    },
                    durable_id: None,
                };
                let sink = Arc::clone(&self.sink);
                let stray = sink.stray_log();
                let mut new = None;
                self.callback(1, "dace.sub_cb", CHURN_TRACE + j as u64, |host, now| {
                    Some(host.act(now, |node, ctx| {
                        DaceNode::drive_ctx(node, ctx, |domain| {
                            drop(old);
                            new = Some(workload::subscribe(domain, &spec, &sink, stray));
                        })
                    }))
                });
                self.churn_slots[op.slot] = new;
            }
        }
    }

    /// Processes everything due up to and including `until_us`.
    fn run_until(&mut self, until_us: u64) {
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(q)| q.at_us <= until_us)
        {
            let Reverse(queued) = self.queue.pop().expect("peeked");
            self.now_us = queued.at_us;
            // Everything done for one event sits under one root span, so the
            // harness's own bookkeeping shows up as that span's self time
            // instead of hiding between the layer spans.
            let span = self.span_open("replay.event", 0);
            self.step(queued.event);
            self.span_close(span);
        }
        self.now_us = until_us;
    }
}

fn make_node(cluster: Vec<NodeId>, id: usize, observability: bool) -> (DaceNode, Arc<Registry>) {
    if !observability {
        return (
            DaceNode::new(cluster, DaceConfig::default()),
            Arc::new(Registry::disabled()),
        );
    }
    // Exactly the wiring of `DaceEndpoint::start`.
    let registry = Arc::new(Registry::new());
    let recorder = Arc::new(FlightRecorder::new(
        format!("n{id}"),
        DEFAULT_FLIGHT_CAPACITY,
    ));
    let monitor = Arc::new(HealthMonitor::new(
        registry.as_ref().clone(),
        Some(Arc::clone(&recorder)),
        HealthConfig::default(),
    ));
    let node = DaceNode::with_observability(
        cluster,
        DaceConfig::default(),
        Arc::clone(&registry),
        Arc::new(Tracer::default()),
        Some(recorder),
        Some(monitor),
    );
    (node, registry)
}

/// Replays the first `publishes` of the paced schedule. WAL files (durable
/// workload only) go under `data_dir`, which is wiped first and after.
pub fn run(inputs: &Inputs, publishes: usize, mode: Mode, data_dir: &Path) -> Replay {
    let publishes = publishes.min(inputs.replay_phase().publishes.len());
    let cluster: Vec<NodeId> = (0..inputs.nodes as u64).map(NodeId).collect();
    let durable = inputs.workload.durable();
    let _ = std::fs::remove_dir_all(data_dir);

    let capacities: Vec<usize> = inputs.expected.iter().map(Vec::len).collect();
    let sink = Sink::new(&capacities, mode.traced);

    let mut hosts = Vec::new();
    let mut wals = Vec::new();
    let mut node_counters = Vec::new();
    for id in 0..inputs.nodes {
        let (node, registry) = make_node(cluster.clone(), id, mode.observability);
        node_counters.push(NodeCounters {
            group_delivered: registry.counter("group.delivered"),
            filter_evals: registry.counter("dace.filter_evals"),
            broadcasts: [
                registry.counter("group.reliable.broadcasts"),
                registry.counter("group.certified.broadcasts"),
            ],
        });
        let (host, wal) = if durable {
            let (storage, wal) = FileWal::open(data_dir.join(format!("n{id}"))).expect("data dir");
            let mut host =
                NodeHost::with_storage(NodeId(id as u64), Box::new(node), id as u64, storage);
            host.storage_mut().enable_wal_journal();
            (host, Some(wal))
        } else {
            (
                NodeHost::new(NodeId(id as u64), Box::new(node), id as u64),
                None,
            )
        };
        hosts.push(host);
        wals.push(wal);
    }

    let global = psc_telemetry::global();
    let pool = [
        global.counter("codec.pool.hits"),
        global.counter("codec.pool.misses"),
    ];
    let mut driver = Driver {
        inputs,
        hosts,
        wals,
        reassemblers: (0..inputs.nodes * inputs.nodes)
            .map(|_| FrameReassembler::new())
            .collect(),
        queue: BinaryHeap::new(),
        seq: 0,
        now_us: 0,
        sink: Arc::clone(&sink),
        churn_slots: Vec::new(),
        // Reserved up front so no reallocation lands between two spans.
        spans: mode
            .traced
            .then(|| SpanStore::with_capacity(publishes * 64)),
        handler_notes: Vec::new(),
        delivered_seen: 0,
        measuring: false,
        counts: Counts::default(),
        node_counters,
        encodes: global.counter("codec.encodes"),
        decodes: global.counter("codec.decodes"),
        matching_calls: global.counter("filter.matching_calls"),
        quote_workload: inputs
            .subs
            .iter()
            .any(|s| matches!(s.kind, SubKind::Quote { .. })),
    };

    // ---- start, subscribe, let the control floods land ----------------
    for node in 0..inputs.nodes {
        driver.callback(node, "dace.start", 0, |host, now| Some(host.start(now)));
    }
    driver.run_until(1_000);
    let stable = inputs.subs.len() - inputs.churn_slots;
    for node in 0..inputs.nodes {
        let mine: Vec<(usize, &SubSpec)> = inputs
            .subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.node == node)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let sink = Arc::clone(&sink);
        let mut kept = Vec::new();
        driver.callback(node, "dace.sub_cb", 0, |host, now| {
            Some(host.act(now, |node, ctx| {
                DaceNode::drive_ctx(node, ctx, |domain| {
                    for (i, spec) in mine {
                        let sub = workload::subscribe(domain, spec, &sink, i);
                        if i < stable {
                            sub.detach();
                        } else {
                            kept.push(Some(sub));
                        }
                    }
                })
            }))
        });
        driver.churn_slots.extend(kept);
    }
    driver.run_until(SETTLE_US);

    // ---- measured region: the paced schedule, then settle -------------
    let gap_us = 1e6 / inputs.paced_per_s as f64;
    let first_us = SETTLE_US + 1;
    let mut churn = inputs.replay_phase().churn.iter().enumerate().peekable();
    for i in 0..publishes {
        let due = first_us + (i as f64 * gap_us) as u64;
        while let Some((j, _)) = churn.next_if(|(_, op)| op.before <= i) {
            driver.push(due, Event::Churn(j));
        }
        driver.push(due, Event::Publish(i));
    }
    let last_us = first_us + (publishes as f64 * gap_us) as u64 + SETTLE_US;
    let (encodes, hits, misses) = (driver.encodes.get(), pool[0].get(), pool[1].get());
    driver.measuring = true;
    let started = Instant::now();
    driver.run_until(last_us);
    let wall_ns = started.elapsed().as_nanos() as u64;
    driver.measuring = false;
    driver.counts.encodes = driver.encodes.get() - encodes;
    let (hits, misses) = (pool[0].get() - hits, pool[1].get() - misses);

    // ---- check the outputs against the oracle's prefix ----------------
    let last_tag = inputs.replay_phase().publishes[..publishes]
        .last()
        .map_or(0, |p| p.tag);
    let first_tag = inputs
        .replay_phase()
        .publishes
        .first()
        .map_or(u64::MAX, |p| p.tag);
    let expected: Vec<Vec<u64>> = inputs
        .expected
        .iter()
        .map(|tags| {
            tags.iter()
                .copied()
                .filter(|t| (first_tag..=last_tag).contains(t))
                .collect()
        })
        .collect();
    let logs = sink.take_logs();
    let verdict = oracle::check(&expected, &logs);
    let mut counts = driver.counts;
    counts.deliveries = logs.iter().map(|l| l.len() as u64).sum();

    let spans = driver.spans.take();
    drop(driver);
    let _ = std::fs::remove_dir_all(data_dir);
    Replay {
        counts,
        pool_hit_share: hits as f64 / (hits + misses).max(1) as f64,
        wall_ns,
        virtual_s: (last_us - first_us) as f64 / 1e6,
        verdict,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// Two replays of one seed agree on every count, traced or not, and
    /// deliver exactly what the oracle expects; the traced one keeps spans.
    #[test]
    fn replays_of_one_seed_repeat_exactly() {
        psc_telemetry::set_global_enabled(true);
        let dir =
            std::env::temp_dir().join(format!("psc-benchmark-replay-test-{}", std::process::id()));
        for workload in [
            Workload::ReliableFanout,
            Workload::CertifiedWal,
            Workload::SubChurn,
        ] {
            let inputs = Inputs::generate(workload, 11, 2);
            let plain = run(
                &inputs,
                60,
                Mode {
                    traced: false,
                    observability: true,
                },
                &dir,
            );
            let traced = run(
                &inputs,
                60,
                Mode {
                    traced: true,
                    observability: true,
                },
                &dir,
            );
            assert_eq!(plain.counts, traced.counts, "{}", workload.name());
            assert_eq!(
                plain.verdict.failed(),
                0,
                "{}: {:?}",
                workload.name(),
                plain.verdict
            );
            assert_eq!(plain.counts.publishes, 60);
            assert!(plain.counts.deliveries > 0 && plain.counts.callbacks > 0);
            assert_eq!(plain.counts.wal_appends > 0, workload.durable());
            let spans = traced.spans.expect("traced replay keeps spans");
            assert!(spans.spans.iter().any(|s| s.name == "handler"));
            assert!(plain.spans.is_none());
        }
    }
}
