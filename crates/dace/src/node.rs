//! The DACE engine as a simulated node.
//!
//! A [`DaceNode`] is one address space: it hosts a
//! [`Domain`](pubsub_core::Domain) (the application-facing pub/sub
//! endpoint) and implements the paper's class-based dissemination beneath
//! it — multicast classes, reflexive control traffic, QoS-driven protocol
//! selection, filter placement and transmission semantics. See the crate
//! docs for the architecture.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use psc_codec::hash::{FastMap, FastSet};
use psc_codec::{CodecError, WireBytes};
use psc_filter::{FilterId, FilterIndex, InvalidFilter, RemoteFilter, Value, WireFilter};
use psc_group::{
    Causal, Certified, Fifo, GroupIo, Lpbcast, Multicast, Reliable, TimerToken, Total,
};
use psc_obvent::qos::{Delivery, Ordering, QosSpec};
use psc_obvent::{builtin, KindId, KindRole, Obvent, WireObvent};
use psc_simnet::{Ctx, Node, NodeId, ScopedStorage, SimNet, SimTime, TimerId};
use psc_snapshot::{CausalStamp, ChannelFrag, ClusterCut, MsgRef, NodeFrag};
use psc_telemetry::{
    FlightRecorder, HealthMonitor, Inspect, Registry, ReportBuilder, TraceId, TraceStage, Tracer,
};
use pubsub_core::{
    DeliverySink, Dissemination, Domain, ExecMode, PublishError, SubId, SubscribeError,
    SubscriptionRecord, UnsubscribeError,
};
use serde::{Deserialize, Serialize};

use crate::config::{DaceConfig, Placement};
use crate::control::{
    entry_hash, AdvertiseCtl, DigestCtl, PullCtl, SubSetCtl, SubscribeCtl, UnsubscribeCtl,
};
use crate::snapshot::{SnapPlane, FORCE_CLOSE_TICKS, RETRY_PERIOD, UNKNOWN_INITIATOR};

#[derive(Debug, Serialize, Deserialize)]
enum NodeMsg {
    /// A reflexive control obvent.
    Control(WireObvent),
    /// Protocol-internal bytes of one multicast class, tagged with the
    /// sender's snapshot wave at send time (Lai–Yang colouring: a receiver
    /// on a lower wave captures before processing; see [`SnapPlane`]).
    Data {
        channel: KindId,
        snap: u64,
        bytes: WireBytes,
    },
    /// A content-routed obvent on the direct (best-effort) path, with an
    /// optional expiry deadline (virtual µs). Its wave colour is the
    /// publisher's [`CausalStamp`] riding in the envelope.
    Direct {
        wire: WireObvent,
        deadline: Option<u64>,
    },
    /// An obvent sent to a filtering host for fan-out.
    Brokered(WireObvent),
    /// Several control envelopes to one destination, coalesced in one tick:
    /// frame-concatenated encoded [`NodeMsg`]s (see `flush_outbox`). The
    /// receiver splits the frames zero-copy and handles each in order.
    Batch(WireBytes),
    /// Chandy–Lamport snapshot marker: ignites capture at a receiver that
    /// has not joined wave `snap` yet, and closes the in-flight recording
    /// of the link it arrived on. `initiator` is where fragments are sent
    /// ([`UNKNOWN_INITIATOR`] from participants that joined via a tag).
    SnapMarker { snap: u64, initiator: u64 },
    /// One node's finalized [`NodeFrag`] (encoded), sent to the initiator.
    SnapFrag { snap: u64, bytes: WireBytes },
}

enum BackendOp {
    Publish(WireObvent),
    Subscribe(SubscriptionRecord),
    Unsubscribe(SubId),
}

/// The domain's fabric: queues operations for the node to execute with
/// network access (the node flushes the queue after every callback).
struct DaceBackend {
    ops: Arc<Mutex<VecDeque<BackendOp>>>,
}

impl Dissemination for DaceBackend {
    fn publish(&self, wire: WireObvent) -> Result<(), PublishError> {
        self.ops
            .lock()
            .expect("ops queue poisoned")
            .push_back(BackendOp::Publish(wire));
        Ok(())
    }

    fn subscribe(&self, record: SubscriptionRecord) -> Result<(), SubscribeError> {
        self.ops
            .lock()
            .expect("ops queue poisoned")
            .push_back(BackendOp::Subscribe(record));
        Ok(())
    }

    fn unsubscribe(&self, id: SubId) -> Result<(), UnsubscribeError> {
        self.ops
            .lock()
            .expect("ops queue poisoned")
            .push_back(BackendOp::Unsubscribe(id));
        Ok(())
    }
}

/// Persisted image of a durable subscription (paper §3.4.1: subscriptions
/// whose lifetime exceeds the hosting process). Stored in stable storage
/// under `dursub/<durable_id>`; on recovery, matching obvents are parked
/// until the application re-attaches with `activate_with_id`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DurableRecord {
    durable_id: u64,
    kind: u64,
    /// Encoded `RemoteFilter`, empty when unfiltered.
    filter: Vec<u8>,
}

/// A loaded [`DurableRecord`] awaiting re-attachment, its filter decoded
/// once at load rather than on every arriving obvent.
struct PendingDurable {
    kind: KindId,
    /// `None` when unfiltered — or when the stored filter was refused (see
    /// [`PendingDurable::load`]).
    filter: Option<RemoteFilter>,
}

impl PendingDurable {
    /// A filter the disk corrupted is never evaluated: the record falls
    /// back to its kind alone, erring on delivery (the re-attached
    /// handler's own filter has the last word).
    fn load(record: &DurableRecord, telemetry: &Registry) -> PendingDurable {
        PendingDurable {
            kind: KindId::from_raw(record.kind),
            filter: decode_filter(&record.filter, telemetry).unwrap_or(None),
        }
    }

    fn matches(&self, wire: &WireObvent) -> bool {
        if !psc_obvent::registry::is_subtype(wire.kind_id(), self.kind) {
            return false;
        }
        let Some(filter) = &self.filter else {
            return true;
        };
        match wire.view() {
            Ok(view) => filter.matches(&view),
            Err(_) => true,
        }
    }
}

/// Decodes a filter a persisted [`DurableRecord`] holds through the checked
/// entrance [`RemoteFilter::from_wire`]; empty means unfiltered. A refused
/// filter is counted in `dace.control.rejected`; what becomes of its
/// subscription is the caller's call. (A peer's `SubscribeCtl` filter is
/// checked by [`WireFilter::parse`] and indexed from its bytes.)
fn decode_filter(
    bytes: &[u8],
    telemetry: &Registry,
) -> Result<Option<RemoteFilter>, InvalidFilter> {
    if bytes.is_empty() {
        return Ok(None);
    }
    RemoteFilter::from_wire(bytes)
        .map(Some)
        .inspect_err(|_| telemetry.bump("dace.control.rejected", 1))
}

/// Upper bound on obvents parked for not-yet-re-attached durable
/// subscriptions (oldest dropped beyond this).
const MAX_PARKED: usize = 1024;

/// The reserved subscription id under which a recovered durable
/// subscription stays joined until its application re-attaches. A
/// `Domain` numbers its subscriptions from 1 up and never reaches the top
/// bit.
fn stand_in_id(durable_id: u64) -> u64 {
    1 << 63 | durable_id
}

/// Counters describing one node's WAL activity, mirrored into the
/// [`Inspect`] report (the report renders from `&self`, without storage
/// access, so the commit path maintains this copy).
#[derive(Debug, Default, Clone)]
struct WalReport {
    /// Per-log `(segments, total_bytes)` as of the last commit.
    logs: BTreeMap<String, (u64, u64)>,
    /// Records replayed during bootstrap.
    replayed: u64,
    /// Segments whose tail was torn (truncated mid-record) at replay.
    torn: u64,
    /// Records rejected by CRC/decoding at replay.
    corrupt: u64,
}

enum DaceTimer {
    Announce,
    Channel(KindId, TimerToken),
    /// Periodic stall-watchdog sweep ([`DaceConfig::watchdog`]).
    Watchdog,
    /// Snapshot liveness tick (every [`RETRY_PERIOD`]): re-floods
    /// markers while the wave is open and force-closes recordings whose
    /// marker never arrives.
    SnapRetry,
}

/// A direct send staged by the current callback.
struct TransmitItem {
    priority: i64,
    to: NodeId,
    /// Pre-encoded `NodeMsg::Direct`, shared by every destination of the
    /// publish that staged it (serialize-once fan-out).
    encoded: WireBytes,
}

/// How a channel routes to one subscription it knows about.
enum Route {
    /// One of this node's own: counted for membership only. Whether a
    /// self-published obvent reaches it is asked of the node's `Domain`,
    /// the one place a node's own filters are indexed.
    Local,
    /// A remote subscription without a filter: its node always receives.
    Unfiltered,
    /// A remote subscription whose filter sits in the channel's index.
    Filtered(FilterId),
}

/// One subscription a channel knows about: how it routes, and the
/// [`entry_hash`] it contributes to its node's [`SetDigest`].
struct SubEntry {
    route: Route,
    hash: u64,
}

/// One node's subscription set in constant size: the XOR of its entries'
/// hashes and their count. Kept incrementally wherever an entry enters or
/// leaves a channel, so comparing a peer's [`DigestCtl`] costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetDigest {
    xor: u64,
    count: u64,
}

struct Channel {
    proto: Option<Box<dyn Multicast>>,
    /// Subscriber nodes, sorted (gives every node the same sequencer).
    members: Vec<NodeId>,
    /// Compound filter over the *remote* nodes' filtered subscriptions.
    index: FilterIndex,
    /// Indexed filter → the node that registered it.
    filter_owner: FastMap<FilterId, u64>,
    /// (node, sub) → how the channel routes to it. A peer names both
    /// words, so two-word keys that collide in `FastMap` are free to
    /// build: this map keeps `std`'s keyed hasher.
    sub_entries: HashMap<(u64, u64), SubEntry>,
    /// Subscriptions per node; `members` is its key set.
    node_subs: FastMap<u64, u32>,
    /// Unfiltered subscriptions per remote node.
    unfiltered: FastMap<u64, u32>,
}

impl Channel {
    fn new(proto: Option<Box<dyn Multicast>>) -> Channel {
        Channel {
            proto,
            members: Vec::new(),
            index: FilterIndex::new(),
            filter_owner: FastMap::default(),
            sub_entries: HashMap::new(),
            node_subs: FastMap::default(),
            unfiltered: FastMap::default(),
        }
    }

    /// Whether the channel holds `(node, sub)` as exactly the entry `hash`
    /// stands for.
    fn holds(&self, node: u64, sub: u64, hash: u64) -> bool {
        self.sub_entries
            .get(&(node, sub))
            .is_some_and(|entry| entry.hash == hash)
    }

    /// Registers a remote node's subscription, replacing whatever the key
    /// held before (a restarted node reuses its subscription ids). A
    /// filter whose predicates do not decode (which a parsed filter's never
    /// do) leaves the key unrouted and is refused.
    fn subscribe(
        &mut self,
        node: u64,
        sub: u64,
        hash: u64,
        filter: Option<WireFilter<'_>>,
        digest: &mut SetDigest,
    ) -> Result<(), CodecError> {
        self.unsubscribe(node, sub, digest);
        let route = match filter {
            Some(filter) => {
                let id = self.index.insert_wire(filter)?;
                self.filter_owner.insert(id, node);
                Route::Filtered(id)
            }
            None => {
                *self.unfiltered.entry(node).or_insert(0) += 1;
                Route::Unfiltered
            }
        };
        self.enter(node, sub, SubEntry { route, hash }, digest);
        Ok(())
    }

    /// Registers one of the hosting node's own subscriptions: membership
    /// (group protocols address `members`), no filter.
    fn subscribe_local(&mut self, me: u64, sub: u64, hash: u64, digest: &mut SetDigest) {
        if !self.sub_entries.contains_key(&(me, sub)) {
            let entry = SubEntry {
                route: Route::Local,
                hash,
            };
            self.enter(me, sub, entry, digest);
        }
    }

    fn enter(&mut self, node: u64, sub: u64, entry: SubEntry, digest: &mut SetDigest) {
        digest.xor ^= entry.hash;
        digest.count += 1;
        self.sub_entries.insert((node, sub), entry);
        let subs = self.node_subs.entry(node).or_insert(0);
        *subs += 1;
        if *subs == 1 {
            let at = self.members.partition_point(|m| m.0 < node);
            self.members.insert(at, NodeId(node));
        }
    }

    fn unsubscribe(&mut self, node: u64, sub: u64, digest: &mut SetDigest) {
        let Some(entry) = self.sub_entries.remove(&(node, sub)) else {
            return;
        };
        digest.xor ^= entry.hash;
        digest.count -= 1;
        match entry.route {
            Route::Local => {}
            Route::Unfiltered => {
                release(&mut self.unfiltered, node);
            }
            Route::Filtered(filter_id) => {
                self.index.discard(filter_id);
                self.filter_owner.remove(&filter_id);
            }
        }
        if release(&mut self.node_subs, node) {
            self.members.retain(|m| m.0 != node);
        }
    }

    /// Remote destination nodes for `wire` with publisher/broker-side
    /// filtering, ascending. Takes `&self`: `FilterIndex::matching` keeps
    /// its scratch behind a `RefCell`, so the publish hot path never needs
    /// a mutable channel.
    fn filtered_destinations(&self, wire: &WireObvent) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.unfiltered.keys().copied().map(NodeId).collect();
        if !self.filter_owner.is_empty() {
            match wire.view() {
                Ok(view) => {
                    let hits = self.index.matching(&view);
                    nodes.extend(hits.iter().map(|hit| NodeId(self.filter_owner[hit])));
                }
                // Cannot evaluate content here: fall back to sending to
                // every filtered subscriber (they re-filter locally).
                Err(_) => nodes.extend(self.filter_owner.values().copied().map(NodeId)),
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Drops one reference from `counts[node]`, forgetting the node at zero.
/// True when that was the last one.
fn release(counts: &mut FastMap<u64, u32>, node: u64) -> bool {
    let Some(count) = counts.get_mut(&node) else {
        return false;
    };
    *count -= 1;
    let last = *count == 0;
    if last {
        counts.remove(&node);
    }
    last
}

struct LocalSub {
    /// The domain's record. Its filter is the one encoding the domain made
    /// at activation: every join flood, pulled set and durable record
    /// shares that buffer, and the node holds no decoded copy (its own
    /// subscriptions are matched by the domain's index).
    record: SubscriptionRecord,
    /// The classes joined, ascending.
    joined: Vec<KindId>,
}

/// One DACE address space, deployable as a `psc-simnet` node.
pub struct DaceNode {
    id: Option<NodeId>,
    cluster: Vec<NodeId>,
    config: DaceConfig,
    domain: Domain,
    sink: DeliverySink,
    ops: Arc<Mutex<VecDeque<BackendOp>>>,
    local_subs: FastMap<u64, LocalSub>,
    published_kinds: HashSet<KindId>,
    known_kinds: FastSet<KindId>,
    /// Declared kind → the classes a subscription to it joins
    /// ([`DaceNode::classes_of`]).
    classes: FastMap<KindId, Arc<[KindId]>>,
    /// The registry's [`registered`](psc_obvent::registry::registered)
    /// count `classes` was resolved against.
    classes_registered: usize,
    channels: FastMap<KindId, Channel>,
    /// Per node, the digest of the entries this node's channels hold for
    /// it: its own set under its own id, its view of each peer's set under
    /// the peer's.
    digests: FastMap<u64, SetDigest>,
    timer_map: HashMap<TimerId, DaceTimer>,
    /// Direct sends staged by the current callback, in staging order;
    /// [`flush`](Self::flush) sends them highest priority first.
    transmit: Vec<TransmitItem>,
    /// Per-callback control outbox: messages queued per destination and
    /// coalesced into [`NodeMsg::Batch`] frames on flush (installing many
    /// subscriptions fans many small control floods to the same peers in
    /// one tick).
    outbox: FastMap<NodeId, Vec<WireBytes>>,
    /// Destinations in first-queued order, for a deterministic flush.
    outbox_order: Vec<NodeId>,
    /// Durable subscriptions persisted but not yet re-attached (loaded on
    /// recovery), by durable id.
    durable_pending: HashMap<u64, PendingDurable>,
    /// Obvents held for pending durable subscriptions, with the stable
    /// `park/<seq>` storage key each is persisted under.
    parked: VecDeque<(u64, WireObvent)>,
    /// Next `park/<seq>` key suffix.
    park_seq: u64,
    /// WAL activity mirror for the [`Inspect`] report.
    wal_report: WalReport,
    /// Metrics registry (`dace.*`, `group.*`); externally owned with
    /// [`DaceNode::factory_with_telemetry`] so counters survive crash
    /// rebuilds.
    telemetry: Arc<Registry>,
    /// Causal event recorder for wire-carried [`TraceId`]s.
    tracer: Arc<Tracer>,
    /// Per-node flight recorder (publishes, deliveries, health findings);
    /// externally owned so post-mortems survive crash rebuilds.
    recorder: Option<Arc<FlightRecorder>>,
    /// Stall-watchdog state machine, fed by [`DaceConfig::watchdog`]
    /// sweeps; externally owned so watermarks survive crash rebuilds.
    health: Option<Arc<HealthMonitor>>,
    /// Per-node publish counter minting deterministic trace ids.
    trace_seq: u64,
    /// Trace id of the most recent local publish (diagnostics).
    last_trace: TraceId,
    /// Snapshot plane: the causal clock stamped into every publish and
    /// this node's participation in the current Chandy–Lamport wave.
    snap: SnapPlane,
    /// Oracle-validation defect, set only by
    /// [`DaceNode::capture_after_processing`].
    capture_after_processing: bool,
}

impl DaceNode {
    /// Creates a DACE node for a statically known cluster, with telemetry
    /// disabled (a private no-op registry and tracer).
    pub fn new(cluster: Vec<NodeId>, config: DaceConfig) -> DaceNode {
        let tracer = Tracer::default();
        tracer.set_enabled(false);
        DaceNode::with_telemetry(
            cluster,
            config,
            Arc::new(Registry::disabled()),
            Arc::new(tracer),
        )
    }

    /// Creates a DACE node recording into `telemetry` and `tracer`. Both are
    /// shared handles: pass clones of externally owned instances so metrics
    /// and traces accumulate across crash–recover rebuilds and can be
    /// snapshotted from outside the simulation.
    pub fn with_telemetry(
        cluster: Vec<NodeId>,
        config: DaceConfig,
        telemetry: Arc<Registry>,
        tracer: Arc<Tracer>,
    ) -> DaceNode {
        DaceNode::with_observability(cluster, config, telemetry, tracer, None, None)
    }

    /// Full observability wiring: in addition to the registry and tracer,
    /// an optional per-node [`FlightRecorder`] (post-mortem ring) and an
    /// optional [`HealthMonitor`] driven by the [`DaceConfig::watchdog`]
    /// sweep timer. All shared handles are externally owned so diagnosis
    /// state survives crash–recover rebuilds.
    pub fn with_observability(
        cluster: Vec<NodeId>,
        config: DaceConfig,
        telemetry: Arc<Registry>,
        tracer: Arc<Tracer>,
        recorder: Option<Arc<FlightRecorder>>,
        health: Option<Arc<HealthMonitor>>,
    ) -> DaceNode {
        let ops: Arc<Mutex<VecDeque<BackendOp>>> = Arc::new(Mutex::new(VecDeque::new()));
        let backend_ops = Arc::clone(&ops);
        let domain = Domain::with_backend(ExecMode::Inline, move |_sink| {
            Box::new(DaceBackend { ops: backend_ops })
        });
        domain.attach_telemetry(&telemetry);
        let sink = domain.sink();
        DaceNode {
            id: None,
            cluster,
            config,
            domain,
            sink,
            ops,
            local_subs: FastMap::default(),
            published_kinds: HashSet::new(),
            known_kinds: FastSet::default(),
            classes: FastMap::default(),
            classes_registered: 0,
            channels: FastMap::default(),
            digests: FastMap::default(),
            timer_map: HashMap::new(),
            transmit: Vec::new(),
            outbox: FastMap::default(),
            outbox_order: Vec::new(),
            durable_pending: HashMap::new(),
            parked: VecDeque::new(),
            park_seq: 0,
            wal_report: WalReport::default(),
            telemetry,
            tracer,
            recorder,
            health,
            trace_seq: 0,
            last_trace: TraceId::NONE,
            snap: SnapPlane::default(),
            capture_after_processing: false,
        }
    }

    /// Deliberately broken marker discipline, for oracle validation only: a
    /// receiver seeing a message tagged with a newer snapshot wave
    /// *processes it first* and only then captures — the classic
    /// Chandy–Lamport bug that lets a post-cut send slip into the
    /// receiver's pre-cut state. Called by the harness's
    /// `broken::SkewedMarkers` node factory and nothing else.
    #[doc(hidden)]
    pub fn capture_after_processing(mut self) -> DaceNode {
        self.capture_after_processing = true;
        self
    }

    /// A boxed-node factory for [`SimNet::add_node`]; each (re)build gets a
    /// fresh volatile state, as a crashed process would.
    pub fn factory(
        cluster: Vec<NodeId>,
        config: DaceConfig,
    ) -> impl FnMut() -> Box<dyn Node> + 'static {
        move || Box::new(DaceNode::new(cluster.clone(), config.clone()))
    }

    /// Like [`DaceNode::factory`], but every (re)build records into the same
    /// externally owned registry and tracer — the monitoring state survives
    /// the monitored process, as it would with a real collector.
    pub fn factory_with_telemetry(
        cluster: Vec<NodeId>,
        config: DaceConfig,
        telemetry: Arc<Registry>,
        tracer: Arc<Tracer>,
    ) -> impl FnMut() -> Box<dyn Node> + 'static {
        move || {
            Box::new(DaceNode::with_telemetry(
                cluster.clone(),
                config.clone(),
                Arc::clone(&telemetry),
                Arc::clone(&tracer),
            ))
        }
    }

    /// Like [`DaceNode::factory_with_telemetry`] with the full diagnosis
    /// wiring of [`DaceNode::with_observability`].
    pub fn factory_observable(
        cluster: Vec<NodeId>,
        config: DaceConfig,
        telemetry: Arc<Registry>,
        tracer: Arc<Tracer>,
        recorder: Option<Arc<FlightRecorder>>,
        health: Option<Arc<HealthMonitor>>,
    ) -> impl FnMut() -> Box<dyn Node> + 'static {
        move || {
            Box::new(DaceNode::with_observability(
                cluster.clone(),
                config.clone(),
                Arc::clone(&telemetry),
                Arc::clone(&tracer),
                recorder.clone(),
                health.clone(),
            ))
        }
    }

    /// The node's application-facing domain (cloneable handle).
    pub fn domain(&self) -> Domain {
        self.domain.clone()
    }

    /// The registry this node records into (shared handle).
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.telemetry)
    }

    /// The tracer this node records into (shared handle).
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    /// Trace id minted by this node's most recent publish
    /// ([`TraceId::NONE`] before the first one).
    pub fn last_publish_trace(&self) -> TraceId {
        self.last_trace
    }

    // ---- static driver helpers for tests and experiments ----

    /// Runs `f` against the node's domain at the current virtual time and
    /// immediately flushes the resulting fabric operations.
    pub fn drive(sim: &mut SimNet, node: NodeId, f: impl FnOnce(&Domain) + 'static) {
        sim.act_now(node, move |n, ctx| {
            let this = n
                .as_any_mut()
                .downcast_mut::<DaceNode>()
                .expect("node is a DaceNode");
            f(&this.domain);
            this.flush(ctx);
        });
    }

    /// Like [`DaceNode::drive`], but against any driver holding a live
    /// `Ctx` — the real-transport hook: a socket transport's injection
    /// path downcasts its hosted node and drives the domain exactly the
    /// way the simulator does.
    pub fn drive_ctx(node: &mut dyn Node, ctx: &mut Ctx<'_>, f: impl FnOnce(&Domain)) {
        let this = node
            .as_any_mut()
            .downcast_mut::<DaceNode>()
            .expect("node is a DaceNode");
        f(&this.domain);
        this.flush(ctx);
    }

    /// Publishes an obvent from the node's domain.
    pub fn publish_from<O: Obvent>(sim: &mut SimNet, node: NodeId, obvent: O) {
        DaceNode::drive(sim, node, move |domain| {
            domain.publish(obvent).expect("publish through DACE");
        });
    }

    /// Renders the node's deterministic state report ([`Inspect`]); `None`
    /// when the node is down.
    pub fn inspect_of(sim: &mut SimNet, node: NodeId) -> Option<String> {
        sim.node_mut::<DaceNode>(node).map(|n| n.inspect())
    }

    /// Trace id of the node's most recent publish ([`TraceId::NONE`] if the
    /// node is down or has not published).
    pub fn last_trace_of(sim: &mut SimNet, node: NodeId) -> TraceId {
        sim.node_mut::<DaceNode>(node)
            .map(|n| n.last_trace)
            .unwrap_or(TraceId::NONE)
    }

    /// A cloneable handle to the node's domain for out-of-band subscription
    /// setup (operations queue until the node's next activity; prefer
    /// [`DaceNode::drive`] in deterministic tests).
    pub fn domain_of(sim: &mut SimNet, node: NodeId) -> Option<Domain> {
        sim.node_mut::<DaceNode>(node).map(|n| n.domain.clone())
    }

    /// Cross-checks every matching engine of the node — each channel's
    /// index of remote filters (publisher side) and the domain's index of
    /// its own subscriptions (subscriber side,
    /// [`Domain::index_findings`]): runs the structural audit
    /// ([`FilterIndex::check_consistency`]) and compares counting-indexed
    /// [`FilterIndex::matching`] against the differential oracle
    /// [`FilterIndex::naive_matching`] on `probe`. Returns human-readable
    /// findings; empty means every index is healthy. The chaos harness
    /// samples this mid-storm as its `FilterOracle`.
    pub fn filter_oracle_findings(&self, probe: &Value) -> Vec<String> {
        let mut findings: Vec<String> = self
            .domain
            .index_findings(probe)
            .into_iter()
            .map(|finding| format!("domain: {finding}"))
            .collect();
        let mut kinds: Vec<KindId> = self.channels.keys().copied().collect();
        kinds.sort();
        for kind in kinds {
            let channel = &self.channels[&kind];
            if let Err(err) = channel.index.check_consistency() {
                findings.push(format!(
                    "channel {}: index audit failed: {err}",
                    kind_name(kind)
                ));
            }
            let indexed = channel.index.matching(probe);
            let naive = channel.index.naive_matching(probe);
            if indexed != naive {
                findings.push(format!(
                    "channel {}: indexed matching diverged from naive: {:?} vs {:?}",
                    kind_name(kind),
                    indexed,
                    naive
                ));
            }
        }
        findings
    }

    /// Runs [`DaceNode::filter_oracle_findings`] against a live node (empty
    /// when the node is down — a crashed node has no index to audit).
    pub fn filter_oracle_of(sim: &mut SimNet, node: NodeId, probe: &Value) -> Vec<String> {
        sim.node_mut::<DaceNode>(node)
            .map(|n| n.filter_oracle_findings(probe))
            .unwrap_or_default()
    }

    // ---- internals ----

    fn me(&self) -> NodeId {
        self.id.expect("node id assigned on first callback")
    }

    fn ensure_id(&mut self, ctx: &mut Ctx<'_>) {
        if self.id.is_none() {
            self.id = Some(ctx.id());
            self.wal_bootstrap(ctx);
        }
    }

    /// Once per incarnation, before any other storage access: declares the
    /// node keyspace durable, has the storage replay its write-ahead logs
    /// into the key–value map, and reloads durable subscriptions and parked
    /// obvents from it.
    fn wal_bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        ctx.storage().wal_bind("dursub/", "node");
        ctx.storage().wal_bind("park/", "node");
        let replay = ctx.storage().wal_recover();
        self.wal_report.replayed = replay.records;
        self.wal_report.torn = replay.torn;
        self.wal_report.corrupt = replay.corrupt;
        self.wal_report.logs.extend(replay.logs);
        self.bump_nonzero(&[
            ("wal.replay.records", replay.records),
            ("wal.replay.torn", replay.torn),
            ("wal.replay.corrupt", replay.corrupt),
        ]);
        // Reload durable subscriptions (they outlive the process, §3.4.1;
        // matching obvents are parked until the application re-attaches
        // with `activate_with_id`) and parked obvents. Here rather than in
        // `on_recover`: a real transport restarting a process calls
        // `on_start`, and the WAL is what makes that a resume.
        let mut stand_ins = Vec::new();
        for (_, bytes) in ctx.storage().entries_with_prefix("dursub/") {
            if let Ok(record) = psc_codec::from_bytes::<DurableRecord>(&bytes) {
                let pending = PendingDurable::load(&record, &self.telemetry);
                // Its routing outlives the process too: until the
                // application re-attaches, a stand-in under a reserved id
                // keeps the subscription's classes joined, so peers keep
                // sending its obvents here to be parked.
                let filter = match pending.filter {
                    Some(_) => WireBytes::from(record.filter),
                    None => WireBytes::default(),
                };
                stand_ins.push(SubscriptionRecord {
                    id: SubId(stand_in_id(record.durable_id)),
                    kind: pending.kind,
                    filter,
                    durable_id: Some(record.durable_id),
                });
                self.durable_pending.insert(record.durable_id, pending);
            }
        }
        stand_ins.sort_by_key(|record| record.id);
        for record in stand_ins {
            self.join_all(ctx, record);
        }
        for (key, bytes) in ctx.storage().entries_with_prefix("park/") {
            let Ok(seq) = key["park/".len()..].parse::<u64>() else {
                continue;
            };
            if let Ok(wire) = psc_codec::from_bytes::<WireObvent>(&bytes) {
                self.parked.push_back((seq, wire));
                self.park_seq = self.park_seq.max(seq + 1);
            }
        }
    }

    /// End of every callback, after its effects are queued but before they
    /// externalize: the storage's commit barrier, counted.
    fn wal_commit(&mut self, ctx: &mut Ctx<'_>) {
        let commit = ctx.storage().wal_commit();
        self.bump_nonzero(&[
            ("wal.appends", commit.appends),
            ("wal.bytes", commit.bytes),
            ("wal.rotations", commit.rotations),
            ("wal.syncs", commit.syncs),
            ("wal.checkpoints", commit.checkpoints),
        ]);
        self.wal_report.logs.extend(commit.logs);
    }

    /// Bumps each counter that moved; a zero registers nothing, so a node
    /// without durable state shows no `wal.*` at all.
    fn bump_nonzero(&self, counts: &[(&str, u64)]) {
        for &(name, count) in counts {
            if count > 0 {
                self.telemetry.bump(name, count);
            }
        }
    }

    fn flood_control<O: Obvent>(&mut self, ctl: &O) {
        let bytes = encode_control(ctl);
        let me = self.me();
        for i in 0..self.cluster.len() {
            let node = self.cluster[i];
            if node != me {
                self.send_control(node, bytes.clone());
            }
        }
    }

    fn send_control(&mut self, to: NodeId, bytes: WireBytes) {
        self.queue_send(to, bytes);
        self.telemetry.bump("dace.control_sent", 1);
    }

    /// Queues a control message for `to`; the outbox coalesces everything
    /// queued within one callback into a single frame per destination.
    fn queue_send(&mut self, to: NodeId, bytes: WireBytes) {
        let queue = self.outbox.entry(to).or_default();
        if queue.is_empty() {
            self.outbox_order.push(to);
        }
        queue.push(bytes);
    }

    /// Drains the control outbox: a destination's queue leaves in runs of
    /// at most [`BATCH_BUDGET`] bytes ([`batch_runs`]); a run of one
    /// message goes out as-is, a longer one is frame-concatenated into one
    /// [`NodeMsg::Batch`], so installing many subscriptions costs each peer
    /// a few network messages instead of one per subscription × channel.
    fn flush_outbox(&mut self, ctx: &mut Ctx<'_>) {
        for to in std::mem::take(&mut self.outbox_order) {
            let Some(msgs) = self.outbox.remove(&to) else {
                continue;
            };
            let lens: Vec<usize> = msgs.iter().map(|m| m.len()).collect();
            for run in batch_runs(&lens) {
                if let [msg] = &msgs[run.clone()] {
                    ctx.send(to, msg.clone());
                    continue;
                }
                self.telemetry
                    .bump("dace.batch.coalesced", run.len() as u64 - 1);
                let batch = psc_codec::batch_frames(msgs[run].iter().map(|m| &**m));
                ctx.send(to, encode_node_msg(&NodeMsg::Batch(batch)));
            }
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        self.ensure_id(ctx);
        loop {
            let op = self.ops.lock().expect("ops queue poisoned").pop_front();
            match op {
                None => break,
                Some(BackendOp::Publish(wire)) => self.publish_flow(ctx, wire),
                Some(BackendOp::Subscribe(record)) => self.subscribe_flow(ctx, record),
                Some(BackendOp::Unsubscribe(id)) => self.unsubscribe_flow(ctx, id),
            }
        }
        self.flush_outbox(ctx);
        self.flush_transmit(ctx);
        self.wal_commit(ctx);
    }

    fn subscribe_flow(&mut self, ctx: &mut Ctx<'_>, record: SubscriptionRecord) {
        let durable_id = record.durable_id;
        if let Some(durable_id) = durable_id {
            // Persist the subscription so it outlives the process
            // (§3.4.1); a matching pending record means this is a
            // re-attachment after recovery.
            let durable = DurableRecord {
                durable_id,
                kind: record.kind.as_u64(),
                filter: record.filter.to_vec(),
            };
            ctx.storage()
                .put(format!("dursub/{durable_id:020}"), &durable)
                .expect("durable record serialization cannot fail");
        }
        self.join_all(ctx, record);
        if let Some(durable_id) = durable_id {
            // Re-attached: the record's own joins replace the stand-in's,
            // joined first so that the node never leaves a class it stays
            // in.
            if self.durable_pending.remove(&durable_id).is_some() {
                self.leave_all(stand_in_id(durable_id));
            }
        }
        // Re-offer obvents parked while a durable subscription was
        // detached; anything still unmatched (other pending records) is
        // re-parked by `local_deliver` under a fresh key.
        if !self.parked.is_empty() {
            let parked: Vec<(u64, WireObvent)> = self.parked.drain(..).collect();
            for (seq, wire) in parked {
                ctx.storage().remove(&format!("park/{seq:020}"));
                self.local_deliver(ctx, &wire);
            }
        }
    }

    /// Enters a local subscription and joins the channel of every known
    /// concrete subtype of its declared kind; future subtypes join on
    /// advertisement.
    fn join_all(&mut self, ctx: &mut Ctx<'_>, record: SubscriptionRecord) {
        let (sub_raw, declared) = (record.id.0, record.kind);
        self.local_subs.insert(
            sub_raw,
            LocalSub {
                record,
                joined: Vec::new(),
            },
        );
        let classes = self.classes_of(declared);
        for &channel in classes.iter() {
            self.join_channel(ctx, sub_raw, channel);
        }
    }

    /// The classes a subscription to `declared` joins, ascending: every
    /// advertised kind that is a subtype of it and every concrete subtype
    /// registered here. Resolved once per declared kind and cached until
    /// `known_kinds` or the process's kind registry grows, so the cache
    /// holds at most one entry per kind.
    fn classes_of(&mut self, declared: KindId) -> Arc<[KindId]> {
        let registered = psc_obvent::registry::registered();
        if registered != self.classes_registered {
            self.classes.clear();
            self.classes_registered = registered;
        }
        if let Some(classes) = self.classes.get(&declared) {
            return Arc::clone(classes);
        }
        let mut targets: Vec<KindId> = self
            .known_kinds
            .iter()
            .copied()
            .filter(|&k| psc_obvent::registry::is_subtype(k, declared))
            .collect();
        for kind in psc_obvent::registry::subtypes_of(declared) {
            if kind.role() == KindRole::Class {
                targets.push(kind.id());
            }
        }
        targets.sort();
        targets.dedup();
        let classes: Arc<[KindId]> = targets.into();
        self.classes.insert(declared, Arc::clone(&classes));
        classes
    }

    fn join_channel(&mut self, ctx: &mut Ctx<'_>, sub_raw: u64, channel: KindId) {
        let me = self.me();
        let Some(local) = self.local_subs.get_mut(&sub_raw) else {
            return;
        };
        let Err(at) = local.joined.binary_search(&channel) else {
            return;
        };
        local.joined.insert(at, channel);
        let declared = local.record.kind.as_u64();
        let filter = &local.record.filter;
        let hash = entry_hash(sub_raw, channel.as_u64(), declared, filter);
        let ctl = SubscribeCtl::new(me.0, sub_raw, channel.as_u64(), declared, filter.clone());
        self.flood_control(&ctl);
        self.ensure_channel(ctx, channel);
        let ch = self.channels.get_mut(&channel).expect("just ensured");
        ch.subscribe_local(me.0, sub_raw, hash, self.digests.entry(me.0).or_default());
    }

    fn unsubscribe_flow(&mut self, ctx: &mut Ctx<'_>, id: SubId) {
        let Some(durable_id) = self.leave_all(id.0) else {
            return;
        };
        // Explicit deactivation ends the durable lifetime.
        ctx.storage().remove(&format!("dursub/{durable_id:020}"));
        self.durable_pending.remove(&durable_id);
    }

    /// Removes a local subscription and leaves every class it joined;
    /// returns its durable id, if it has one.
    fn leave_all(&mut self, sub_raw: u64) -> Option<u64> {
        let me = self.me();
        let local = self.local_subs.remove(&sub_raw)?;
        for channel in local.joined {
            let ctl = UnsubscribeCtl::new(me.0, sub_raw, channel.as_u64());
            self.flood_control(&ctl);
            self.forget(channel, me.0, sub_raw);
        }
        local.record.durable_id
    }

    fn advertise(&mut self, ctx: &mut Ctx<'_>, kind: KindId) {
        let (name, ancestry) = match psc_obvent::registry::lookup(kind) {
            Some(k) => (
                k.name().to_string(),
                k.ancestry().iter().map(|id| id.as_u64()).collect(),
            ),
            None => (kind.to_string(), vec![kind.as_u64()]),
        };
        let ctl = AdvertiseCtl::new(kind.as_u64(), name, ancestry);
        self.flood_control(&ctl);
        self.apply_advertise(ctx, kind);
    }

    fn apply_advertise(&mut self, ctx: &mut Ctx<'_>, kind: KindId) {
        if !self.known_kinds.insert(kind) {
            return;
        }
        // A class subscriptions may join: resolve them afresh.
        self.classes.clear();
        // Join the new class on behalf of matching local subscriptions.
        let matching: Vec<u64> = self
            .local_subs
            .iter()
            .filter(|(_, local)| psc_obvent::registry::is_subtype(kind, local.record.kind))
            .map(|(&sub, _)| sub)
            .collect();
        for sub in matching {
            self.join_channel(ctx, sub, kind);
        }
    }

    fn publish_flow(&mut self, ctx: &mut Ctx<'_>, mut wire: WireObvent) {
        let kind = wire.kind_id();
        // Mint the obvent's end-to-end identity; it rides in the envelope
        // through every hop below.
        self.trace_seq += 1;
        let trace = TraceId::mint(self.me().0, self.trace_seq);
        wire.set_trace(trace);
        self.last_trace = trace;
        // Advance the causal plane and stamp the envelope: the clock lets
        // the snapshot oracles order the cut, the wave id colours every
        // relay of this obvent for capture-before-processing.
        self.snap.clock.tick(self.me().0);
        wire.set_stamp(CausalStamp {
            snap: self.snap.wave,
            clock: self.snap.clock.clone(),
        });
        let qos = wire.qos();
        if self.telemetry.is_enabled() {
            let kname = kind_name(kind);
            self.telemetry.bump("dace.published", 1);
            self.telemetry
                .bump(&format!("dace.channel.{kname}.published"), 1);
        }
        if self.tracer.is_enabled() || self.recorder.is_some() {
            // The `sem=` token keys the derived `span.e2e.<class>`
            // histograms by the publish's QoS class.
            let detail = format!(
                "kind={} at=n{} sem={}",
                kind_name(kind),
                self.me().0,
                qos_class(&qos)
            );
            if let Some(recorder) = &self.recorder {
                recorder.record(ctx.now().as_micros(), "publish", format!("{trace} {detail}"));
            }
            self.tracer
                .record(trace, ctx.now().as_micros(), TraceStage::Publish, detail);
        }
        if self.published_kinds.insert(kind) {
            self.advertise(ctx, kind);
        }
        self.ensure_channel(ctx, kind);
        if self.channels.get(&kind).expect("ensured").proto.is_some() {
            self.telemetry.bump("dace.group_broadcasts", 1);
            if self.tracer.is_enabled() {
                self.tracer.record(
                    trace,
                    ctx.now().as_micros(),
                    TraceStage::GroupBroadcast,
                    format!("kind={}", kind_name(kind)),
                );
            }
            let bytes = psc_codec::to_wire_bytes(&wire).expect("wire obvents encode");
            self.with_channel_proto(ctx, kind, |proto, io| proto.broadcast(io, bytes));
        } else {
            self.direct_publish(ctx, kind, wire, &qos);
        }
    }

    fn direct_publish(&mut self, ctx: &mut Ctx<'_>, kind: KindId, wire: WireObvent, qos: &QosSpec) {
        let me = self.me();
        let (priority, deadline) = transmission_params(&wire, qos, ctx.now());
        if let Placement::Broker(broker) = self.config.placement {
            if broker != me {
                // Brokered envelopes go upstream immediately (single
                // message); the broker orders the fan-out by priority.
                ctx.send(broker, encode_node_msg(&NodeMsg::Brokered(wire)));
                return;
            }
        }
        // Matched once: the answer decides whether this node is a
        // destination and is what `local_deliver_matched` dispatches.
        let local = self.sink.matching(&wire);
        let destinations = {
            let ch = self.channels.get(&kind).expect("ensured");
            match self.config.placement {
                Placement::Subscriber => ch.members.clone(),
                Placement::Publisher | Placement::Broker(_) => {
                    self.telemetry.bump("dace.filter_evals", 1);
                    let mut nodes = ch.filtered_destinations(&wire);
                    if !local.is_empty() {
                        nodes.insert(nodes.partition_point(|&n| n < me), me);
                    }
                    nodes
                }
            }
        };
        if self.tracer.is_enabled() {
            self.tracer.record(
                wire.trace_id(),
                ctx.now().as_micros(),
                TraceStage::FilterEval,
                format!("at=n{} dests={}", me.0, destinations.len()),
            );
        }
        // Serialize-once fan-out: the Direct envelope is encoded at most
        // once per publish, and every remote destination's staged send
        // shares that buffer.
        let trace = wire.trace_id();
        let deadline_us = deadline.map(|d| d.as_micros());
        let mut encoded: Option<WireBytes> = None;
        for dest in destinations {
            if dest == me {
                self.local_deliver_matched(ctx, &wire, &local);
            } else {
                self.telemetry.bump("dace.direct_sent", 1);
                let bytes = encoded
                    .get_or_insert_with(|| {
                        encode_node_msg(&NodeMsg::Direct {
                            wire: wire.clone(),
                            deadline: deadline_us,
                        })
                    })
                    .clone();
                if self.tracer.is_enabled() {
                    self.tracer.record(
                        trace,
                        ctx.now().as_micros(),
                        TraceStage::TransmitEnqueue,
                        format!("to=n{}", dest.0),
                    );
                }
                self.transmit.push(TransmitItem {
                    priority,
                    to: dest,
                    encoded: bytes,
                });
            }
        }
    }

    /// Sends the callback's staged direct sends, highest priority first
    /// and in staging order among equals. `Timely` deadlines are checked by
    /// the receiver on arrival: nothing waits here for one to pass.
    fn flush_transmit(&mut self, ctx: &mut Ctx<'_>) {
        self.transmit.sort_by_key(|item| Reverse(item.priority));
        for item in self.transmit.drain(..) {
            ctx.send(item.to, item.encoded);
        }
    }

    fn local_deliver(&mut self, ctx: &mut Ctx<'_>, wire: &WireObvent) {
        let local = self.sink.matching(wire);
        self.local_deliver_matched(ctx, wire, &local);
    }

    /// Delivers `wire` to `local`, the domain's answer to
    /// `sink.matching(wire)`.
    fn local_deliver_matched(&mut self, ctx: &mut Ctx<'_>, wire: &WireObvent, local: &[SubId]) {
        // Belt-and-braces capture: a group protocol can release an obvent
        // from its hold-back long after the frame that carried it (whose
        // wave tag was checked on arrival), so re-check the publisher's
        // stamp at the delivery boundary — capture must precede both the
        // delivery and the clock merge.
        let stamp_snap = wire.stamp().snap;
        if stamp_snap > self.snap.wave && !self.capture_after_processing {
            self.telemetry.bump("snapshot.captures.tagged", 1);
            self.snapshot_begin(ctx, stamp_snap, UNKNOWN_INITIATOR, false);
        }
        if !wire.stamp().clock.is_empty() {
            self.snap.clock.merge(&wire.stamp().clock);
        }
        let matched = self.sink.dispatch(wire, local);
        if matched > 0
            && self.telemetry.is_enabled() {
                let kname = kind_name(wire.kind_id());
                self.telemetry.bump("dace.delivered", matched as u64);
                self.telemetry
                    .bump(&format!("dace.channel.{kname}.delivered"), matched as u64);
            }
        if self.tracer.is_enabled() {
            self.tracer.record(
                wire.trace_id(),
                ctx.now().as_micros(),
                TraceStage::Deliver,
                format!("at=n{} matched={matched}", self.me().0),
            );
        }
        if let Some(recorder) = &self.recorder {
            recorder.record(
                ctx.now().as_micros(),
                "deliver",
                format!("{} matched={matched}", wire.trace_id()),
            );
        }
        if matched == 0
            && self
                .durable_pending
                .values()
                .any(|record| record.matches(wire))
        {
            // A durable subscription exists but its handler has not
            // re-attached yet (§3.4.1 recovery window): hold the obvent,
            // durably — a parked-then-crashed obvent is still owed to the
            // subscriber when it comes back.
            if self.parked.len() >= MAX_PARKED {
                if let Some((seq, _)) = self.parked.pop_front() {
                    ctx.storage().remove(&format!("park/{seq:020}"));
                }
            }
            self.telemetry.bump("dace.parked", 1);
            let seq = self.park_seq;
            self.park_seq += 1;
            let bytes = psc_codec::to_bytes(wire).expect("wire obvents encode");
            ctx.storage().put_raw(format!("park/{seq:020}"), bytes);
            self.parked.push_back((seq, wire.clone()));
        }
    }

    fn ensure_channel(&mut self, ctx: &mut Ctx<'_>, kind: KindId) {
        if self.channels.contains_key(&kind) {
            return;
        }
        let qos = psc_obvent::registry::lookup(kind)
            .map(|k| k.qos().clone())
            .unwrap_or_default();
        // Fig. 4: `Certified` delivery implies durability — the channel's
        // keyspace writes ahead to its own log from its first write on.
        if qos.delivery == Delivery::Certified {
            ctx.storage().wal_bind(&format!("ch/{kind}/"), &format!("ch/{kind}"));
        }
        let proto = make_proto(&qos, &self.config);
        let has_proto = proto.is_some();
        self.channels.insert(kind, Channel::new(proto));
        if has_proto {
            self.with_channel_proto(ctx, kind, |proto, io| proto.on_start(io));
        }
    }

    /// Runs a closure over a channel's protocol with a [`GroupIo`] wired to
    /// this node, then routes the resulting deliveries and timers.
    fn with_channel_proto(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: KindId,
        f: impl FnOnce(&mut dyn Multicast, &mut dyn GroupIo),
    ) {
        let Some(mut channel) = self.channels.remove(&kind) else {
            return;
        };
        let mut delivered: Vec<(NodeId, WireBytes)> = Vec::new();
        let mut new_timers: Vec<(psc_simnet::Duration, TimerToken)> = Vec::new();
        if let Some(proto) = channel.proto.as_mut() {
            let mut io = ChannelIo {
                ctx,
                kind,
                snap: self.snap.wave,
                members: &channel.members,
                delivered: &mut delivered,
                new_timers: &mut new_timers,
                telemetry: &self.telemetry,
                last_encoded: None,
            };
            f(proto.as_mut(), &mut io);
        }
        self.channels.insert(kind, channel);
        for (after, token) in new_timers {
            let id = ctx.set_timer(after);
            self.timer_map.insert(id, DaceTimer::Channel(kind, token));
        }
        for (origin, payload) in delivered {
            if let Ok(wire) = psc_codec::from_bytes::<WireObvent>(&payload) {
                if self.tracer.is_enabled() {
                    self.tracer.record(
                        wire.trace_id(),
                        ctx.now().as_micros(),
                        TraceStage::GroupDeliver,
                        format!("at=n{} origin=n{}", self.me().0, origin.0),
                    );
                }
                self.local_deliver(ctx, &wire);
            }
        }
    }

    /// Applies one control obvent. One that names a control kind but does
    /// not decode as it is dropped and counted in `dace.control.rejected`,
    /// like a refused filter.
    fn handle_control(&mut self, ctx: &mut Ctx<'_>, wire: &WireObvent) {
        let kind = wire.kind_id();
        let applied = if kind == SubscribeCtl::kind_id() {
            wire.decode_exact::<SubscribeCtl>()
                .map(|ctl| self.apply_subscribe(ctx, &ctl))
        } else if kind == UnsubscribeCtl::kind_id() {
            wire.decode_exact::<UnsubscribeCtl>().map(|ctl| {
                if *ctl.node() != self.me().0 {
                    let channel = KindId::from_raw(*ctl.channel());
                    self.forget(channel, *ctl.node(), *ctl.sub());
                }
            })
        } else if kind == AdvertiseCtl::kind_id() {
            wire.decode_exact::<AdvertiseCtl>()
                .map(|ctl| self.apply_advertise(ctx, KindId::from_raw(*ctl.adv_kind())))
        } else if kind == DigestCtl::kind_id() {
            wire.decode_exact::<DigestCtl>().map(|ctl| {
                let node = NodeId(*ctl.node());
                let view = self.digests.get(&node.0).copied().unwrap_or_default();
                let told = SetDigest {
                    xor: *ctl.digest(),
                    count: *ctl.count(),
                };
                if self.is_peer(node) && view != told {
                    self.telemetry.bump("dace.control.pulls", 1);
                    let pull = encode_control(&PullCtl::new(self.me().0));
                    self.send_control(node, pull);
                }
            })
        } else if kind == PullCtl::kind_id() {
            wire.decode_exact::<PullCtl>().map(|ctl| {
                let to = NodeId(*ctl.node());
                if self.is_peer(to) {
                    self.send_set(to);
                }
            })
        } else if kind == SubSetCtl::kind_id() {
            wire.decode_exact::<SubSetCtl>()
                .map(|ctl| self.apply_set(ctx, &ctl))
        } else {
            Ok(())
        };
        if applied.is_err() {
            self.telemetry.bump("dace.control.rejected", 1);
        }
    }

    /// Whether `node` is another member of the cluster: the only nodes a
    /// digest is compared for and a set is sent to.
    fn is_peer(&self, node: NodeId) -> bool {
        node != self.me() && self.cluster.contains(&node)
    }

    /// Enters a peer's subscription into this node's view of it.
    fn apply_subscribe(&mut self, ctx: &mut Ctx<'_>, ctl: &SubscribeCtl) {
        let (node, sub) = (*ctl.node(), *ctl.sub());
        if node == self.me().0 {
            return; // this node's own entries are its own business
        }
        let channel = KindId::from_raw(*ctl.channel());
        let hash = entry_hash(sub, *ctl.channel(), *ctl.declared(), ctl.filter());
        // Idempotent before any decoding: what the view already holds
        // costs one hash.
        if self
            .channels
            .get(&channel)
            .is_some_and(|ch| ch.holds(node, sub, hash))
        {
            return;
        }
        // Hostile or corrupt: nothing of it reaches the index, and the
        // key no longer routes by whatever it held before.
        let filter = match ctl.filter().as_slice() {
            [] => Ok(None),
            bytes => WireFilter::parse(bytes).map(Some),
        };
        let Ok(filter) = filter else {
            self.telemetry.bump("dace.control.rejected", 1);
            self.forget(channel, node, sub);
            return;
        };
        self.ensure_channel(ctx, channel);
        let ch = self.channels.get_mut(&channel).expect("just ensured");
        let digest = self.digests.entry(node).or_default();
        if ch.subscribe(node, sub, hash, filter, digest).is_err() {
            self.telemetry.bump("dace.control.rejected", 1);
        }
    }

    /// Drops `(node, sub)` from `channel`, keeping `node`'s digest.
    fn forget(&mut self, channel: KindId, node: u64, sub: u64) {
        if let Some(ch) = self.channels.get_mut(&channel) {
            ch.unsubscribe(node, sub, self.digests.entry(node).or_default());
        }
    }

    /// Answers a pull: this node's whole subscription set, to `to` alone,
    /// in [`SubSetCtl`] parts of about [`BATCH_BUDGET`] bytes of entries
    /// each, cut between subscriptions.
    fn send_set(&mut self, to: NodeId) {
        let me = self.me().0;
        let mut subs: Vec<u64> = self.local_subs.keys().copied().collect();
        subs.sort_unstable();
        let mut parts = Vec::new();
        let (mut first, mut entries, mut bytes) = (0, Vec::new(), 0);
        for sub in subs {
            if bytes >= BATCH_BUDGET {
                let part = std::mem::take(&mut entries);
                parts.push(SubSetCtl::new(me, first, sub - 1, part));
                (first, bytes) = (sub, 0);
            }
            let local = &self.local_subs[&sub];
            for channel in &local.joined {
                bytes += local.record.filter.len() + SET_ENTRY_BYTES;
                entries.push(SubscribeCtl::new(
                    me,
                    sub,
                    channel.as_u64(),
                    local.record.kind.as_u64(),
                    local.record.filter.clone(),
                ));
            }
        }
        parts.push(SubSetCtl::new(me, first, u64::MAX, entries));
        for part in parts {
            let bytes = encode_control(&part);
            self.send_control(to, bytes);
        }
    }

    /// Replaces this node's view of a peer's subscriptions in the part's
    /// id range by what the part lists.
    fn apply_set(&mut self, ctx: &mut Ctx<'_>, set: &SubSetCtl) {
        let node = *set.node();
        if node == self.me().0 {
            return;
        }
        let ids = *set.first()..=*set.last();
        let entries: Vec<&SubscribeCtl> = set
            .subs()
            .iter()
            .filter(|entry| *entry.node() == node && ids.contains(entry.sub()))
            .collect();
        let listed: HashSet<(u64, u64)> = entries
            .iter()
            .map(|entry| (*entry.channel(), *entry.sub()))
            .collect();
        let mut stale: Vec<(KindId, u64)> = Vec::new();
        for (&kind, ch) in &self.channels {
            stale.extend(
                ch.sub_entries
                    .keys()
                    .filter(|&&(n, sub)| {
                        n == node && ids.contains(&sub) && !listed.contains(&(kind.as_u64(), sub))
                    })
                    .map(|&(_, sub)| (kind, sub)),
            );
        }
        stale.sort_unstable();
        for (channel, sub) in stale {
            self.forget(channel, node, sub);
        }
        for entry in entries {
            self.apply_subscribe(ctx, entry);
        }
    }

    /// Arms the watchdog sweep timer when both the config interval and a
    /// health monitor are present.
    fn arm_watchdog(&mut self, ctx: &mut Ctx<'_>) {
        if self.health.is_none() {
            return;
        }
        if let Some(interval) = self.config.watchdog {
            let id = ctx.set_timer(interval);
            self.timer_map.insert(id, DaceTimer::Watchdog);
        }
    }

    /// One watchdog sweep: the parked depth, every live channel
    /// protocol's queue depths (prefixed with the channel's kind name), and
    /// the counter snapshot, in a stable order.
    fn watchdog_sweep(&mut self, now: SimTime) {
        let Some(health) = &self.health else { return };
        let mut depths: Vec<(String, u64)> =
            vec![("dace.parked".to_string(), self.parked.len() as u64)];
        let mut kinds: Vec<KindId> = self.channels.keys().copied().collect();
        kinds.sort();
        for kind in kinds {
            let channel = &self.channels[&kind];
            if let Some(proto) = &channel.proto {
                let kname = kind_name(kind);
                for (name, depth) in proto.queue_depths() {
                    depths.push((format!("{kname}.{name}"), depth));
                }
            }
        }
        health.sweep(now.as_micros(), &depths, &self.telemetry.snapshot());
    }

    /// Anti-entropy: one digest of this node's subscription set per peer,
    /// whatever the set's size (a peer whose view disagrees pulls the set),
    /// and the published kinds re-advertised.
    fn announce(&mut self, ctx: &mut Ctx<'_>) {
        let me = self.me().0;
        let own = self.digests.get(&me).copied().unwrap_or_default();
        self.flood_control(&DigestCtl::new(me, own.xor, own.count));
        let published: Vec<KindId> = self.published_kinds.iter().copied().collect();
        for kind in published {
            self.advertise(ctx, kind);
        }
        let id = ctx.set_timer(self.config.announce_interval);
        self.timer_map.insert(id, DaceTimer::Announce);
    }

    // ---- snapshot plane (Chandy–Lamport over non-FIFO links) ----

    /// Snapshot pre-processing of one incoming transport message, *before*
    /// it is handled. Three cases on the message's wave colour vs ours:
    ///
    /// - **higher**: the sender captured before sending, so we must capture
    ///   before processing (Lai–Yang rule) — ignite the wave here;
    /// - **equal**: post-cut on both sides, nothing to do;
    /// - **lower**: a pre-cut message crossing our cut — record it into the
    ///   in-flight state of the link it arrived on (if still open).
    ///
    /// Returns `Some(tag)` instead of igniting when
    /// [`DaceNode::capture_after_processing`] deliberately breaks the
    /// discipline (the caller then processes first and captures after —
    /// the bug the oracles must see).
    fn snapshot_observe(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        msg: &NodeMsg,
    ) -> Option<u64> {
        let (tag, channel, id, len) = match msg {
            NodeMsg::Data {
                channel,
                snap,
                bytes,
            } => {
                // Identify the carried obvent when this frame is a data
                // frame of an earlier wave, the only kind a recording
                // takes (acks/retransmit-requests have no identity and are
                // recorded by size only).
                let id = (*snap < self.snap.wave)
                    .then(|| proto_name_for(*channel, &self.config))
                    .flatten()
                    .and_then(|proto| psc_group::peek_data_id(proto, bytes))
                    .map(|(origin, epoch, seq)| MsgRef::new(origin, epoch, seq));
                (*snap, channel.as_u64(), id, bytes.len() as u64)
            }
            NodeMsg::Direct { wire, .. } | NodeMsg::Brokered(wire) => {
                let trace = wire.trace_id();
                let id = (!trace.is_none())
                    .then(|| MsgRef::new(trace.origin(), 0, trace.seq()));
                (
                    wire.stamp().snap,
                    wire.kind_id().as_u64(),
                    id,
                    wire.wire_len() as u64,
                )
            }
            NodeMsg::Control(wire) => (
                wire.stamp().snap,
                wire.kind_id().as_u64(),
                None,
                wire.wire_len() as u64,
            ),
            // Batches are observed frame-by-frame; markers and fragments
            // are the protocol itself.
            NodeMsg::Batch(_) | NodeMsg::SnapMarker { .. } | NodeMsg::SnapFrag { .. } => {
                return None
            }
        };
        if tag > self.snap.wave {
            if self.capture_after_processing {
                return Some(tag);
            }
            self.telemetry.bump("snapshot.captures.tagged", 1);
            self.snapshot_begin(ctx, tag, UNKNOWN_INITIATOR, false);
            return None;
        }
        if tag < self.snap.wave && self.snap.record(from.0, channel, id, len) {
            self.telemetry.bump("snapshot.inflight.recorded", 1);
        }
        None
    }

    /// Initiates a snapshot wave from this node: captures the local state,
    /// floods markers to every peer, and assembles arriving fragments into
    /// a [`ClusterCut`] (poll [`DaceNode::snapshot_cut`] for completion).
    /// Returns the wave id.
    pub fn snapshot_initiate(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        self.ensure_id(ctx);
        let wave = self.snap.wave + 1;
        self.telemetry.bump("snapshot.initiated", 1);
        let me = self.me();
        self.snapshot_begin(ctx, wave, me.0, true);
        self.flush(ctx);
        wave
    }

    /// The highest snapshot wave this node has participated in (0 = never).
    pub fn snapshot_wave(&self) -> u64 {
        self.snap.wave
    }

    /// The completed cluster cut, when this node initiated the most recent
    /// wave and every node's fragment has arrived.
    pub fn snapshot_cut(&self) -> Option<&ClusterCut> {
        self.snap.completed.as_ref()
    }

    /// Enters wave `wave`: capture first, then open recordings, then flood
    /// markers. `self.snap.wave` is claimed *before* the capture so that
    /// an obvent delivered while capturing cannot re-enter the ignition
    /// path for the same wave.
    fn snapshot_begin(&mut self, ctx: &mut Ctx<'_>, wave: u64, initiator: u64, initiating: bool) {
        if wave <= self.snap.wave {
            return; // stale or re-entrant ignition
        }
        self.snap.wave = wave;
        let mut frag = self.snapshot_capture_frag(ctx);
        frag.snap = wave;
        let me = self.me();
        let peers: Vec<u64> = self
            .cluster
            .iter()
            .map(|n| n.0)
            .filter(|&n| n != me.0)
            .collect();
        self.snap.begin(wave, initiator, initiating, &peers, frag);
        if initiating {
            self.snap.cut = Some(ClusterCut::new(wave, me.0));
        }
        self.telemetry.bump("snapshot.waves", 1);
        let marker = encode_node_msg(&NodeMsg::SnapMarker {
            snap: wave,
            initiator: self.snap.initiator,
        });
        for &peer in &peers {
            ctx.send(NodeId(peer), marker.clone());
            self.telemetry.bump("snapshot.markers.sent", 1);
        }
        self.arm_snap_retry(ctx);
        self.snapshot_try_finish(ctx);
    }

    /// Captures this node's fragment of the cut: causal clock, durable-sub
    /// table, parked obvents, and every live channel's protocol state.
    fn snapshot_capture_frag(&mut self, ctx: &mut Ctx<'_>) -> NodeFrag {
        let me = self.me();
        let mut dursubs: Vec<u64> = self.durable_pending.keys().copied().collect();
        dursubs.sort_unstable();
        let parked: Vec<(u64, u64)> = self
            .parked
            .iter()
            .map(|(_, wire)| {
                let trace = wire.trace_id();
                (trace.origin(), trace.seq())
            })
            .collect();
        let mut frag = NodeFrag {
            node: me.0,
            snap: 0, // caller stamps the wave
            at_us: ctx.now().as_micros(),
            recovered: self.snap.recovered,
            clock: self.snap.clock.clone(),
            dursubs,
            parked,
            channels: Vec::new(),
            inflight: Vec::new(),
        };
        let mut kinds: Vec<KindId> = self
            .channels
            .iter()
            .filter(|(_, ch)| ch.proto.is_some())
            .map(|(&kind, _)| kind)
            .collect();
        kinds.sort();
        for kind in kinds {
            let members: Vec<u64> = self.channels[&kind].members.iter().map(|n| n.0).collect();
            let mut cap = None;
            self.with_channel_proto(ctx, kind, |proto, io| cap = Some(proto.capture(io)));
            if let Some(capture) = cap {
                frag.channels.push(ChannelFrag {
                    kind: kind.as_u64(),
                    name: kind_name(kind),
                    members,
                    capture,
                });
            }
        }
        frag
    }

    fn handle_snap_marker(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        snap: u64,
        initiator: u64,
    ) {
        self.telemetry.bump("snapshot.markers.received", 1);
        if snap > self.snap.wave {
            self.snapshot_begin(ctx, snap, initiator, false);
        }
        if snap != self.snap.wave {
            return; // stale wave
        }
        if !self.snap.initiating
            && self.snap.initiator == UNKNOWN_INITIATOR
            && initiator != UNKNOWN_INITIATOR
        {
            // Joined via a tagged message; the marker teaches us where
            // fragments go.
            self.snap.initiator = initiator;
        }
        self.snap.close_link(from.0);
        // A duplicate marker from the initiator after our fragment went
        // out means the fragment may have been lost — re-send it.
        if self.snap.frag_done && from.0 == self.snap.initiator {
            if let Some(msg) = self.snap.frag_msg.clone() {
                ctx.send(from, msg);
                self.telemetry.bump("snapshot.frags.resent", 1);
            }
        }
        self.snapshot_try_finish(ctx);
    }

    fn handle_snap_frag(&mut self, ctx: &mut Ctx<'_>, snap: u64, bytes: &[u8]) {
        self.telemetry.bump("snapshot.frags.received", 1);
        if snap != self.snap.wave || !self.snap.initiating {
            return;
        }
        let Ok(frag) = psc_codec::from_bytes::<NodeFrag>(bytes) else {
            return;
        };
        if let Some(cut) = self.snap.cut.as_mut() {
            cut.insert(frag);
        }
        self.snapshot_try_finish(ctx);
    }

    /// Finalizes the own fragment once every link's marker has arrived (or
    /// the retry timer gave up): folds the in-flight recordings in, then
    /// inserts it into the cut (initiator) or sends it to the initiator.
    /// On the initiator, also checks whether the cut just completed.
    fn snapshot_try_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.snap.frag_ready() {
            let mut frag = self.snap.frag.take().expect("fragment captured at wave begin");
            frag.inflight = self.snap.recording.values().cloned().collect();
            self.snap.frag_done = true;
            if self.snap.initiating {
                if let Some(cut) = self.snap.cut.as_mut() {
                    cut.insert(frag);
                }
            } else {
                let bytes = psc_codec::to_wire_bytes(&frag).expect("fragments encode");
                let msg = encode_node_msg(&NodeMsg::SnapFrag {
                    snap: self.snap.wave,
                    bytes,
                });
                self.snap.frag_msg = Some(msg.clone());
                ctx.send(NodeId(self.snap.initiator), msg);
                self.telemetry.bump("snapshot.frags.sent", 1);
            }
        }
        if self.snap.initiating && self.snap.completed.is_none() {
            let cluster: Vec<u64> = self.cluster.iter().map(|n| n.0).collect();
            if self.snap.cut.as_ref().is_some_and(|cut| cut.complete(&cluster)) {
                self.snap.completed = self.snap.cut.take();
                self.telemetry.bump("snapshot.completed", 1);
            }
        }
    }

    /// One snapshot liveness tick: re-floods the marker (closes freshly
    /// healed links at peers, re-ignites crashed-and-recovered ones, and —
    /// from the initiator — doubles as a fragment re-request on duplicate
    /// receipt), and after [`FORCE_CLOSE_TICKS`] gives up waiting for
    /// markers from dead or partitioned peers so the cut still completes.
    fn snapshot_retry(&mut self, ctx: &mut Ctx<'_>) {
        if !self.snap.in_progress() {
            return;
        }
        self.snap.retry_ticks += 1;
        self.telemetry.bump("snapshot.retries", 1);
        if !self.snap.frag_done
            && !self.snap.forced
            && self.snap.retry_ticks >= FORCE_CLOSE_TICKS
            && self.snap.open_links() > 0
        {
            self.snap.forced = true;
            self.telemetry.bump("snapshot.forced", 1);
        }
        let me = self.me();
        let marker = encode_node_msg(&NodeMsg::SnapMarker {
            snap: self.snap.wave,
            initiator: self.snap.initiator,
        });
        let peers: Vec<NodeId> = self.cluster.iter().copied().filter(|&n| n != me).collect();
        for peer in peers {
            ctx.send(peer, marker.clone());
            self.telemetry.bump("snapshot.markers.sent", 1);
        }
        self.snapshot_try_finish(ctx);
        self.arm_snap_retry(ctx);
    }

    fn arm_snap_retry(&mut self, ctx: &mut Ctx<'_>) {
        if self.snap.retry_armed || !self.snap.in_progress() {
            return;
        }
        self.snap.retry_armed = true;
        let id = ctx.set_timer(RETRY_PERIOD);
        self.timer_map.insert(id, DaceTimer::SnapRetry);
    }

    // ---- static snapshot drivers for tests and experiments ----

    /// Initiates a snapshot wave on `node` (no-op if the node is down).
    pub fn snapshot_from(sim: &mut SimNet, node: NodeId) {
        sim.act_now(node, |n, ctx| {
            let this = n
                .as_any_mut()
                .downcast_mut::<DaceNode>()
                .expect("node is a DaceNode");
            this.snapshot_initiate(ctx);
            this.flush(ctx);
        });
    }

    /// The completed cut assembled by `node`, if any.
    pub fn snapshot_cut_of(sim: &mut SimNet, node: NodeId) -> Option<ClusterCut> {
        sim.node_mut::<DaceNode>(node)
            .and_then(|n| n.snap.completed.clone())
    }

    /// The byte-stable rendering of the completed cut assembled by `node`.
    pub fn snapshot_render_of(sim: &mut SimNet, node: NodeId) -> Option<String> {
        DaceNode::snapshot_cut_of(sim, node).map(|cut| cut.render())
    }
}

struct ChannelIo<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    kind: KindId,
    /// The node's snapshot wave, tagged onto every outgoing `Data` frame
    /// (constant within one protocol callback: captures never run inside
    /// one).
    snap: u64,
    members: &'a [NodeId],
    delivered: &'a mut Vec<(NodeId, WireBytes)>,
    new_timers: &'a mut Vec<(psc_simnet::Duration, TimerToken)>,
    telemetry: &'a Registry,
    /// Memo of the last protocol buffer → encoded `NodeMsg::Data` pair:
    /// protocols fan one shared buffer out to many members back-to-back,
    /// so the transport envelope is encoded once per distinct buffer
    /// instead of once per member.
    last_encoded: Option<(WireBytes, WireBytes)>,
}

impl ChannelIo<'_, '_> {
    /// `bytes` in the channel's `NodeMsg::Data` envelope, encoded once per
    /// distinct buffer.
    fn envelope(&mut self, bytes: WireBytes) -> WireBytes {
        if let Some((prev, encoded)) = &self.last_encoded {
            if prev.ptr_eq(&bytes) {
                return encoded.clone();
            }
        }
        let encoded = encode_node_msg(&NodeMsg::Data {
            channel: self.kind,
            snap: self.snap,
            bytes: bytes.clone(),
        });
        self.last_encoded = Some((bytes, encoded.clone()));
        encoded
    }
}

impl GroupIo for ChannelIo<'_, '_> {
    fn self_id(&self) -> NodeId {
        self.ctx.id()
    }

    fn members(&self) -> &[NodeId] {
        self.members
    }

    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn send(&mut self, to: NodeId, bytes: WireBytes) {
        let encoded = self.envelope(bytes);
        self.ctx.send(to, encoded);
    }

    fn send_ahead(&mut self, to: NodeId, bytes: WireBytes) {
        let encoded = self.envelope(bytes);
        self.ctx.send_ahead(to, encoded);
    }

    fn deliver(&mut self, origin: NodeId, payload: WireBytes) {
        // Same counter as the standalone group host, so span-vs-counter
        // cross-checks read identically in both deployments.
        self.telemetry.bump("group.delivered", 1);
        self.delivered.push((origin, payload));
    }

    fn set_timer(&mut self, after: psc_simnet::Duration, token: TimerToken) {
        self.new_timers.push((after, token));
    }

    fn storage(&mut self) -> ScopedStorage<'_> {
        self.ctx.storage().scoped(format!("ch/{}/", self.kind))
    }

    fn rng(&mut self) -> &mut dyn rand::RngCore {
        self.ctx.rng()
    }

    fn metric(&mut self, name: &'static str, delta: u64) {
        // Same namespace as the standalone group host, so e.g.
        // `group.causal.retransmits` means the same thing everywhere.
        // Check before formatting so disabled telemetry costs one load.
        if self.telemetry.is_enabled() {
            self.telemetry.bump(&format!("group.{name}"), delta);
        }
    }
}

impl DaceNode {
    /// Dispatches one decoded transport message; [`NodeMsg::Batch`] recurses
    /// over its zero-copy frames. Snapshot pre-processing runs first: a
    /// higher wave tag captures the node's state *before* the message is
    /// processed, and pre-cut messages arriving on a recorded link are
    /// folded into the cut's in-flight channel state.
    fn handle_node_msg(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: NodeMsg) {
        match &msg {
            NodeMsg::Batch(_) | NodeMsg::SnapMarker { .. } | NodeMsg::SnapFrag { .. } => {}
            _ => {
                if let Some(tag) = self.snapshot_observe(ctx, from, &msg) {
                    // capture_after_processing: the deliberately broken
                    // discipline — process the newer-wave message first,
                    // capture after.
                    self.handle_node_msg_inner(ctx, from, msg);
                    if tag > self.snap.wave {
                        self.snapshot_begin(ctx, tag, UNKNOWN_INITIATOR, false);
                    }
                    return;
                }
            }
        }
        self.handle_node_msg_inner(ctx, from, msg);
    }

    fn handle_node_msg_inner(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: NodeMsg) {
        match msg {
            NodeMsg::Control(wire) => self.handle_control(ctx, &wire),
            NodeMsg::Data {
                channel,
                snap: _,
                bytes,
            } => {
                self.ensure_channel(ctx, channel);
                self.with_channel_proto(ctx, channel, |proto, io| {
                    proto.on_message(io, from, &bytes)
                });
            }
            NodeMsg::Batch(bytes) => {
                let Ok(frames) = psc_codec::split_frames(&bytes) else {
                    return; // corrupt batch: drop whole, like any bad packet
                };
                self.telemetry.bump("dace.batch.received", 1);
                for frame in frames {
                    let Ok(inner) = psc_codec::from_bytes::<NodeMsg>(&frame) else {
                        continue;
                    };
                    if matches!(inner, NodeMsg::Batch(_)) {
                        continue; // batches are never nested; drop malformed
                    }
                    self.handle_node_msg(ctx, from, inner);
                }
            }
            NodeMsg::Direct { wire, deadline } => {
                let expired =
                    deadline.is_some_and(|d| ctx.now() > SimTime::from_micros(d));
                if expired {
                    self.telemetry.bump("dace.expired", 1);
                    if self.tracer.is_enabled() {
                        self.tracer.record(
                            wire.trace_id(),
                            ctx.now().as_micros(),
                            TraceStage::Expired,
                            format!("at=n{} on-arrival", ctx.id().0),
                        );
                    }
                } else {
                    if self.tracer.is_enabled() {
                        self.tracer.record(
                            wire.trace_id(),
                            ctx.now().as_micros(),
                            TraceStage::Arrive,
                            format!("at=n{} from=n{}", ctx.id().0, from.0),
                        );
                    }
                    self.local_deliver(ctx, &wire);
                }
            }
            NodeMsg::Brokered(wire) => {
                let kind = wire.kind_id();
                let qos = wire.qos();
                self.telemetry.bump("dace.brokered", 1);
                if self.tracer.is_enabled() {
                    self.tracer.record(
                        wire.trace_id(),
                        ctx.now().as_micros(),
                        TraceStage::Brokered,
                        format!("at=n{} from=n{}", ctx.id().0, from.0),
                    );
                }
                self.ensure_channel(ctx, kind);
                self.direct_publish(ctx, kind, wire, &qos);
            }
            NodeMsg::SnapMarker { snap, initiator } => {
                self.handle_snap_marker(ctx, from, snap, initiator);
            }
            NodeMsg::SnapFrag { snap, bytes } => {
                self.handle_snap_frag(ctx, snap, &bytes);
            }
        }
    }
}

impl Node for DaceNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.ensure_id(ctx);
        let id = ctx.set_timer(self.config.announce_interval);
        self.timer_map.insert(id, DaceTimer::Announce);
        self.arm_watchdog(ctx);
        self.flush(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        self.ensure_id(ctx);
        let Ok(msg) = psc_codec::from_bytes::<NodeMsg>(payload) else {
            return;
        };
        self.handle_node_msg(ctx, from, msg);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        self.ensure_id(ctx);
        match self.timer_map.remove(&timer) {
            Some(DaceTimer::Announce) => self.announce(ctx),
            Some(DaceTimer::Channel(kind, token)) => {
                self.with_channel_proto(ctx, kind, |proto, io| proto.on_timer(io, token));
            }
            Some(DaceTimer::Watchdog) => {
                self.watchdog_sweep(ctx.now());
                self.arm_watchdog(ctx);
            }
            Some(DaceTimer::SnapRetry) => {
                self.snap.retry_armed = false;
                self.snapshot_retry(ctx);
            }
            None => {}
        }
        self.flush(ctx);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_>) {
        self.ensure_id(ctx);
        // This incarnation's in-memory causal clock restarted from zero;
        // mark the fragment so clock-based cut checks exempt it.
        self.snap.recovered = true;
        let id = ctx.set_timer(self.config.announce_interval);
        self.timer_map.insert(id, DaceTimer::Announce);
        self.arm_watchdog(ctx);
        self.flush(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Inspect for DaceNode {
    fn inspect(&self) -> String {
        let mut report = ReportBuilder::new();
        let me = match self.id {
            Some(id) => format!("n{}", id.0),
            None => "unassigned".to_string(),
        };
        report.section(format!("dace-node {me}"));
        report.line(format!(
            "cluster={}",
            self.cluster
                .iter()
                .map(|n| format!("n{}", n.0))
                .collect::<Vec<_>>()
                .join(",")
        ));
        report.line(format!(
            "queues parked={} durable_pending={}",
            self.parked.len(),
            self.durable_pending.len()
        ));
        report.line(format!(
            "wal replayed={} torn={} corrupt={}",
            self.wal_report.replayed, self.wal_report.torn, self.wal_report.corrupt
        ));
        for (log, (segments, bytes)) in &self.wal_report.logs {
            report.line(format!("wal log={log} segments={segments} bytes={bytes}"));
        }
        if self.snap.wave > 0 {
            report.line(format!(
                "snapshot wave={} initiator={} clock={} frag_done={} open_links={} completed={}",
                self.snap.wave,
                if self.snap.initiator == UNKNOWN_INITIATOR {
                    "?".to_string()
                } else {
                    format!("n{}", self.snap.initiator)
                },
                self.snap.clock,
                u64::from(self.snap.frag_done),
                self.snap.open_links(),
                self.snap.completed.as_ref().map(|c| c.snap).unwrap_or(0),
            ));
        }

        let mut subs: Vec<(u64, &LocalSub)> =
            self.local_subs.iter().map(|(&id, sub)| (id, sub)).collect();
        subs.sort_by_key(|(id, _)| *id);
        report.section(format!("subscriptions count={}", subs.len()));
        for (id, sub) in subs {
            let mut joined: Vec<String> =
                sub.joined.iter().map(|&k| kind_name(k)).collect();
            joined.sort();
            report.line(format!(
                "sub={id} kind={} filtered={} durable={} joined={}",
                kind_name(sub.record.kind),
                !sub.record.filter.is_empty(),
                sub.record.durable_id.is_some(),
                joined.join(",")
            ));
        }
        report.end();

        let mut kinds: Vec<KindId> = self.channels.keys().copied().collect();
        kinds.sort();
        report.section(format!("channels count={}", kinds.len()));
        for kind in kinds {
            let channel = &self.channels[&kind];
            let proto = channel
                .proto
                .as_ref()
                .map(|p| p.proto_name())
                .unwrap_or("direct");
            report.section(format!(
                "channel kind={} proto={proto} members={}",
                kind_name(kind),
                channel
                    .members
                    .iter()
                    .map(|m| format!("n{}", m.0))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            let stats = channel.index.stats();
            report.line(format!(
                "filters={} predicates={} unique={} paths={} shared={} counting={} residual={} indexed_preds={} residual_preds={}",
                stats.filters,
                stats.total_predicates,
                stats.unique_predicates,
                stats.paths,
                stats.shared_nodes,
                stats.counting_filters,
                stats.residual_filters,
                stats.indexed_preds,
                stats.residual_preds
            ));
            if let Some(proto) = &channel.proto {
                for (name, depth) in proto.queue_depths() {
                    report.line(format!("queue {name}={depth}"));
                }
            }
            report.end();
        }
        report.end();
        report.end();
        report.finish()
    }
}

/// Reads the transmission parameters (priority, expiry deadline) from a
/// wire obvent according to its resolved QoS (paper §3.1.2: `Prioritary`
/// exposes a priority, `Timely` a time-to-live).
fn transmission_params(
    wire: &WireObvent,
    qos: &QosSpec,
    now: SimTime,
) -> (i64, Option<SimTime>) {
    let mut priority = 0i64;
    let mut deadline = None;
    if qos.transmission.prioritary || qos.transmission.timely {
        if let Ok(view) = wire.view() {
            if qos.transmission.prioritary {
                priority = view
                    .number_at(builtin::PRIORITY_PROPERTY)
                    .map(|p| p as i64)
                    .unwrap_or(0);
            }
            if qos.transmission.timely {
                if let Some(ttl_ms) = view.number_at(builtin::TTL_PROPERTY) {
                    deadline =
                        Some(now + psc_simnet::Duration::from_millis(ttl_ms.max(0.0) as u64));
                }
            }
        }
    }
    (priority, deadline)
}

/// The stable QoS-class label of a publish (`reliable-fifo`, `certified`,
/// `unreliable`, …), used as the `sem=` trace token keying the derived
/// `span.e2e.<class>` latency histograms.
fn qos_class(qos: &QosSpec) -> String {
    let delivery = match qos.delivery {
        Delivery::Unreliable => "unreliable",
        Delivery::Reliable => "reliable",
        Delivery::Certified => "certified",
    };
    match qos.ordering {
        Ordering::None => delivery.to_string(),
        Ordering::Fifo => format!("{delivery}-fifo"),
        Ordering::Causal => format!("{delivery}-causal"),
        Ordering::Total => format!("{delivery}-total"),
    }
}

/// Chooses the multicast protocol a channel's QoS demands; `None` selects
/// the direct best-effort path.
fn make_proto(qos: &QosSpec, config: &DaceConfig) -> Option<Box<dyn Multicast>> {
    match qos.ordering {
        Ordering::Total => Some(Box::new(Total::new())),
        Ordering::Causal => Some(Box::new(Causal::new())),
        Ordering::Fifo => Some(Box::new(Fifo::new())),
        Ordering::None => match qos.delivery {
            Delivery::Certified => Some(Box::new(Certified::new())),
            Delivery::Reliable => Some(Box::new(Reliable::new())),
            Delivery::Unreliable => config
                .gossip
                .map(|g| Box::new(Lpbcast::new(g)) as Box<dyn Multicast>),
        },
    }
}

/// The `proto_name` of the protocol [`make_proto`] chooses for `kind`'s
/// QoS. The snapshot in-flight recorder needs the name to decode frame
/// identities before the frame's channel has been created.
fn proto_name_for(kind: KindId, config: &DaceConfig) -> Option<&'static str> {
    let qos = psc_obvent::registry::lookup(kind)
        .map(|k| k.qos().clone())
        .unwrap_or_default();
    make_proto(&qos, config).map(|proto| proto.proto_name())
}

fn encode_node_msg(msg: &NodeMsg) -> WireBytes {
    psc_codec::to_wire_bytes(msg).expect("node messages encode")
}

fn encode_control<O: Obvent>(ctl: &O) -> WireBytes {
    let wire = WireObvent::encode(ctl).expect("control obvents encode");
    encode_node_msg(&NodeMsg::Control(wire))
}

/// Payload bytes one [`NodeMsg::Batch`] carries at most, and about what one
/// [`SubSetCtl`] part carries: far below the transport's 16 MiB frame limit
/// (`psc_codec::frame::MAX_FRAME_LEN`), so a node with any number of
/// subscriptions can install them or answer a pull.
pub(crate) const BATCH_BUDGET: usize = 1 << 20;
const _: () = assert!(BATCH_BUDGET < psc_codec::frame::MAX_FRAME_LEN / 8);

/// What a [`SubSetCtl`] entry costs beyond its filter bytes, at most: five
/// varint ids and the filter's length.
pub(crate) const SET_ENTRY_BYTES: usize = 60;

/// Splits a destination's queue of messages `lens` bytes long, in order,
/// into runs of at most [`BATCH_BUDGET`] bytes; a message longer than the
/// budget travels alone.
fn batch_runs(lens: &[usize]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let (mut start, mut bytes) = (0, 0);
    for (i, &len) in lens.iter().enumerate() {
        if i > start && bytes + len > BATCH_BUDGET {
            runs.push(start..i);
            (start, bytes) = (i, 0);
        }
        bytes += len;
    }
    if start < lens.len() {
        runs.push(start..lens.len());
    }
    runs
}

/// The registered name of `kind`, used in per-channel metric names
/// (`dace.channel.<name>.published`); falls back to the numeric id.
fn kind_name(kind: KindId) -> String {
    psc_obvent::registry::lookup(kind)
        .map(|k| k.name().to_string())
        .unwrap_or_else(|| kind.to_string())
}

#[cfg(test)]
mod tests {
    use psc_codec::WireBytes;
    use psc_group::{GroupIo, TimerToken};
    use psc_obvent::builtin::{CausalOrder, Certified, FifoOrder, Reliable, TotalOrder};
    use psc_obvent::{declare_obvent_model, KindId, Obvent};
    use psc_simnet::{Duration, NodeId, ScopedStorage, SimTime, Storage};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::{batch_runs, make_proto, proto_name_for, BATCH_BUDGET};
    use crate::DaceConfig;

    declare_obvent_model! { pub class Plain { n: u64 } }
    declare_obvent_model! { pub class Rel implements [Reliable] { n: u64 } }
    declare_obvent_model! { pub class RelFifo implements [FifoOrder] { n: u64 } }
    declare_obvent_model! { pub class RelCausal implements [CausalOrder] { n: u64 } }
    declare_obvent_model! { pub class RelTotal implements [TotalOrder] { n: u64 } }
    declare_obvent_model! { pub class Cert implements [Certified] { n: u64 } }
    declare_obvent_model! { pub class CertFifo implements [Certified, FifoOrder] { n: u64 } }
    declare_obvent_model! { pub class CertCausal implements [Certified, CausalOrder] { n: u64 } }
    declare_obvent_model! { pub class CertTotal implements [Certified, TotalOrder] { n: u64 } }

    /// Node 1 of the group `{0, 1, 2}` at 5 ms, keeping what it sends.
    struct Member {
        storage: Storage,
        sent: Vec<WireBytes>,
        rng: StdRng,
    }

    impl GroupIo for Member {
        fn self_id(&self) -> NodeId {
            NodeId(1)
        }
        fn members(&self) -> &[NodeId] {
            &[NodeId(0), NodeId(1), NodeId(2)]
        }
        fn now(&self) -> SimTime {
            SimTime::from_millis(5)
        }
        fn send(&mut self, _to: NodeId, bytes: WireBytes) {
            self.sent.push(bytes);
        }
        fn deliver(&mut self, _origin: NodeId, _payload: WireBytes) {}
        fn set_timer(&mut self, _after: Duration, _token: TimerToken) {}
        fn storage(&mut self) -> ScopedStorage<'_> {
            self.storage.scoped("")
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    /// Every delivery × ordering a class can declare: the snapshot
    /// recorder, decoding by [`proto_name_for`], names the message a data
    /// frame of [`make_proto`]'s protocol carries.
    #[test]
    fn the_recorder_identifies_the_data_frames_of_every_qos() {
        let kinds: [KindId; 9] = [
            Plain::kind_id(),
            Rel::kind_id(),
            RelFifo::kind_id(),
            RelCausal::kind_id(),
            RelTotal::kind_id(),
            Cert::kind_id(),
            CertFifo::kind_id(),
            CertCausal::kind_id(),
            CertTotal::kind_id(),
        ];
        let config = DaceConfig::default();
        let mut names = Vec::new();
        for kind in kinds {
            let qos = psc_obvent::registry::lookup(kind).unwrap().qos().clone();
            let name = proto_name_for(kind, &config);
            names.push(name);
            let Some(mut proto) = make_proto(&qos, &config) else {
                assert_eq!(name, None, "{qos:?}");
                continue;
            };
            let mut io = Member {
                storage: Storage::new(),
                sent: Vec::new(),
                rng: StdRng::seed_from_u64(0),
            };
            proto.on_start(&mut io);
            proto.broadcast(&mut io, WireBytes::from(b"tick".to_vec()));
            let epoch = proto.capture(&mut io).epoch;
            let frame = io.sent.first().expect("a data frame");
            let id = psc_group::peek_data_id(name.unwrap(), frame);
            assert_eq!(id, Some((1, epoch, 1)), "{qos:?}");
        }
        let expected = [
            None,
            Some("reliable"),
            Some("fifo"),
            Some("causal"),
            Some("total"),
            Some("certified"),
            Some("fifo"),
            Some("causal"),
            Some("total"),
        ];
        assert_eq!(names, expected);
    }

    #[test]
    fn control_batches_split_under_the_byte_budget() {
        assert!(batch_runs(&[]).is_empty());
        assert_eq!(batch_runs(&[10, 20, 30]), vec![0..3]);
        // Two half-budget messages fill one batch; the next starts another.
        let half = BATCH_BUDGET / 2;
        assert_eq!(batch_runs(&[half, half, 1]), vec![0..2, 2..3]);
        // A message over the budget travels alone.
        let over = BATCH_BUDGET + 1;
        assert_eq!(batch_runs(&[1, over, 1]), vec![0..1, 1..2, 2..3]);
        // 140 000 subscriptions installed in one callback: ~120-byte
        // `SubscribeCtl`s, 16.8 MB in one frame before the split.
        let lens = vec![120; 140_000];
        let runs = batch_runs(&lens);
        assert_eq!(runs.len(), 17);
        assert_eq!((runs[0].start, runs[16].end), (0, lens.len()));
        for pair in runs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        for run in runs {
            assert!(lens[run].iter().sum::<usize>() <= BATCH_BUDGET);
        }
    }
}
