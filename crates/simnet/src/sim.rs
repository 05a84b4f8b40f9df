//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use psc_codec::WireBytes;
use psc_telemetry::{Counter, Registry};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::config::{LatencyModel, SimConfig};
use crate::node::{Ctx, Effect, Node, NodeId, TimerId};
use crate::storage::Storage;
use crate::time::{Duration, SimTime};

/// Aggregate traffic counters; read with [`SimNet::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Remote messages handed to the network (self-sends excluded).
    pub sent: u64,
    /// Bytes across all sent messages.
    pub bytes_sent: u64,
    /// Messages delivered to a running node (including self-sends).
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub dropped_loss: u64,
    /// Messages dropped by a partition.
    pub dropped_partition: u64,
    /// Messages that arrived at a crashed node.
    pub dropped_crashed: u64,
}

/// Telemetry mirror of [`NetStats`] plus fault-schedule counters, recorded
/// into the simulation's own [`Registry`] under `simnet.*` names.
struct SimMetrics {
    sent: Counter,
    bytes_sent: Counter,
    delivered: Counter,
    dropped_loss: Counter,
    dropped_partition: Counter,
    dropped_crashed: Counter,
    crashes: Counter,
    recoveries: Counter,
}

impl SimMetrics {
    fn new(registry: &Registry) -> SimMetrics {
        SimMetrics {
            sent: registry.counter("simnet.sent"),
            bytes_sent: registry.counter("simnet.bytes_sent"),
            delivered: registry.counter("simnet.delivered"),
            dropped_loss: registry.counter("simnet.dropped_loss"),
            dropped_partition: registry.counter("simnet.dropped_partition"),
            dropped_crashed: registry.counter("simnet.dropped_crashed"),
            crashes: registry.counter("simnet.crashes"),
            recoveries: registry.counter("simnet.recoveries"),
        }
    }
}

type NodeFactory = Box<dyn FnMut() -> Box<dyn Node>>;
type Action = Box<dyn FnOnce(&mut dyn Node, &mut Ctx<'_>)>;

struct NodeSlot {
    name: String,
    factory: NodeFactory,
    /// `None` while crashed.
    node: Option<Box<dyn Node>>,
    storage: Storage,
}

enum EventKind {
    Deliver {
        from: NodeId,
        to: NodeId,
        payload: WireBytes,
    },
    Timer {
        node: NodeId,
        id: TimerId,
    },
    Start {
        node: NodeId,
    },
    Action {
        node: NodeId,
        f: Action,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
}

struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The deterministic simulated network; see the crate docs for an example.
pub struct SimNet {
    config: SimConfig,
    rng: StdRng,
    now: SimTime,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    nodes: HashMap<NodeId, NodeSlot>,
    node_order: Vec<NodeId>,
    next_node: u64,
    next_timer: u64,
    /// Node → partition group; messages across groups are dropped.
    partition: Option<HashMap<NodeId, u32>>,
    cancelled_timers: HashSet<(NodeId, TimerId)>,
    stats: NetStats,
    telemetry: Registry,
    metrics: SimMetrics,
}

impl SimNet {
    /// Creates an empty simulation.
    pub fn new(config: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let telemetry = Registry::new();
        let metrics = SimMetrics::new(&telemetry);
        SimNet {
            config,
            rng,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            nodes: HashMap::new(),
            node_order: Vec::new(),
            next_node: 0,
            next_timer: 0,
            partition: None,
            cancelled_timers: HashSet::new(),
            stats: NetStats::default(),
            telemetry,
            metrics,
        }
    }

    /// The simulation's own telemetry registry (`simnet.*` counters mirror
    /// [`NetStats`]; hosts may record their metrics here too so one snapshot
    /// covers the whole run).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Adds a node built by `factory`; the factory is kept so the node can
    /// be rebuilt after a crash. `on_start` runs at the current virtual
    /// time.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        mut factory: impl FnMut() -> Box<dyn Node> + 'static,
    ) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let node = factory();
        self.nodes.insert(
            id,
            NodeSlot {
                name: name.into(),
                factory: Box::new(factory),
                node: Some(node),
                storage: Storage::new(),
            },
        );
        self.node_order.push(id);
        self.push(self.now, EventKind::Start { node: id });
        id
    }

    /// Ids of all nodes, in creation order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.node_order.clone()
    }

    /// The node's display name.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes.get(&id).map(|slot| slot.name.as_str())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters since the last [`SimNet::reset_stats`].
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Zeroes the traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
    }

    /// True when the node is currently running (not crashed).
    pub fn is_up(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|slot| slot.node.is_some())
    }

    /// Read access to a node's stable storage (test inspection).
    pub fn storage(&self, id: NodeId) -> Option<&Storage> {
        self.nodes.get(&id).map(|slot| &slot.storage)
    }

    /// Downcasts a running node to its concrete type for inspection.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes
            .get_mut(&id)?
            .node
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Schedules `f` to run on `node` at absolute time `time` (skipped if
    /// the node is down when the time comes).
    pub fn at(
        &mut self,
        time: SimTime,
        node: NodeId,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) + 'static,
    ) {
        assert!(time >= self.now, "cannot schedule in the past");
        self.push(time, EventKind::Action { node, f: Box::new(f) });
    }

    /// Schedules `f` to run on `node` after `delay`.
    pub fn after(
        &mut self,
        delay: Duration,
        node: NodeId,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) + 'static,
    ) {
        self.at(self.now + delay, node, f);
    }

    /// Runs `f` on `node` immediately (at the current virtual time),
    /// processing any effects it queues. Returns false if the node is down.
    pub fn act_now(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) + 'static,
    ) -> bool {
        if !self.is_up(node) {
            return false;
        }
        self.dispatch(EventKind::Action {
            node,
            f: Box::new(f),
        });
        true
    }

    /// Injects a message from `from` to `to` as if `from` had sent it.
    pub fn send_external(&mut self, from: NodeId, to: NodeId, payload: impl Into<WireBytes>) {
        let mut effects = vec![Effect::Send {
            from,
            to,
            payload: payload.into(),
            ahead: false,
        }];
        self.apply_effects(&mut effects);
    }

    /// Crashes the node at the current time: volatile state is dropped,
    /// stable storage kept; queued deliveries will find it down.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(slot) = self.nodes.get_mut(&id) {
            if slot.node.take().is_some() {
                self.metrics.crashes.inc();
            }
        }
    }

    /// Crashes the node AND applies a disk fault to its stable storage:
    /// the key–value map is wiped and the write-ahead logs damaged per
    /// `fault` (see [`crate::DiskFault`]), so recovery must rebuild from
    /// whatever the fsync barriers actually protected.
    /// `DiskFault::None` is exactly [`SimNet::crash`].
    pub fn crash_with_fault(&mut self, id: NodeId, fault: crate::DiskFault) {
        if let Some(slot) = self.nodes.get_mut(&id) {
            slot.storage.power_loss(&fault);
        }
        self.crash(id);
    }

    /// Schedules a crash at absolute time `time`.
    pub fn crash_at(&mut self, time: SimTime, id: NodeId) {
        assert!(time >= self.now, "cannot schedule in the past");
        self.push(time, EventKind::Crash { node: id });
    }

    /// Recovers a crashed node at the current time: the factory rebuilds it
    /// and `on_recover` runs with the preserved storage. No-op if up.
    pub fn recover(&mut self, id: NodeId) {
        self.dispatch(EventKind::Recover { node: id });
    }

    /// Schedules a recovery at absolute time `time`.
    pub fn recover_at(&mut self, time: SimTime, id: NodeId) {
        assert!(time >= self.now, "cannot schedule in the past");
        self.push(time, EventKind::Recover { node: id });
    }

    /// Installs a partition: nodes in different groups cannot exchange
    /// messages. Unlisted nodes form an implicit extra group.
    pub fn partition(&mut self, groups: &[&[NodeId]]) {
        let mut map = HashMap::new();
        for (g, members) in groups.iter().enumerate() {
            for &id in *members {
                map.insert(id, g as u32);
            }
        }
        let implicit = groups.len() as u32;
        for &id in &self.node_order {
            map.entry(id).or_insert(implicit);
        }
        self.partition = Some(map);
    }

    /// Removes any partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Changes the message-loss probability mid-run. Fault-injection
    /// harnesses use this to phase their chaos: a lossless warmup (so
    /// control traffic converges), a lossy fault window, then a lossless
    /// settle during which eventual-delivery oracles become sound.
    pub fn set_drop_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.config.drop_probability = p;
    }

    /// Processes a single event; false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.dispatch(event.kind);
        true
    }

    /// Runs until the queue is empty (protocols with periodic timers never
    /// quiesce — use [`SimNet::run_until`] for those). Returns the number of
    /// events processed.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    /// Runs events with timestamps `<= deadline`, then sets the clock to
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> usize {
        let mut n = 0;
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.time > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        if deadline > self.now {
            self.now = deadline;
        }
        n
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: Duration) -> usize {
        self.run_until(self.now + d)
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            time,
            seq: self.seq,
            kind,
        }));
    }

    fn dispatch(&mut self, kind: EventKind) {
        let mut effects = Vec::new();
        match kind {
            EventKind::Start { node } => {
                self.with_node(node, &mut effects, |n, ctx| n.on_start(ctx));
            }
            EventKind::Deliver { from, to, payload } => {
                let up = self.is_up(to);
                if !up {
                    self.stats.dropped_crashed += 1;
                    self.metrics.dropped_crashed.inc();
                } else {
                    self.stats.delivered += 1;
                    self.metrics.delivered.inc();
                    self.with_node(to, &mut effects, |n, ctx| n.on_message(ctx, from, &payload));
                }
            }
            EventKind::Timer { node, id } => {
                if self.cancelled_timers.remove(&(node, id)) {
                    // cancelled; skip
                } else {
                    self.with_node(node, &mut effects, |n, ctx| n.on_timer(ctx, id));
                }
            }
            EventKind::Action { node, f } => {
                self.with_node(node, &mut effects, |n, ctx| f(n, ctx));
            }
            EventKind::Crash { node } => {
                self.crash(node);
            }
            EventKind::Recover { node } => {
                let rebuilt = match self.nodes.get_mut(&node) {
                    Some(slot) if slot.node.is_none() => {
                        slot.node = Some((slot.factory)());
                        true
                    }
                    _ => false,
                };
                if rebuilt {
                    self.metrics.recoveries.inc();
                    self.with_node(node, &mut effects, |n, ctx| n.on_recover(ctx));
                }
            }
        }
        self.apply_effects(&mut effects);
    }

    fn with_node(
        &mut self,
        id: NodeId,
        effects: &mut Vec<Effect>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let Some(slot) = self.nodes.get_mut(&id) else {
            return;
        };
        let Some(node) = slot.node.as_mut() else {
            return;
        };
        let mut ctx = Ctx {
            node: id,
            now: self.now,
            effects,
            storage: &mut slot.storage,
            rng: &mut self.rng,
            next_timer: &mut self.next_timer,
        };
        f(node.as_mut(), &mut ctx);
    }

    fn apply_effects(&mut self, effects: &mut Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { from, to, payload, .. } => self.route(from, to, payload),
                Effect::SetTimer { node, id, after } => {
                    self.push(self.now + after, EventKind::Timer { node, id });
                }
                Effect::CancelTimer { node, id } => {
                    self.cancelled_timers.insert((node, id));
                }
            }
        }
    }

    fn route(&mut self, from: NodeId, to: NodeId, payload: WireBytes) {
        if from == to {
            // Loopback: no loss, negligible latency.
            self.stats.sent += 1;
            self.stats.bytes_sent += payload.len() as u64;
            self.metrics.sent.inc();
            self.metrics.bytes_sent.add(payload.len() as u64);
            let time = self.now + Duration::from_micros(1);
            self.push(time, EventKind::Deliver { from, to, payload });
            return;
        }
        self.stats.sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        self.metrics.sent.inc();
        self.metrics.bytes_sent.add(payload.len() as u64);
        if let Some(groups) = &self.partition {
            if groups.get(&from) != groups.get(&to) {
                self.stats.dropped_partition += 1;
                self.metrics.dropped_partition.inc();
                return;
            }
        }
        if self.config.drop_probability > 0.0
            && self.rng.gen_bool(self.config.drop_probability)
        {
            self.stats.dropped_loss += 1;
            self.metrics.dropped_loss.inc();
            return;
        }
        let latency = self.sample_latency();
        self.push(self.now + latency, EventKind::Deliver { from, to, payload });
    }

    fn sample_latency(&mut self) -> Duration {
        match self.config.latency {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = (min.as_micros(), max.as_micros());
                if hi <= lo {
                    min
                } else {
                    Duration::from_micros(self.rng.gen_range(lo..=hi))
                }
            }
        }
    }

    /// Raw randomness from the simulation RNG (for workload generators that
    /// want to stay deterministic under the simulation seed).
    pub fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("now", &self.now)
            .field("nodes", &self.node_order.len())
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}
