//! Adapter running any [`Multicast`] protocol as a `psc-simnet` node.
//!
//! [`GroupNode`] bridges the sans-io protocol interface onto the simulator:
//! sends become network messages, deliveries accumulate in an inspectable
//! log, timers map between simulator ids and protocol tokens. Static helper
//! methods drive nodes from test/experiment code via the simulator's action
//! mechanism.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use psc_codec::WireBytes;
use psc_simnet::{Ctx, Duration, Node, NodeId, ScopedStorage, SimNet, SimTime, TimerId};
use psc_snapshot::ProtoCapture;
use psc_telemetry::{FlightRecorder, HealthMonitor, Inspect, Registry, ReportBuilder};

use crate::io::{GroupIo, Multicast, TimerToken};

/// Stall-watchdog wiring for a [`GroupNode`]: a sweep interval plus the
/// (externally owned, crash-surviving) monitor the sweeps feed.
#[derive(Clone)]
pub struct Watchdog {
    /// The per-node health state machine.
    pub monitor: Arc<HealthMonitor>,
    /// Virtual-time sweep period.
    pub interval: Duration,
}

/// A simulated node hosting one multicast protocol instance.
pub struct GroupNode {
    proto: Box<dyn Multicast>,
    members: Vec<NodeId>,
    delivered: Vec<(NodeId, WireBytes, SimTime)>,
    timer_tokens: HashMap<TimerId, TimerToken>,
    /// Per-node registry; protocol metrics land here under `group.*`. With
    /// [`GroupNode::boxed_with_telemetry`] this is an external registry that
    /// survives crash rebuilds (like an external monitoring system would).
    telemetry: Arc<Registry>,
    /// Per-node flight recorder (deliveries and metric movements), external
    /// like the registry so post-mortems survive crash rebuilds.
    recorder: Option<Arc<FlightRecorder>>,
    /// Stall watchdog; [`None`] leaves the simulator schedule untouched.
    watchdog: Option<Watchdog>,
    /// The armed watchdog sweep timer, kept apart from protocol timers.
    watchdog_timer: Option<TimerId>,
}

struct HostIo<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    members: &'a [NodeId],
    delivered: &'a mut Vec<(NodeId, WireBytes, SimTime)>,
    new_timers: &'a mut Vec<(psc_simnet::Duration, TimerToken)>,
    telemetry: &'a Registry,
    recorder: Option<&'a FlightRecorder>,
}

impl GroupIo for HostIo<'_, '_> {
    fn self_id(&self) -> NodeId {
        self.ctx.id()
    }

    fn members(&self) -> &[NodeId] {
        self.members
    }

    fn now(&self) -> psc_simnet::SimTime {
        self.ctx.now()
    }

    fn send(&mut self, to: NodeId, bytes: WireBytes) {
        self.ctx.send(to, bytes);
    }

    fn deliver(&mut self, origin: NodeId, payload: WireBytes) {
        self.telemetry.bump("group.delivered", 1);
        let now = self.ctx.now();
        if let Some(recorder) = self.recorder {
            recorder.record(
                now.as_micros(),
                "deliver",
                format!("origin=n{} bytes={}", origin.0, payload.len()),
            );
        }
        self.delivered.push((origin, payload, now));
    }

    fn set_timer(&mut self, after: psc_simnet::Duration, token: TimerToken) {
        // Timer ids are only known once Ctx::set_timer runs; collect and map
        // afterwards (Ctx is borrowed by this io meanwhile).
        self.new_timers.push((after, token));
    }

    fn storage(&mut self) -> ScopedStorage<'_> {
        self.ctx.storage().scoped("")
    }

    fn rng(&mut self) -> &mut dyn rand::RngCore {
        self.ctx.rng()
    }

    fn metric(&mut self, name: &'static str, delta: u64) {
        // Check before formatting so disabled telemetry costs one load.
        if self.telemetry.is_enabled() {
            self.telemetry.bump(&format!("group.{name}"), delta);
        }
        if let Some(recorder) = self.recorder {
            recorder.record_metric(self.ctx.now().as_micros(), name, delta);
        }
    }
}

impl GroupNode {
    /// Wraps a protocol instance as a boxed simulator node (telemetry goes
    /// to a private, disabled registry — i.e. nowhere).
    pub fn boxed(proto: impl Multicast + 'static) -> Box<dyn Node> {
        GroupNode::boxed_with_telemetry(proto, Arc::new(Registry::disabled()))
    }

    /// Wraps a protocol instance, recording `group.*` metrics into
    /// `telemetry`. Pass an externally owned registry so counters accumulate
    /// across crash–recover rebuilds of the node (the simulator rebuilds
    /// nodes from their factories; the registry plays the role of the
    /// monitoring system that outlives the monitored process).
    pub fn boxed_with_telemetry(
        proto: impl Multicast + 'static,
        telemetry: Arc<Registry>,
    ) -> Box<dyn Node> {
        GroupNode::boxed_observable(proto, telemetry, None, None)
    }

    /// Full observability wiring: metrics registry, optional per-node
    /// flight recorder, optional stall watchdog. All three are externally
    /// owned so they survive crash–recover rebuilds of the node.
    pub fn boxed_observable(
        proto: impl Multicast + 'static,
        telemetry: Arc<Registry>,
        recorder: Option<Arc<FlightRecorder>>,
        watchdog: Option<Watchdog>,
    ) -> Box<dyn Node> {
        Box::new(GroupNode {
            proto: Box::new(proto),
            members: Vec::new(),
            delivered: Vec::new(),
            timer_tokens: HashMap::new(),
            telemetry,
            recorder,
            watchdog,
            watchdog_timer: None,
        })
    }

    fn with_io(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut dyn Multicast, &mut dyn GroupIo),
    ) {
        let mut new_timers = Vec::new();
        {
            let mut io = HostIo {
                ctx,
                members: &self.members,
                delivered: &mut self.delivered,
                new_timers: &mut new_timers,
                telemetry: &self.telemetry,
                recorder: self.recorder.as_deref(),
            };
            f(self.proto.as_mut(), &mut io);
        }
        for (after, token) in new_timers {
            let id = ctx.set_timer(after);
            self.timer_tokens.insert(id, token);
        }
    }

    /// Arms (or re-arms) the watchdog sweep timer, if configured.
    fn arm_watchdog(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(watchdog) = &self.watchdog {
            self.watchdog_timer = Some(ctx.set_timer(watchdog.interval));
        }
    }

    /// One watchdog sweep: feed every protocol queue depth and the current
    /// counter snapshot into the health monitor.
    fn watchdog_sweep(&mut self, now: SimTime) {
        let Some(watchdog) = &self.watchdog else { return };
        let depths: Vec<(String, u64)> = self
            .proto
            .queue_depths()
            .into_iter()
            .map(|(name, depth)| (name.to_string(), depth))
            .collect();
        watchdog
            .monitor
            .sweep(now.as_micros(), &depths, &self.telemetry.snapshot());
    }

    // ---- static driver helpers (used by tests and experiments) ----

    /// Sets the group membership of `node` (takes effect immediately).
    pub fn set_members(sim: &mut SimNet, node: NodeId, members: Vec<NodeId>) {
        sim.act_now(node, move |n, _ctx| {
            let this = n
                .as_any_mut()
                .downcast_mut::<GroupNode>()
                .expect("node is a GroupNode");
            this.members = members;
        });
    }

    /// Broadcasts `payload` from `node` at the current virtual time.
    pub fn broadcast(sim: &mut SimNet, node: NodeId, payload: impl Into<WireBytes> + Send + 'static) {
        sim.act_now(node, move |n, ctx| {
            let this = n
                .as_any_mut()
                .downcast_mut::<GroupNode>()
                .expect("node is a GroupNode");
            this.with_io(ctx, |proto, io| proto.broadcast(io, payload.into()));
        });
    }

    /// Snapshot of everything `node` has delivered: `(origin, payload)` in
    /// delivery order. Empty if the node is down.
    pub fn delivered(sim: &mut SimNet, node: NodeId) -> Vec<(NodeId, Vec<u8>)> {
        match sim.node_mut::<GroupNode>(node) {
            Some(this) => this
                .delivered
                .iter()
                .map(|(origin, payload, _at)| (*origin, payload.to_vec()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Like [`GroupNode::delivered`] but with each delivery's virtual
    /// timestamp — the raw material for end-to-end latency measurement.
    pub fn delivered_timed(sim: &mut SimNet, node: NodeId) -> Vec<(NodeId, Vec<u8>, SimTime)> {
        match sim.node_mut::<GroupNode>(node) {
            Some(this) => this
                .delivered
                .iter()
                .map(|(origin, payload, at)| (*origin, payload.to_vec(), *at))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Renders `node`'s deterministic state report ([`Inspect`]); `None`
    /// when the node is down.
    pub fn inspect_node(sim: &mut SimNet, node: NodeId) -> Option<String> {
        sim.node_mut::<GroupNode>(node).map(|this| this.inspect())
    }

    /// Just the payloads, in delivery order.
    pub fn delivered_payloads(sim: &mut SimNet, node: NodeId) -> Vec<Vec<u8>> {
        GroupNode::delivered(sim, node)
            .into_iter()
            .map(|(_, p)| p)
            .collect()
    }

    /// `node`'s protocol state as a snapshot would capture it
    /// ([`Multicast::capture`]); `None` when the node is down.
    pub fn capture(sim: &mut SimNet, node: NodeId) -> Option<ProtoCapture> {
        let cap = Rc::new(RefCell::new(None));
        let out = Rc::clone(&cap);
        sim.act_now(node, move |n, ctx| {
            let this = n
                .as_any_mut()
                .downcast_mut::<GroupNode>()
                .expect("node is a GroupNode");
            this.with_io(ctx, |proto, io| *out.borrow_mut() = Some(proto.capture(io)));
        });
        cap.take()
    }

    /// Inspects the concrete protocol instance behind `node` (e.g. to read
    /// diagnostics counters). `None` when the node is down or `P` is not
    /// its protocol type.
    pub fn with_proto<P: Multicast + 'static, R>(
        sim: &mut SimNet,
        node: NodeId,
        f: impl FnOnce(&mut P) -> R,
    ) -> Option<R> {
        let this = sim.node_mut::<GroupNode>(node)?;
        this.proto.as_any_mut().downcast_mut::<P>().map(f)
    }
}

impl Node for GroupNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.with_io(ctx, |proto, io| proto.on_start(io));
        self.arm_watchdog(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        self.with_io(ctx, |proto, io| proto.on_message(io, from, payload));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        if self.watchdog_timer == Some(timer) {
            self.watchdog_sweep(ctx.now());
            self.arm_watchdog(ctx);
            return;
        }
        if let Some(token) = self.timer_tokens.remove(&timer) {
            self.with_io(ctx, |proto, io| proto.on_timer(io, token));
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_>) {
        self.with_io(ctx, |proto, io| proto.on_recover(io));
        self.arm_watchdog(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Inspect for GroupNode {
    fn inspect(&self) -> String {
        let mut report = ReportBuilder::new();
        report.section(format!("group-host proto={}", self.proto.proto_name()));
        report.line(format!(
            "members={}",
            self.members
                .iter()
                .map(|m| format!("n{}", m.0))
                .collect::<Vec<_>>()
                .join(",")
        ));
        report.line(format!("delivered={}", self.delivered.len()));
        let depths = self.proto.queue_depths();
        if depths.is_empty() {
            report.line("queues=none");
        } else {
            report.section("queues");
            for (name, depth) in depths {
                report.line(format!("{name}={depth}"));
            }
            report.end();
        }
        report.end();
        report.finish()
    }
}
