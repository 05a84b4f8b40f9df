#![warn(missing_docs)]

//! # psc-net — the real socket transport
//!
//! Everything below the DACE dissemination layer has so far run against
//! [`psc_simnet`]'s virtual network. This crate cashes in the sans-io
//! design for real I/O: the **same** `DaceNode` / group-protocol cores,
//! unchanged, driven by TCP sockets and a wall clock instead of the
//! discrete-event queue.
//!
//! - [`NetTransport`] hosts one node: the [`psc_simnet::NodeHost`] sits
//!   behind one lock and whoever has work for it runs it to completion —
//!   the caller of a local API call, the reader thread that reassembled a
//!   CRC frame ([`psc_codec::frame::FrameReassembler`]), the timer thread
//!   — so callbacks run one at a time exactly as under the simulator, and
//!   a delivery costs one wake-up per hop. A frame for an idle peer is
//!   written by the thread that produced it; writer threads carry what
//!   the socket would not take at once, through bounded per-peer queues,
//!   and own reconnect + capped exponential backoff.
//! - Serialize-once survives onto the wire: a fan-out clones
//!   [`psc_codec::WireBytes`] *handles* per peer — one encode, N socket
//!   writes, zero payload copies.
//! - [`clock::TimerDriver`] fires `Ctx::set_timer` timers in the
//!   simulator's (deadline, arm-order) order on the wall clock, so
//!   retransmit/heartbeat schedules match virtual time run for run.
//! - `net.*` telemetry lands in the same [`psc_telemetry::Registry`] the
//!   rest of the stack records into, with per-peer queue depths fed to
//!   the [`psc_telemetry::HealthMonitor`] plane.
//! - With [`NetConfig::data_dir`] set, [`FileWal`] mirrors the node's
//!   write-ahead log onto real segment files (fsync on the node's own
//!   sync barriers) and reloads them at startup — a process killed and
//!   restarted under the same identity recovers its durable channels and
//!   resumes certified streams exactly once.
//!
//! [`DaceEndpoint`] packages the common deployment: one `DaceNode`
//! cluster member behind a transport, with typed publish/subscribe via
//! its [`pubsub_core::Domain`]. The `psc-node` binary and the loopback
//! cluster tests are thin wrappers around it. The simulator remains the
//! oracle — the harness checks every delivery against virtual-time runs —
//! and this crate is the deployment product.

pub mod clock;
mod config;
mod metrics;
mod peer;
mod storage;
mod transport;

pub use config::{ClusterParseError, ClusterSpec, NetConfig, PeerSpec};
pub use storage::FileWal;
pub use transport::NetTransport;

use std::io;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use psc_dace::{DaceConfig, DaceNode};
use psc_simnet::NodeId;
use psc_telemetry::{
    FlightRecorder, HealthConfig, HealthMonitor, Inspect, Registry, Snapshot, Tracer,
    DEFAULT_FLIGHT_CAPACITY,
};
use pubsub_core::Domain;

/// A DACE cluster member on the socket transport: the standard deployment
/// unit (`psc-node` is a CLI around this).
pub struct DaceEndpoint {
    transport: NetTransport,
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
}

impl DaceEndpoint {
    /// Starts a `DaceNode` for `cluster` behind a [`NetTransport`] bound
    /// per `net`, with the full observability plane wired: a fresh
    /// registry shared by node and transport, a flight recorder, and a
    /// health monitor fed both by the node's watchdog (when configured)
    /// and the transport's queue sweeps.
    pub fn start(
        net: NetConfig,
        cluster: Vec<NodeId>,
        dace: DaceConfig,
    ) -> io::Result<DaceEndpoint> {
        let registry = Arc::new(Registry::new());
        // No endpoint method reads a trace, so none is recorded.
        let tracer = Arc::new(Tracer::default());
        tracer.set_enabled(false);
        let recorder = Arc::new(FlightRecorder::new(
            format!("n{}", net.id.0),
            DEFAULT_FLIGHT_CAPACITY,
        ));
        let monitor = Arc::new(HealthMonitor::new(
            registry.as_ref().clone(),
            Some(Arc::clone(&recorder)),
            HealthConfig::default(),
        ));
        let node = DaceNode::with_observability(
            cluster,
            dace,
            Arc::clone(&registry),
            tracer,
            Some(Arc::clone(&recorder)),
            Some(Arc::clone(&monitor)),
        );
        let transport =
            NetTransport::bind(net, Box::new(node), Arc::clone(&registry), Some(monitor))?;
        Ok(DaceEndpoint { transport, registry, recorder })
    }

    /// The underlying transport.
    pub fn transport(&self) -> &NetTransport {
        &self.transport
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.transport.id()
    }

    /// The bound listen address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.transport.local_addr()
    }

    /// Runs `f` against the node's [`Domain`] on the calling thread, under
    /// the lock every callback of the node runs under — the local API
    /// injection path for publish/subscribe, identical in effect to
    /// [`DaceNode::drive`] under the simulator. What `f` publishes to an
    /// idle peer is on the socket when this returns. If the call wrote to
    /// the node's log (a `Certified` publish, a durable subscription), the
    /// caller still does not wait for the disk: a certified frame under an
    /// epoch already on disk leaves at once, ahead of its own log record,
    /// and the log write and the sends that depend on it follow on the
    /// transport's timer thread.
    ///
    /// Subscription handlers run under the same lock (on whichever thread
    /// brought the obvent), so calling this from inside a handler
    /// deadlocks; publish through the `Domain` the handler can capture
    /// instead. It panics once the endpoint has stopped.
    pub fn with_domain<R: Send + 'static>(
        &self,
        f: impl FnOnce(&Domain) -> R + Send + 'static,
    ) -> R {
        self.transport.act_sync(move |node, ctx| {
            let mut result = None;
            DaceNode::drive_ctx(node, ctx, |domain| {
                result = Some(f(domain));
            });
            result.expect("drive_ctx ran")
        })
    }

    /// Blocks until all dialed peers are connected, or `timeout` elapses.
    pub fn wait_connected(&self, timeout: StdDuration) -> bool {
        self.transport.wait_connected(timeout)
    }

    /// A deterministic snapshot of the endpoint's whole metric plane
    /// (`dace.*`, `group.*`, `net.*`, `snapshot.*`, …).
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Initiates a cluster-wide Chandy–Lamport snapshot wave from this
    /// node (it becomes the wave's initiator and assembles the cut);
    /// returns the wave id. Poll [`DaceEndpoint::snapshot_render`] for
    /// completion, or use [`DaceEndpoint::snapshot_capture`] to block.
    pub fn snapshot_initiate(&self) -> u64 {
        self.transport.act_sync(|node, ctx| {
            node.as_any_mut()
                .downcast_mut::<DaceNode>()
                .expect("endpoint hosts a DaceNode")
                .snapshot_initiate(ctx)
        })
    }

    /// The byte-stable rendering of the completed cut this node assembled
    /// for wave `wave`, once every fragment has arrived.
    pub fn snapshot_render(&self, wave: u64) -> Option<String> {
        self.transport.act_sync(move |node, _ctx| {
            node.as_any_mut()
                .downcast_mut::<DaceNode>()
                .expect("endpoint hosts a DaceNode")
                .snapshot_cut()
                .filter(|cut| cut.snap == wave)
                .map(|cut| cut.render())
        })
    }

    /// Initiates a snapshot wave and blocks until the cut completes (the
    /// marker protocol needs one round trip per peer plus retransmits
    /// under loss), or `timeout` elapses; returns the byte-stable cluster
    /// image.
    pub fn snapshot_capture(&self, timeout: StdDuration) -> Option<String> {
        let wave = self.snapshot_initiate();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(render) = self.snapshot_render(wave) {
                return Some(render);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(StdDuration::from_millis(20));
        }
    }

    /// The shared registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The endpoint's flight recorder (post-mortem ring).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Combined state report: the hosted node's [`Inspect`] section
    /// followed by the transport's.
    pub fn inspect(&self) -> String {
        let node_report = self.transport.act_sync(|node, _ctx| {
            node.as_any_mut()
                .downcast_mut::<DaceNode>()
                .map(|n| n.inspect())
                .unwrap_or_default()
        });
        format!("{node_report}{}", self.transport.inspect())
    }

    /// Stops the transport and joins its threads.
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }
}
