//! DACE deployment configuration.

use psc_group::LpbcastConfig;
use psc_simnet::{Duration, NodeId};

/// Where remote (migratable) filters are evaluated (paper §3.3.3: "it is
/// interesting to apply filters on foreign hosts, which are possibly
/// entirely dedicated to filtering").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Placement {
    /// Filters are factored at each publisher: obvents are sent only to
    /// nodes with at least one matching subscription (default).
    #[default]
    Publisher,
    /// Publishers send once to a dedicated filtering host, whose compound
    /// index fans out to matching subscribers.
    Broker(NodeId),
    /// No upstream filtering: obvents go to every type-interested node and
    /// filters run subscriber-side only (the baseline E2 compares against).
    Subscriber,
}

/// Configuration of a DACE node.
#[derive(Debug, Clone, PartialEq)]
pub struct DaceConfig {
    /// Remote-filter placement for best-effort channels.
    pub placement: Placement,
    /// When set, best-effort channels use gossip (lpbcast) instead of
    /// direct per-subscriber sends — the scalable substrate of §4.2.
    pub gossip: Option<LpbcastConfig>,
    /// Serialization interval of the bandwidth-limited transmit queue
    /// (one direct obvent leaves the node per interval; this is what makes
    /// priorities observable).
    pub transmit_interval: Duration,
    /// Period of the reflexive control re-announcements (subscriptions and
    /// published kinds), providing anti-entropy under loss and for late
    /// joiners.
    pub announce_interval: Duration,
    /// Stall-watchdog sweep period. `None` (the default) disables the
    /// watchdog and leaves the simulator's event schedule untouched; when
    /// set, the node periodically feeds its transmit/parked/channel queue
    /// depths into a health monitor that emits `health.*` metrics.
    pub watchdog: Option<Duration>,
    /// Write-ahead logging of durable channel state (default on). Along
    /// the paper's Fig. 4 lattice, `Certified` delivery implies durability:
    /// every persisted key of a certified channel — plus durable
    /// subscriptions and parked obvents — is also appended (CRC-framed) to
    /// a per-channel append-only log, and recovery replays the log before
    /// reading anything. Volatile kinds opt out by not being certified.
    pub wal: bool,
    /// Issue an fsync barrier after every commit (default on). Turning
    /// this off deliberately models a broken disk discipline: under a
    /// disk-fault crash the un-fsynced log suffix is lost, and the
    /// harness's durability oracle must catch the resulting ghost/dup.
    pub wal_sync: bool,
    /// Rotate a log's active segment once it exceeds this many bytes.
    pub wal_segment_bytes: usize,
    /// Compact a log (checkpoint the live keyspace into a fresh segment,
    /// drop the older ones) once its total size exceeds this many bytes.
    pub wal_compact_threshold: usize,
    /// Retry period of the snapshot plane: the initiator retransmits
    /// markers to nodes whose fragment is still missing, and participants
    /// use the same tick to force-close in-flight recordings whose marker
    /// never arrives (partitioned or crashed peers), keeping the wave live
    /// under loss.
    pub snapshot_retry: Duration,
    /// Deliberately broken marker discipline for oracle validation: a
    /// receiver seeing a message tagged with a newer snapshot wave
    /// *processes it first* and only then captures — the classic
    /// Chandy–Lamport bug that lets a post-cut send slip into the
    /// receiver's pre-cut state. The harness's `broken::SkewedMarkers`
    /// deployment turns this on to prove the snapshot oracles can see the
    /// resulting ghost.
    pub snapshot_skew: bool,
}

impl Default for DaceConfig {
    fn default() -> Self {
        DaceConfig {
            placement: Placement::Publisher,
            gossip: None,
            transmit_interval: Duration::from_micros(100),
            announce_interval: Duration::from_millis(200),
            watchdog: None,
            wal: true,
            wal_sync: true,
            wal_segment_bytes: 16 * 1024,
            wal_compact_threshold: 64 * 1024,
            snapshot_retry: Duration::from_millis(25),
            snapshot_skew: false,
        }
    }
}
