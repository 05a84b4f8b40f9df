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

/// Configuration of a DACE node. It holds no model of the network: the
/// transport's own queues are the uplink.
#[derive(Debug, Clone, PartialEq)]
pub struct DaceConfig {
    /// Remote-filter placement for best-effort channels.
    pub placement: Placement,
    /// When set, best-effort channels use gossip (lpbcast) instead of
    /// direct per-subscriber sends — the scalable substrate of §4.2.
    pub gossip: Option<LpbcastConfig>,
    /// Period of the control plane's anti-entropy: each node sends every
    /// peer one digest of its subscription set (a peer whose view
    /// disagrees pulls the whole set) and re-advertises its published
    /// kinds, repairing what loss, restarts and late joins left behind.
    pub announce_interval: Duration,
    /// Stall-watchdog sweep period. `None` (the default) disables the
    /// watchdog and leaves the simulator's event schedule untouched; when
    /// set, the node periodically feeds its parked and channel queue
    /// depths into a health monitor that emits `health.*` metrics.
    pub watchdog: Option<Duration>,
}

impl Default for DaceConfig {
    fn default() -> Self {
        DaceConfig {
            placement: Placement::Publisher,
            gossip: None,
            announce_interval: Duration::from_millis(200),
            watchdog: None,
        }
    }
}
