//! Static cluster configuration for the socket transport.
//!
//! Deployment stays deliberately simple — the paper's evaluation clusters
//! are fixed machine lists, and so are ours: every process knows its own
//! id, a listen address, and the `id → address` map of its peers. There is
//! no membership protocol at this layer; DACE's reflexive control obvents
//! handle liveness above it.

use std::fmt;

use psc_simnet::NodeId;

/// One peer in the static cluster map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSpec {
    /// The peer's node id.
    pub id: NodeId,
    /// The peer's listen address (`host:port`).
    pub addr: String,
}

/// Configuration of one transport endpoint.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// This node's id.
    pub id: NodeId,
    /// Address to listen on (`host:port`; port `0` picks an ephemeral
    /// port, exposed via `NetTransport::local_addr`).
    pub listen: String,
    /// The other cluster members to dial.
    pub peers: Vec<PeerSpec>,
    /// Seed for the hosted node's RNG (deterministic protocol choices).
    pub seed: u64,
    /// When set, the node's write-ahead log is mirrored to real segment
    /// files under this directory ([`crate::FileWal`]), and startup
    /// reloads them — so a killed and restarted process recovers its
    /// durable channel state (certified sequences, parked obvents,
    /// durable subscriptions) exactly as a simulated node recovers from
    /// its stable storage. `None` (the default) keeps state in memory
    /// only.
    pub data_dir: Option<std::path::PathBuf>,
}

impl NetConfig {
    /// A config with the production defaults for `id`, listening on
    /// `listen`, with no peers yet.
    pub fn new(id: NodeId, listen: impl Into<String>) -> NetConfig {
        NetConfig {
            id,
            listen: listen.into(),
            peers: Vec::new(),
            seed: 0,
            data_dir: None,
        }
    }
}

/// Error from [`ClusterSpec::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterParseError(String);

impl fmt::Display for ClusterParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad cluster spec: {}", self.0)
    }
}

impl std::error::Error for ClusterParseError {}

/// A parsed `id=addr` cluster map, the `psc-node --cluster` format:
/// comma-separated `<id>=<host:port>` entries, e.g.
/// `0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// All members, in spec order.
    pub members: Vec<PeerSpec>,
}

impl ClusterSpec {
    /// Parses the comma-separated `id=addr` form.
    pub fn parse(spec: &str) -> Result<ClusterSpec, ClusterParseError> {
        let mut members = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((id, addr)) = entry.split_once('=') else {
                return Err(ClusterParseError(format!("entry {entry:?} is not id=host:port")));
            };
            let id: u64 = id
                .trim()
                .parse()
                .map_err(|_| ClusterParseError(format!("bad node id in {entry:?}")))?;
            let addr = addr.trim();
            if !addr.contains(':') {
                return Err(ClusterParseError(format!("address {addr:?} has no port")));
            }
            members.push(PeerSpec { id: NodeId(id), addr: addr.to_string() });
        }
        if members.is_empty() {
            return Err(ClusterParseError("no members".to_string()));
        }
        let mut ids: Vec<u64> = members.iter().map(|m| m.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != members.len() {
            return Err(ClusterParseError("duplicate node ids".to_string()));
        }
        Ok(ClusterSpec { members })
    }

    /// All member ids, in spec order (the DACE cluster list).
    pub fn ids(&self) -> Vec<NodeId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// Builds this process's [`NetConfig`]: listen on `self_id`'s address,
    /// dial everyone else.
    pub fn config_for(&self, self_id: NodeId) -> Result<NetConfig, ClusterParseError> {
        let me = self
            .members
            .iter()
            .find(|m| m.id == self_id)
            .ok_or_else(|| ClusterParseError(format!("node {self_id} not in cluster spec")))?;
        let mut config = NetConfig::new(self_id, me.addr.clone());
        config.peers = self
            .members
            .iter()
            .filter(|m| m.id != self_id)
            .cloned()
            .collect();
        config.seed = self_id.0;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cluster_spec() {
        let spec = ClusterSpec::parse("0=127.0.0.1:7000, 1=127.0.0.1:7001,2=localhost:7002").unwrap();
        assert_eq!(spec.members.len(), 3);
        assert_eq!(spec.ids(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        let cfg = spec.config_for(NodeId(1)).unwrap();
        assert_eq!(cfg.listen, "127.0.0.1:7001");
        assert_eq!(cfg.peers.len(), 2);
        assert!(cfg.peers.iter().all(|p| p.id != NodeId(1)));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(ClusterSpec::parse("").is_err());
        assert!(ClusterSpec::parse("0:127.0.0.1:7000").is_err());
        assert!(ClusterSpec::parse("x=127.0.0.1:7000").is_err());
        assert!(ClusterSpec::parse("0=127.0.0.1").is_err());
        assert!(ClusterSpec::parse("0=a:1,0=b:2").is_err());
        assert!(ClusterSpec::parse("0=a:1").unwrap().config_for(NodeId(9)).is_err());
    }
}
