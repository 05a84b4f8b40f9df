//! Deliberately defective protocols.
//!
//! An oracle that never fires is worse than none: these protocols exist so
//! tests can demonstrate that the invariant checks actually catch the
//! defect class they claim to (and that the shrinker reduces the failing
//! schedule to something readable).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_dace::{DaceConfig, DaceNode};
use psc_simnet::{Node, NodeId};

use psc_group::{GroupIo, Multicast};

/// A deployment with a deliberately broken snapshot-capture discipline:
/// the Lai–Yang rule ("capture *before* processing a message tagged with
/// a newer wave") is disabled, so a node captures only when the marker
/// itself arrives — the classic Chandy–Lamport misuse over non-FIFO
/// links. Wave-tagged data frames that outrace their marker are processed
/// into the pre-cut state, and the snapshot oracles must see the result:
/// a cut-inconsistent clock pair and/or a ghost delivery (`seq >` the
/// origin's captured `next_seq`).
#[derive(Debug, Default)]
pub struct SkewedMarkers;

impl SkewedMarkers {
    /// One node incarnation with the capture-before-processing rule turned
    /// off; plug into [`Snapshot::make_node`](crate::snapshot::Snapshot).
    pub fn node(cluster: Vec<NodeId>) -> Box<dyn Node> {
        Box::new(DaceNode::new(cluster, DaceConfig::default()).capture_after_processing())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct BrokenId {
    origin: u64,
    seq: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BrokenData {
    id: BrokenId,
    payload: WireBytes,
}

/// The healthy half both defective protocols share: number own messages,
/// relay every first sighting to all other members, drop repeats. What is
/// done with a foreign message after [`Flood::accept`] is the defect.
#[derive(Debug, Default)]
struct Flood {
    next_seq: u64,
    seen: HashSet<BrokenId>,
}

impl Flood {
    fn relay(&self, io: &mut dyn GroupIo, data: &BrokenData) {
        let me = io.self_id();
        let bytes = psc_codec::to_wire_bytes(data).expect("broken-protocol message encodes");
        for member in io.members().to_vec() {
            if member != me {
                io.send(member, bytes.clone());
            }
        }
    }

    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        let me = io.self_id();
        self.next_seq += 1;
        let data = BrokenData {
            id: BrokenId { origin: me.0, seq: self.next_seq },
            payload: payload.clone(),
        };
        self.seen.insert(data.id);
        self.relay(io, &data);
        if io.members().contains(&me) {
            io.deliver(me, payload);
        }
    }

    /// Decodes and relays a message seen for the first time.
    fn accept(&mut self, io: &mut dyn GroupIo, bytes: &[u8]) -> Option<BrokenData> {
        let data = psc_codec::from_bytes::<BrokenData>(bytes).ok()?;
        if !self.seen.insert(data.id) {
            return None;
        }
        self.relay(io, &data);
        Some(data)
    }
}

/// A "FIFO" broadcast with the sequence check disabled: it numbers its
/// messages per origin and floods them to every member, as
/// [`psc_group::Fifo`]'s delivery layer does (without its acks and origin
/// retransmission), but delivers in arrival order, without a hold-back
/// queue. Under latency jitter this reorders per-publisher messages — the
/// defect the FIFO oracle must catch.
#[derive(Debug, Default)]
pub struct BrokenFifo(Flood);

impl Multicast for BrokenFifo {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        self.0.broadcast(io, payload);
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, _from: NodeId, bytes: &[u8]) {
        if let Some(data) = self.0.accept(io, bytes) {
            // The defect: immediate delivery, no per-origin sequencing.
            io.deliver(NodeId(data.id.origin), data.payload);
        }
    }

    fn proto_name(&self) -> &'static str {
        "broken-fifo"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A "causal" broadcast with no hold-back at all: [`BrokenFifo`]'s
/// delivery on arrival, under its own name. Run on a causal scenario where
/// each origin publishes once, per-origin order cannot break, so only the
/// causal oracle can catch it: a message whose predecessor from another
/// origin is still in flight is delivered first.
#[derive(Debug, Default)]
pub struct BrokenCausal(BrokenFifo);

impl Multicast for BrokenCausal {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        self.0.broadcast(io, payload);
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, from: NodeId, bytes: &[u8]) {
        self.0.on_message(io, from, bytes);
    }

    fn proto_name(&self) -> &'static str {
        "broken-causal"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A broadcast that relays but **never delivers** foreign messages: every
/// remote publication is parked in an internal buffer forever. The
/// completeness oracle sees the missing deliveries; the *point* of this
/// defect is the stall watchdog — `stalling.buffer` is non-empty and
/// non-draining sweep after sweep, so the run's health findings name the
/// stuck queue and the flight-recorder post-mortem shows the obvents that
/// went in and never came out.
#[derive(Debug, Default)]
pub struct Stalling {
    flood: Flood,
    buffer: Vec<BrokenData>,
}

impl Multicast for Stalling {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        self.flood.broadcast(io, payload);
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, _from: NodeId, bytes: &[u8]) {
        // The defect: park forever instead of delivering.
        self.buffer.extend(self.flood.accept(io, bytes));
    }

    fn proto_name(&self) -> &'static str {
        "stalling"
    }

    fn queue_depths(&self) -> Vec<(&'static str, u64)> {
        vec![("stalling.buffer", self.buffer.len() as u64)]
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
