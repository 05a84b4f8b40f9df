//! FIFO-ordered broadcast: the paper's *FIFO ordered* semantics.
//!
//! "Two obvents o1 and o2 that are published through the same object are
//! delivered … in the same order they were published (publisher-side
//! order)" (§3.1.2). A hold-back policy over the reliable delivery layer's
//! `(origin, epoch, seq)` stream: a queue per origin releases messages
//! strictly by sequence number. Relay, retransmission and duplicate
//! suppression are the layer's ([`Eager`](crate::reliable::Eager)).
//!
//! Where a receiver's part of a stream starts:
//!
//! - at seq 1 of each origin incarnation;
//! - for a member the origin starts addressing mid-epoch (a late
//!   subscriber), at the seq the frame header ([`Joins`]) names for it;
//! - after this process recovers from a crash, at the first frame it sees
//!   of each stream that began before the recovery — the stream's earlier
//!   messages went to the previous incarnation. A message of that stream
//!   overtaken by a later one is dropped, never delivered out of order.

use std::collections::{BTreeMap, HashMap};

use psc_codec::WireBytes;
use psc_simnet::NodeId;
use psc_snapshot::ProtoCapture;

use crate::dedup::{Delivered, MsgId};
use crate::io::GroupIo;
use crate::reliable::{Eager, HoldBack};

/// Reliable broadcast with per-publisher FIFO delivery.
///
/// Sequencing is per publisher *incarnation* (see [`MsgId`]): when a
/// publisher crashes its counters are lost, so a receiver that spots a
/// higher epoch from an origin abandons that origin's old hold-back queue
/// and follows the new stream. FIFO order is guaranteed within an
/// incarnation; messages of a dead incarnation still in flight are dropped
/// rather than delivered out of a now-meaningless order.
pub type Fifo = Eager<FifoHoldBack>;

/// The members an origin started addressing after seq 1 of its epoch,
/// with the first seq each is owed. Every frame carries the list until the
/// member acknowledges a seq at or past its start, so it is usually empty
/// and one encoded frame still serves every target.
#[derive(Debug, Default)]
pub(crate) struct Joins {
    /// Targets of the previous broadcast.
    last_targets: Vec<NodeId>,
    /// `(member, first owed seq)`, unacknowledged.
    owed: Vec<(NodeId, u64)>,
}

impl Joins {
    /// The header of own broadcast `seq` to `targets`.
    pub(crate) fn stamp(&mut self, seq: u64, targets: &[NodeId]) -> Vec<(NodeId, u64)> {
        if self.last_targets != targets {
            // A member that left is owed nothing more.
            self.owed.retain(|(m, _)| targets.contains(m));
            for &member in targets {
                if seq > 1 && !self.last_targets.contains(&member) {
                    self.owed.retain(|&(m, _)| m != member);
                    self.owed.push((member, seq));
                }
            }
            self.last_targets = targets.to_vec();
        }
        self.owed.clone()
    }

    /// `from` acknowledged `seq`: a frame naming its start reached it.
    pub(crate) fn on_ack(&mut self, from: NodeId, seq: u64) {
        self.owed.retain(|&(m, first)| m != from || seq < first);
    }

    /// The first seq `header` says `me` is owed, if it names one.
    pub(crate) fn start_of(header: &[(NodeId, u64)], me: NodeId) -> Option<u64> {
        header
            .iter()
            .find(|&&(m, _)| m == me)
            .map(|&(_, first)| first)
    }
}

/// FIFO hold-back; see the module docs.
#[derive(Debug, Default)]
pub struct FifoHoldBack {
    joins: Joins,
    /// Per origin: the incarnation epoch being tracked and the next
    /// expected sequence number within it.
    expected: HashMap<NodeId, (u64, u64)>,
    /// Held-back out-of-order messages per origin (current epoch only).
    holdback: HashMap<NodeId, BTreeMap<u64, WireBytes>>,
    /// The epoch this incarnation recovered at, if it did.
    recovered_at: Option<u64>,
}

impl FifoHoldBack {
    fn holdback_len(&self) -> usize {
        self.holdback.values().map(BTreeMap::len).sum()
    }
}

impl HoldBack for FifoHoldBack {
    type Header = Vec<(NodeId, u64)>;
    const NAME: &'static str = "fifo";

    fn stamp(&mut self, id: MsgId, targets: &[NodeId]) -> Self::Header {
        self.joins.stamp(id.seq, targets)
    }

    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        id: MsgId,
        header: Self::Header,
        payload: WireBytes,
        seen: &mut Delivered,
    ) {
        let tracked = self.expected.get(&id.origin).map(|&(epoch, _)| epoch);
        if tracked.is_some_and(|epoch| id.epoch < epoch) {
            return; // straggler from a dead incarnation
        }
        if tracked != Some(id.epoch) {
            // A new stream: first sight, or the origin restarted.
            let resumed = self.recovered_at.is_some_and(|at| id.epoch < at);
            self.expected
                .insert(id.origin, (id.epoch, if resumed { id.seq } else { 1 }));
            self.holdback.remove(&id.origin);
        }
        let queue = self.holdback.entry(id.origin).or_default();
        let (_, expected) = self.expected.get_mut(&id.origin).expect("tracked above");
        if let Some(first) = Joins::start_of(&header, io.self_id()).filter(|&f| f > *expected) {
            // Seqs below the start were never sent here: release what
            // arrived of them anyway, in order, and go on at the start.
            let owed = queue.split_off(&first);
            for (_, payload) in std::mem::replace(queue, owed) {
                io.deliver(id.origin, payload);
            }
            *expected = first;
        }
        // Below `expected` everything is delivered or never will be.
        seen.skip_to(*expected - 1);
        if id.seq < *expected {
            return; // stale duplicate
        }
        if id.seq > *expected {
            io.metric("fifo.out_of_order", 1);
        }
        queue.insert(id.seq, payload);
        // Release the contiguous prefix.
        while let Some(payload) = queue.remove(expected) {
            io.deliver(id.origin, payload);
            *expected += 1;
        }
    }

    fn on_ack(&mut self, from: NodeId, seq: u64) {
        self.joins.on_ack(from, seq);
    }

    fn on_recover(&mut self, epoch: u64) {
        self.recovered_at = Some(epoch);
    }

    fn capture(&self, cap: &mut ProtoCapture) {
        cap.watermarks = self
            .expected
            .iter()
            .map(|(&node, &(epoch, expected))| (node.0, epoch, expected - 1))
            .collect();
        cap.pending = self.holdback_len() as u64;
    }

    fn queue_depths(&self, depths: &mut Vec<(&'static str, u64)>) {
        depths.push(("fifo.holdback", self.holdback_len() as u64));
    }
}
