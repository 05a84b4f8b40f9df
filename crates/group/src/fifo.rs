//! FIFO-ordered broadcast: the paper's *FIFO ordered* semantics.
//!
//! "Two obvents o1 and o2 that are published through the same object are
//! delivered … in the same order they were published (publisher-side
//! order)" (§3.1.2). A hold-back policy over the reliable delivery layer's
//! `(origin, epoch, seq)` stream: a queue per origin releases messages
//! strictly by sequence number. Relay, retransmission and duplicate
//! suppression are the layer's ([`Eager`](crate::reliable::Eager)).
//!
//! Where a receiver's part of a stream starts is the layer's rule: at seq
//! 1 of each origin incarnation, or, for a member the origin starts
//! addressing mid-epoch (a late subscriber), at the seq the frame's start
//! list names for it ([`Receipt::start`]). One rule is FIFO's own: after
//! this process recovers from a crash, its part of each stream that began
//! before the recovery starts at the first frame it sees — the stream's
//! earlier messages went to the previous incarnation. A message of that
//! stream overtaken by a later one is dropped, never delivered out of
//! order.

use std::collections::{BTreeMap, HashMap};

use psc_codec::WireBytes;
use psc_simnet::NodeId;
use psc_snapshot::ProtoCapture;

use crate::dedup::{Delivered, MsgId};
use crate::io::GroupIo;
use crate::reliable::{Eager, HoldBack, Outbox, Receipt};

/// Reliable broadcast with per-publisher FIFO delivery.
///
/// Sequencing is per publisher *incarnation* (see [`MsgId`]): when a
/// publisher crashes its counters are lost, so a receiver that spots a
/// higher epoch from an origin abandons that origin's old hold-back queue
/// and follows the new stream. FIFO order is guaranteed within an
/// incarnation; messages of a dead incarnation still in flight are dropped
/// rather than delivered out of a now-meaningless order.
pub type Fifo = Eager<FifoHoldBack>;

/// Per-origin release in stream order: a queue per origin holds a
/// stream's messages until every earlier seq is released or will never
/// come (see the module docs for where a stream starts).
#[derive(Debug)]
pub(crate) struct Streams<T> {
    /// Per origin: the incarnation epoch being tracked and the next
    /// expected sequence number within it.
    expected: HashMap<NodeId, (u64, u64)>,
    /// Held-back out-of-order messages per origin (current epoch only).
    holdback: HashMap<NodeId, BTreeMap<u64, T>>,
    /// The epoch this incarnation recovered at, if it did.
    pub(crate) recovered_at: Option<u64>,
}

impl<T> Default for Streams<T> {
    fn default() -> Self {
        Streams {
            expected: HashMap::new(),
            holdback: HashMap::new(),
            recovered_at: None,
        }
    }
}

impl<T> Streams<T> {
    /// Takes the first receipt `id` of `item` and hands `release` every
    /// item it makes releasable, in stream order. `start` is the first seq
    /// the frame says this member is owed, if it names one ([`Receipt`]);
    /// `resumable`
    /// lets a stream that began before this incarnation recovered start at
    /// its first frame seen. True when `item` arrived out of order.
    pub(crate) fn accept(
        &mut self,
        id: MsgId,
        start: Option<u64>,
        resumable: bool,
        item: T,
        seen: &mut Delivered,
        mut release: impl FnMut(T),
    ) -> bool {
        let tracked = self.expected.get(&id.origin).map(|&(epoch, _)| epoch);
        if tracked.is_some_and(|epoch| id.epoch < epoch) {
            return false; // straggler from a dead incarnation
        }
        if tracked != Some(id.epoch) {
            // A new stream: first sight, or the origin restarted.
            let resumed = resumable && self.recovered_at.is_some_and(|at| id.epoch < at);
            self.expected
                .insert(id.origin, (id.epoch, if resumed { id.seq } else { 1 }));
            self.holdback.remove(&id.origin);
        }
        let queue = self.holdback.entry(id.origin).or_default();
        let (_, expected) = self.expected.get_mut(&id.origin).expect("tracked above");
        if let Some(first) = start.filter(|&f| f > *expected) {
            // Seqs below the start were never sent here: release what
            // arrived of them anyway, in order, and go on at the start.
            let owed = queue.split_off(&first);
            for (_, item) in std::mem::replace(queue, owed) {
                release(item);
            }
            *expected = first;
        }
        // Below `expected` everything is released or never will be.
        seen.skip_to(*expected - 1);
        if id.seq < *expected {
            return false; // stale duplicate
        }
        let out_of_order = id.seq > *expected;
        queue.insert(id.seq, item);
        // Release the contiguous prefix.
        while let Some(item) = queue.remove(expected) {
            release(item);
            *expected += 1;
        }
        out_of_order
    }

    /// Messages held back over all origins.
    pub(crate) fn held(&self) -> usize {
        self.holdback.values().map(BTreeMap::len).sum()
    }

    /// `(origin, epoch, last released seq)` per tracked stream.
    pub(crate) fn watermarks(&self) -> Vec<(u64, u64, u64)> {
        self.expected
            .iter()
            .map(|(&node, &(epoch, expected))| (node.0, epoch, expected - 1))
            .collect()
    }
}

/// FIFO hold-back; see the module docs.
#[derive(Debug, Default)]
pub struct FifoHoldBack {
    streams: Streams<WireBytes>,
}

impl HoldBack for FifoHoldBack {
    type Header = ();
    const NAME: &'static str = "fifo";

    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        _: &mut Outbox<()>,
        receipt: Receipt<()>,
        seen: &mut Delivered,
    ) {
        let Receipt {
            id, start, payload, ..
        } = receipt;
        let deliver = |payload| io.deliver(id.origin, payload);
        if self.streams.accept(id, start, true, payload, seen, deliver) {
            io.metric("fifo.out_of_order", 1);
        }
    }

    fn on_recover(&mut self, epoch: u64) {
        self.streams.recovered_at = Some(epoch);
    }

    fn capture(&self, cap: &mut ProtoCapture) {
        cap.watermarks = self.streams.watermarks();
        cap.pending = self.streams.held() as u64;
    }

    fn queue_depths(&self, depths: &mut Vec<(&'static str, u64)>) {
        depths.push(("fifo.holdback", self.streams.held() as u64));
    }
}
