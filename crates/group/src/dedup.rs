//! Duplicate suppression that stays bounded: the one record of which
//! message ids a process has seen, kept by the delivery layer
//! ([`Eager`](crate::reliable::Eager)) and persisted by its durable half
//! ([`Certified`](crate::Certified)).
//!
//! Ids are kept per `(origin, epoch)` stream as a watermark plus the seqs
//! seen above it ([`Delivered`]), so the state is O(streams + gaps), not
//! O(messages ever received). That holds for a member that joined a stream
//! late too: the layer skips its watermark to the start the origin's
//! frames name for it ([`Delivered::skip_to`]), so the seqs it was never
//! sent leave no gap.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use psc_simnet::NodeId;

/// Globally unique message id: origin, incarnation epoch, and per-origin
/// sequence number.
///
/// The epoch disambiguates incarnations of the same process: volatile
/// protocols lose their sequence counters on a crash, so a recovered
/// publisher restarts at `seq = 1` — without the epoch those ids would
/// collide with its pre-crash messages and survivors' duplicate
/// suppression would silently swallow the new, distinct messages. Each
/// incarnation stamps its ids with its start time (strictly later than any
/// previous incarnation's), keeping ids unique across crash–recover cycles.
/// The durable layer ([`Certified`](crate::Certified)) persists its epoch
/// instead: the stored one plus one, from 1, recorded with an
/// incarnation's first frame (an older on-disk form's constant 0 is still
/// read). Seqs stay volatile either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct MsgId {
    /// The broadcasting process.
    pub origin: NodeId,
    /// Its incarnation epoch.
    pub epoch: u64,
    /// Per-origin sequence number within the epoch, from 1.
    pub seq: u64,
}

/// The seqs of one `(origin, epoch)` stream seen locally. Seqs start at 1,
/// so the empty set is `upto == 0`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivered {
    /// Every seq `<= upto` is seen.
    pub(crate) upto: u64,
    /// Seqs seen past a gap; all `> upto + 1`.
    pub(crate) above: BTreeSet<u64>,
}

impl Delivered {
    /// Records `seq`; false when it was already seen.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq == self.upto + 1 {
            self.upto = seq; // in order: no set node to allocate
        } else if seq <= self.upto || !self.above.insert(seq) {
            return false;
        }
        self.coalesce();
        true
    }

    /// Counts every seq `<= upto` as seen: the stream's earlier messages
    /// will never be delivered here, so copies of them are duplicates.
    pub(crate) fn skip_to(&mut self, upto: u64) {
        if upto > self.upto {
            self.upto = upto;
            self.above = self.above.split_off(&(upto + 1));
            self.coalesce();
        }
    }

    fn coalesce(&mut self) {
        while self.above.remove(&(self.upto + 1)) {
            self.upto += 1;
        }
    }

    fn len(&self) -> usize {
        self.upto as usize + self.above.len()
    }

    fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        (1..=self.upto).chain(self.above.iter().copied())
    }
}

/// Per-origin state, epoch → seqs; [`Certified`](crate::Certified) stores
/// one as the value of each `cert/delivered/<origin>` key.
pub(crate) type OriginDelivered = BTreeMap<u64, Delivered>;

/// Every stream's [`Delivered`] record, per origin.
#[derive(Debug, Default)]
pub struct Dedup(pub(crate) BTreeMap<NodeId, OriginDelivered>);

impl Dedup {
    /// The record of `id`'s stream, created empty on first sight.
    pub(crate) fn stream(&mut self, id: MsgId) -> &mut Delivered {
        self.0
            .entry(id.origin)
            .or_default()
            .entry(id.epoch)
            .or_default()
    }

    /// Every epoch's record of `origin`, which has been heard from.
    pub(crate) fn origin(&self, origin: NodeId) -> &OriginDelivered {
        &self.0[&origin]
    }

    /// Replaces `origin`'s records (a reload from stable storage).
    pub(crate) fn restore(&mut self, origin: NodeId, state: OriginDelivered) {
        self.0.insert(origin, state);
    }

    /// Number of distinct ids seen.
    pub(crate) fn len(&self) -> usize {
        self.0
            .values()
            .flat_map(BTreeMap::values)
            .map(Delivered::len)
            .sum()
    }

    /// Every id seen, by origin, epoch and seq.
    pub(crate) fn ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.0.iter().flat_map(|(&origin, epochs)| {
            epochs.iter().flat_map(move |(&epoch, seqs)| {
                seqs.seqs().map(move |seq| MsgId { origin, epoch, seq })
            })
        })
    }
}
