//! Vector clocks [Mat89] keyed by raw node id.
//!
//! The workspace's one clock implementation, used by the snapshot plane
//! (`psc-group`'s causal protocol keeps its own epoch-tagged dependency
//! vector). Keys are plain `u64` node ids so the types can live below
//! `psc-simnet` in the crate DAG and be embedded in the wire envelope by
//! `psc-obvent`.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Ordering of two events under the happens-before partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Causality {
    /// Identical clocks.
    Equal,
    /// `self` happens-before `other`.
    Before,
    /// `other` happens-before `self`.
    After,
    /// Neither precedes the other.
    Concurrent,
}

/// A vector clock: one logical-event counter per node, missing entries
/// counting as zero (so clocks over different member sets compare
/// sensibly and the empty clock is a valid bottom element).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VClock {
    entries: BTreeMap<u64, u64>,
}

impl VClock {
    /// The all-zero clock.
    pub fn new() -> VClock {
        VClock::default()
    }

    /// The counter for `node` (zero when absent).
    pub fn get(&self, node: u64) -> u64 {
        self.entries.get(&node).copied().unwrap_or(0)
    }

    /// Sets `node`'s counter; setting zero removes the entry so that
    /// structurally different encodings of the same clock cannot exist.
    pub fn set(&mut self, node: u64, value: u64) {
        if value == 0 {
            self.entries.remove(&node);
        } else {
            self.entries.insert(node, value);
        }
    }

    /// Increments `node`'s counter (a local event), returning the new
    /// value.
    pub fn tick(&mut self, node: u64) -> u64 {
        let counter = self.entries.entry(node).or_insert(0);
        *counter += 1;
        *counter
    }

    /// Pointwise maximum with `other` — the merge applied on message
    /// receipt.
    pub fn merge(&mut self, other: &VClock) {
        for (&node, &value) in &other.entries {
            let mine = self.entries.entry(node).or_insert(0);
            if value > *mine {
                *mine = value;
            }
        }
    }

    /// Classifies `self` against `other` under happens-before.
    pub fn compare(&self, other: &VClock) -> Causality {
        let mut less = false;
        let mut greater = false;
        for &node in self.entries.keys().chain(other.entries.keys()) {
            let a = self.get(node);
            let b = other.get(node);
            less |= a < b;
            greater |= a > b;
        }
        match (less, greater) {
            (false, false) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (true, true) => Causality::Concurrent,
        }
    }

    /// True when `self` ≤ `other` pointwise.
    pub fn le(&self, other: &VClock) -> bool {
        matches!(self.compare(other), Causality::Before | Causality::Equal)
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(node, counter)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&n, &c)| (n, c))
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (node, counter)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "n{node}:{counter}")?;
        }
        write!(f, "]")
    }
}

/// The causal stamp carried in every wire envelope next to the
/// `TraceId`: the highest snapshot wave the sender has joined (zero when
/// none) and the sender's vector clock at send time.
///
/// The wave id is what makes the snapshot protocol robust over non-FIFO
/// links: a receiver that sees `snap` greater than its own current wave
/// captures its state *before* processing the message, so no post-capture
/// event at the sender can leak into the receiver's pre-capture state —
/// the Lai–Yang colouring argument, with markers retained purely as the
/// wave's ignition and completion signal.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CausalStamp {
    /// Snapshot wave id (0 = no wave).
    pub snap: u64,
    /// Sender's vector clock at send time.
    pub clock: VClock,
}

impl CausalStamp {
    /// A stamp for `snap` carrying `clock`.
    pub fn new(snap: u64, clock: VClock) -> CausalStamp {
        CausalStamp { snap, clock }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tick_merge_get() {
        let mut a = VClock::new();
        assert_eq!(a.tick(3), 1);
        assert_eq!(a.tick(3), 2);
        let mut b = VClock::new();
        b.set(3, 1);
        b.set(5, 4);
        a.merge(&b);
        assert_eq!(a.get(3), 2);
        assert_eq!(a.get(5), 4);
        assert_eq!(a.to_string(), "[n3:2 n5:4]");
    }

    #[test]
    fn concurrent_events_are_detected() {
        let mut a = VClock::new();
        a.tick(0);
        let mut b = VClock::new();
        b.tick(1);
        assert_eq!(a.compare(&b), Causality::Concurrent);
        assert_eq!(b.compare(&a), Causality::Concurrent);
        let mut c = a.clone();
        c.merge(&b);
        assert_eq!(a.compare(&c), Causality::Before);
        assert_eq!(c.compare(&b), Causality::After);
    }

    fn arb_clock() -> impl Strategy<Value = VClock> {
        proptest::collection::btree_map(0u64..5, 0u64..6, 0..5).prop_map(|m| {
            let mut vc = VClock::new();
            for (k, v) in m {
                vc.set(k, v);
            }
            vc
        })
    }

    proptest! {
        /// merge is the least upper bound: both inputs ≤ merged, and any
        /// common upper bound dominates the merge.
        #[test]
        fn prop_merge_is_lub(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert!(a.le(&merged));
            prop_assert!(b.le(&merged));
            let mut upper = c.clone();
            upper.merge(&a);
            upper.merge(&b);
            prop_assert!(merged.le(&upper));
        }

        /// merge is commutative, associative and idempotent.
        #[test]
        fn prop_merge_laws(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
            let mut aa = a.clone();
            aa.merge(&a);
            prop_assert_eq!(&aa, &a);
        }

        /// compare is a partial order: reflexive-equal, antisymmetric,
        /// and `le` is transitive.
        #[test]
        fn prop_compare_partial_order(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
            prop_assert_eq!(a.compare(&a), Causality::Equal);
            let expected = match a.compare(&b) {
                Causality::Equal => Causality::Equal,
                Causality::Before => Causality::After,
                Causality::After => Causality::Before,
                Causality::Concurrent => Causality::Concurrent,
            };
            prop_assert_eq!(b.compare(&a), expected);
            if a.le(&b) && b.le(&c) {
                prop_assert!(a.le(&c));
            }
        }

        /// Concurrency is exactly "neither ≤": the detector cannot call
        /// ordered clocks concurrent or concurrent clocks ordered.
        #[test]
        fn prop_concurrent_iff_neither_le(a in arb_clock(), b in arb_clock()) {
            let concurrent = a.compare(&b) == Causality::Concurrent;
            prop_assert_eq!(concurrent, !a.le(&b) && !b.le(&a));
        }

        /// Stamps survive the codec.
        #[test]
        fn prop_stamp_codec_roundtrip(snap in 0u64..9, clock in arb_clock()) {
            let stamp = CausalStamp::new(snap, clock);
            let bytes = psc_codec::to_bytes(&stamp).unwrap();
            let back: CausalStamp = psc_codec::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, stamp);
        }
    }
}
