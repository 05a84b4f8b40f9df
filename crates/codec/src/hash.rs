//! A fast, unkeyed hasher for the stack's in-memory maps.
//!
//! `std`'s default `SipHash` is keyed per process to resist hash flooding
//! and costs tens of nanoseconds per short key. The maps a subscription
//! install writes whose keys the node assigns itself or are one word — a
//! filter index's filter and sub-expression tables, a domain's subscription
//! table, a node's per-node counts and kind tables — hash small integers
//! and ids many times per subscription, so they use [`FastMap`]: a word-at-a-time
//! multiplicative hash in the style of `rustc`'s `FxHasher`, finished with
//! a folded multiply so that keys differing only in their high bits still
//! spread over the table. No map that uses it depends on its iteration
//! order.
//!
//! It is not keyed, and full collisions cost nothing to construct: for
//! words `a`, `b`, `a'`, the word `b + (a - a')·K` after `a'` leaves the
//! same state as `b` after `a`. So a map keyed by more than one word a peer
//! chooses (a filter's predicates, their encodings, paths and operands; a
//! channel's `(node, subscription)` entries) keeps `std`'s keyed hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of `rustc-hash`'s second version: odd, with its bits
/// spread so that one multiplication mixes a word into the high half.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The hasher behind [`FastMap`] and [`FastSet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length tells `[1]` from `[1, 0]`.
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// A folded multiply: the high half of the 128-bit product brings the
    /// high bits down, where the table takes its bucket index from.
    #[inline]
    fn finish(&self) -> u64 {
        let full = u128::from(self.hash) * u128::from(K);
        (full as u64) ^ ((full >> 64) as u64)
    }
}

/// Builds [`FastHasher`]s; every map using it hashes alike.
pub type FastState = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        FastState::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_alike_and_neighbours_apart() {
        assert_eq!(hash_of("market.company"), hash_of("market.company"));
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        // Trailing zero bytes are not lost in the last partial word.
        assert_ne!(hash_of([1u8].as_slice()), hash_of([1u8, 0].as_slice()));
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_bits() {
        // The bucket index is taken from the low bits: a hasher without the
        // final fold would put all of these in one probe sequence.
        let buckets: HashSet<u64> = (0..64u64).map(|i| hash_of(i << 40) & 63).collect();
        assert!(
            buckets.len() > 32,
            "only {} of 64 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn maps_work_with_borrowed_keys() {
        let mut map: FastMap<String, u32> = FastMap::default();
        map.insert("price".to_string(), 1);
        assert_eq!(map.get("price"), Some(&1));
    }
}
