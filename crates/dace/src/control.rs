//! Reflexive control obvents (paper §4.2).
//!
//! "Such messages are obvents themselves, and allow distributed processes
//! to learn about other, possibly new, multicast classes." Subscription,
//! unsubscription and class advertisements are ordinary obvent classes
//! declared with the same macro applications use, serialized with the same
//! codec, and flooded on the control channel.
//!
//! A subscription is flooded once, when it joins a class, and withdrawn
//! once. Anti-entropy costs one constant-size [`DigestCtl`] per peer per
//! interval, whatever the number of subscriptions: a peer whose view of
//! the sender disagrees with the digest sends a [`PullCtl`], and the
//! sender answers it alone with its whole set in [`SubSetCtl`] parts,
//! which replace the puller's view. A lost subscription, a lost
//! unsubscription and a restarted node's stale entries are all repaired
//! this way; a stale part that a reordering network delivers after a newer
//! delta is caught by the next digest in turn.

use psc_codec::WireBytes;
use psc_obvent::declare_obvent_model;

declare_obvent_model! {
    /// A node announces one subscription's interest in one multicast class.
    pub class SubscribeCtl {
        /// Subscriber node.
        node: u64,
        /// Domain-local subscription id at the subscriber.
        sub: u64,
        /// The multicast class (concrete kind) being joined.
        channel: u64,
        /// The declared subscription kind (may be a supertype/interface).
        declared: u64,
        /// Encoded `RemoteFilter`, empty when the subscription has no
        /// migratable filter part. Carried as a shared buffer so joins and
        /// pulled sets reuse one encode per subscription.
        filter: WireBytes,
    }
}

declare_obvent_model! {
    /// A node withdraws one subscription from one multicast class.
    pub class UnsubscribeCtl {
        /// Subscriber node.
        node: u64,
        /// Domain-local subscription id at the subscriber.
        sub: u64,
        /// The multicast class being left.
        channel: u64,
    }
}

declare_obvent_model! {
    /// A publisher advertises a (possibly new) multicast class, carrying
    /// enough of the type hierarchy for peers to join it on behalf of
    /// supertype subscriptions.
    pub class AdvertiseCtl {
        /// The concrete kind published on this class.
        adv_kind: u64,
        /// Fully qualified kind name (diagnostics).
        name: String,
        /// Transitive supertype closure of `kind` (kind ids).
        ancestry: Vec<u64>,
    }
}

declare_obvent_model! {
    /// A node's periodic summary of its own subscription set: the XOR of
    /// one [`entry_hash`] per (subscription, class) entry, and the number
    /// of entries.
    pub class DigestCtl {
        /// The subscriber node the digest summarizes.
        node: u64,
        /// XOR of the entry hashes.
        digest: u64,
        /// Number of entries.
        count: u64,
    }
}

declare_obvent_model! {
    /// A peer whose view disagreed with a [`DigestCtl`] asks its sender for
    /// the whole set.
    pub class PullCtl {
        /// The node asking; the answer goes to it alone.
        node: u64,
    }
}

declare_obvent_model! {
    /// One part of a node's whole subscription set, the answer to a
    /// [`PullCtl`]. It is the complete truth for the subscription ids it
    /// covers: the receiver drops every entry of `node` in `first..=last`
    /// that `subs` does not list. Parts split the id space at subscription
    /// boundaries; the first starts at 0 and the last ends at `u64::MAX`.
    pub class SubSetCtl {
        /// The subscriber node whose set this is.
        node: u64,
        /// First subscription id covered.
        first: u64,
        /// Last subscription id covered.
        last: u64,
        /// The entries, ordered by subscription id, then class.
        subs: Vec<SubscribeCtl>,
    }
}

/// The hash one (subscription, class) entry contributes to its node's
/// digest: FNV-1a over the entry's identity and encoded filter, finished
/// with a 64-bit mixer so that XOR-combined digests of different sets
/// rarely collide. Deterministic across processes, unlike `std`'s hasher.
pub fn entry_hash(sub: u64, channel: u64, declared: u64, filter: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let ids = [sub, channel, declared].map(u64::to_le_bytes);
    for byte in ids.iter().flatten().chain(filter) {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // SplitMix64's finalizer.
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_obvent::{builtin, Obvent, WireObvent};

    fn round_trips<O: Obvent + PartialEq + std::fmt::Debug>(ctl: O) {
        assert!(O::kind().is_subtype_of(builtin::obvent_kind().id()));
        let wire = WireObvent::encode(&ctl).unwrap();
        assert_eq!(wire.kind_id(), O::kind_id());
        let back: O = wire.decode_exact().unwrap();
        assert_eq!(back, ctl);
    }

    #[test]
    fn control_messages_are_obvents() {
        // The reflexive property: control traffic subtypes the root Obvent
        // interface and round-trips through the ordinary wire path.
        let sub = SubscribeCtl::new(3, 7, 0xdead, 0xbeef, vec![1, 2, 3].into());
        round_trips(sub.clone());
        round_trips(UnsubscribeCtl::new(3, 7, 0xdead));
        round_trips(DigestCtl::new(3, 0x5eed, 2));
        round_trips(PullCtl::new(4));
        round_trips(SubSetCtl::new(3, 0, u64::MAX, vec![sub]));
    }

    #[test]
    fn advertisements_carry_the_ancestry() {
        let adv = AdvertiseCtl::new(1, "x.Y".into(), vec![1, 42]);
        assert_eq!(adv.ancestry(), &vec![1, 42]);
        let wire = WireObvent::encode(&adv).unwrap();
        assert_eq!(wire.kind_id(), AdvertiseCtl::kind_id());
    }

    #[test]
    fn entry_hashes_tell_every_field_apart() {
        let base = entry_hash(1, 2, 3, &[4]);
        assert_eq!(base, entry_hash(1, 2, 3, &[4]));
        for other in [
            entry_hash(9, 2, 3, &[4]),
            entry_hash(1, 9, 3, &[4]),
            entry_hash(1, 2, 9, &[4]),
            entry_hash(1, 2, 3, &[9]),
            entry_hash(1, 2, 3, &[]),
        ] {
            assert_ne!(base, other);
        }
    }
}
