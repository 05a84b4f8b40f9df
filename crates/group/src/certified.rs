//! Certified delivery: the paper's *Certified* semantics.
//!
//! "With such obvents, even if a notifiable temporarily disconnects or
//! fails, it will eventually deliver the obvent" (§3.1.2). The publisher
//! logs every message in stable storage together with the member set it
//! must reach, retransmits periodically until each member acknowledges, and
//! survives its own crashes by rebuilding the log on recovery. Subscribers
//! persist the set of delivered message ids so a retransmission after
//! recovery is acknowledged but not re-delivered (exactly-once delivery
//! across failures).
//!
//! The delivered set is kept per `(origin, epoch)` as a watermark plus the
//! seqs delivered above it (the shared [`Dedup`]), stored under one key per
//! origin: a first delivery rewrites only its origin's key, one record of
//! O(1 + gaps) bytes whether it arrived in order or not.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_simnet::{Duration, NodeId};

use crate::dedup::{Dedup, MsgId, OriginDelivered};
use crate::io::{decode_msg, encode_msg, GroupIo, Multicast, TimerToken};

const RETRANSMIT: TimerToken = TimerToken(2);

const KEY_SEQ: &str = "cert/seq";
/// The whole delivered set as one `Vec<MsgId>`: the format before
/// per-origin keys, still read (never written) on load.
const KEY_LEGACY_DELIVERED: &str = "cert/delivered";
/// Per-origin delivered state: `cert/delivered/<origin>`.
const KEY_DELIVERED_PREFIX: &str = "cert/delivered/";
const KEY_LOG_PREFIX: &str = "cert/log/";

#[derive(Debug, Serialize, Deserialize)]
enum Msg {
    Data { id: MsgId, payload: WireBytes },
    Ack { id: MsgId },
}

/// A logged outgoing message awaiting acknowledgements.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LogEntry {
    id: MsgId,
    payload: WireBytes,
    /// Members that must acknowledge.
    targets: Vec<NodeId>,
    /// Members that have acknowledged.
    acked: Vec<NodeId>,
}

/// Certified (crash-surviving, exactly-once) broadcast.
#[derive(Debug)]
pub struct Certified {
    retransmit_interval: Duration,
    /// Outgoing log, mirrored in stable storage.
    log: BTreeMap<u64, LogEntry>,
    /// Ids delivered locally, mirrored in stable storage one origin per key.
    delivered: Dedup,
    timer_armed: bool,
    loaded: bool,
}

impl Default for Certified {
    fn default() -> Self {
        Certified::new()
    }
}

impl Certified {
    /// Creates a certified-broadcast instance with the default 50 ms
    /// retransmission interval.
    pub fn new() -> Self {
        Certified::with_interval(Duration::from_millis(50))
    }

    /// Creates an instance with a custom retransmission interval.
    pub fn with_interval(retransmit_interval: Duration) -> Self {
        Certified {
            retransmit_interval,
            log: BTreeMap::new(),
            delivered: Dedup::default(),
            timer_armed: false,
            loaded: false,
        }
    }

    /// Outgoing messages not yet fully acknowledged (diagnostics).
    pub fn unacked_len(&self) -> usize {
        self.log.len()
    }

    /// Number of distinct messages delivered locally (diagnostics).
    pub fn delivered_len(&self) -> usize {
        self.delivered.len()
    }

    fn load(&mut self, io: &mut dyn GroupIo) {
        if self.loaded {
            return;
        }
        self.loaded = true;
        let storage = io.storage();
        for key in storage.keys_with_prefix(KEY_DELIVERED_PREFIX) {
            let origin = key[KEY_DELIVERED_PREFIX.len()..].parse::<u64>();
            if let (Ok(origin), Ok(Some(state))) = (origin, storage.get::<OriginDelivered>(&key)) {
                self.delivered.restore(NodeId(origin), state);
            }
        }
        if let Ok(Some(ids)) = storage.get::<Vec<MsgId>>(KEY_LEGACY_DELIVERED) {
            for id in ids {
                self.delivered.insert(id);
            }
        }
        for key in storage.keys_with_prefix(KEY_LOG_PREFIX) {
            if let Ok(Some(entry)) = storage.get::<LogEntry>(&key) {
                self.log.insert(entry.id.seq, entry);
            }
        }
    }

    fn persist_entry(&self, io: &mut dyn GroupIo, entry: &LogEntry) {
        io.storage()
            .put(&format!("{KEY_LOG_PREFIX}{:020}", entry.id.seq), entry)
            .expect("log entry serialization cannot fail");
    }

    /// Records a first delivery of `id` and persists its origin's state:
    /// one small record. False (and no write) for a duplicate.
    fn deliver_once(&mut self, io: &mut dyn GroupIo, id: MsgId) -> bool {
        if !self.delivered.insert(id) {
            return false;
        }
        io.storage()
            .put(&format!("{KEY_DELIVERED_PREFIX}{}", id.origin.0), self.delivered.origin(id.origin))
            .expect("delivered-state serialization cannot fail");
        true
    }

    fn arm_timer(&mut self, io: &mut dyn GroupIo) {
        if !self.timer_armed && !self.log.is_empty() {
            self.timer_armed = true;
            io.set_timer(self.retransmit_interval, RETRANSMIT);
        }
    }

    /// The data-message identity inside `bytes`, if it is a `Data` frame
    /// (snapshot in-flight recording).
    pub(crate) fn peek_id(bytes: &[u8]) -> Option<MsgId> {
        match decode_msg::<Msg>(bytes)? {
            Msg::Data { id, .. } => Some(id),
            Msg::Ack { .. } => None,
        }
    }

    fn send_entry(io: &mut dyn GroupIo, entry: &LogEntry) {
        let bytes = encode_msg(&Msg::Data {
            id: entry.id,
            payload: entry.payload.clone(),
        });
        for &target in &entry.targets {
            if !entry.acked.contains(&target) && target != io.self_id() {
                io.send(target, bytes.clone());
            }
        }
    }
}

impl Multicast for Certified {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        io.metric("certified.broadcasts", 1);
        self.load(io);
        let me = io.self_id();
        let seq: u64 = io
            .storage()
            .get(KEY_SEQ)
            .expect("sequence entry readable")
            .unwrap_or(0)
            + 1;
        io.storage()
            .put(KEY_SEQ, &seq)
            .expect("sequence serialization cannot fail");
        // Constant epoch: the persistent counter makes cross-incarnation id
        // collisions impossible, and the delivered set must keep suppressing
        // pre-crash retransmissions after recovery (see `MsgId`).
        let id = MsgId {
            origin: me,
            epoch: 0,
            seq,
        };
        let targets: Vec<NodeId> = io.members().iter().copied().filter(|&m| m != me).collect();
        let entry = LogEntry {
            id,
            payload: payload.clone(),
            targets,
            acked: Vec::new(),
        };
        self.persist_entry(io, &entry);
        Certified::send_entry(io, &entry);
        let fully_acked = entry.targets.is_empty();
        self.log.insert(seq, entry);
        if fully_acked {
            self.log.remove(&seq);
            io.storage().remove(&format!("{KEY_LOG_PREFIX}{seq:020}"));
        }
        // Local delivery if the publisher is a member.
        if io.members().contains(&me) && self.deliver_once(io, id) {
            io.deliver(me, payload);
        }
        self.arm_timer(io);
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, from: NodeId, bytes: &[u8]) {
        self.load(io);
        let Some(msg) = decode_msg::<Msg>(bytes) else {
            return;
        };
        match msg {
            Msg::Data { id, payload } => {
                // Always (re-)acknowledge; deliver only the first time.
                io.metric("certified.acks_sent", 1);
                io.send(from, encode_msg(&Msg::Ack { id }));
                if self.deliver_once(io, id) {
                    io.deliver(id.origin, payload);
                } else {
                    io.metric("certified.duplicates", 1);
                }
            }
            Msg::Ack { id } => {
                let Some(entry) = self.log.get_mut(&id.seq) else {
                    return;
                };
                if entry.id != id {
                    return;
                }
                if !entry.acked.contains(&from) {
                    entry.acked.push(from);
                }
                if entry.targets.iter().all(|t| entry.acked.contains(t)) {
                    self.log.remove(&id.seq);
                    io.storage().remove(&format!("{KEY_LOG_PREFIX}{:020}", id.seq));
                } else {
                    let entry = entry.clone();
                    self.persist_entry(io, &entry);
                }
            }
        }
    }

    fn on_timer(&mut self, io: &mut dyn GroupIo, token: TimerToken) {
        if token != RETRANSMIT {
            return;
        }
        self.timer_armed = false;
        self.load(io);
        io.metric("certified.retransmits", self.log.len() as u64);
        for entry in self.log.values() {
            Certified::send_entry(io, entry);
        }
        self.arm_timer(io);
    }

    fn on_start(&mut self, io: &mut dyn GroupIo) {
        self.load(io);
        self.arm_timer(io);
    }

    fn on_recover(&mut self, io: &mut dyn GroupIo) {
        // Fresh instance: rebuild volatile state from stable storage and
        // resume retransmission of anything unacknowledged.
        self.loaded = false;
        self.load(io);
        self.arm_timer(io);
    }

    fn capture(&mut self, io: &mut dyn GroupIo) -> psc_snapshot::ProtoCapture {
        self.load(io);
        let mut cap = psc_snapshot::ProtoCapture::new(self.proto_name());
        // Constant epoch 0 and a persistent counter; see `broadcast`.
        cap.next_seq = io.storage().get::<u64>(KEY_SEQ).ok().flatten().unwrap_or(0);
        cap.delivered = self
            .delivered
            .ids()
            .map(|id| psc_snapshot::MsgRef::new(id.origin.0, id.epoch, id.seq))
            .collect();
        cap.retransmit = self
            .log
            .values()
            .map(|entry| psc_snapshot::RetransmitEntry {
                id: psc_snapshot::MsgRef::new(entry.id.origin.0, entry.id.epoch, entry.id.seq),
                targets: entry.targets.iter().map(|n| n.0).collect(),
                acked: entry.acked.iter().map(|n| n.0).collect(),
            })
            .collect();
        cap.normalize();
        cap
    }

    fn proto_name(&self) -> &'static str {
        "certified"
    }

    fn queue_depths(&self) -> Vec<(&'static str, u64)> {
        vec![("certified.unacked", self.unacked_len() as u64)]
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use std::collections::BTreeSet;

    use psc_simnet::{DiskFault, ScopedStorage, SimTime, Storage};

    use super::*;
    use crate::dedup::Delivered;

    const PUBLISHER: NodeId = NodeId(0);
    const ME: NodeId = NodeId(1);

    /// One subscriber's disk and what it delivered, driven message by
    /// message; the delivered keys are WAL-bound like a certified channel.
    struct Disk {
        storage: Storage,
        delivered: Vec<u64>,
        rng: StdRng,
    }

    impl Disk {
        fn new() -> Self {
            let mut storage = Storage::new();
            storage.wal_bind("cert/", "ch");
            Disk { storage, delivered: Vec::new(), rng: StdRng::seed_from_u64(0) }
        }

        /// Hands `Data { seq }` to `proto` and commits: the appends it cost.
        fn data(&mut self, proto: &mut Certified, seq: u64) -> u64 {
            let id = MsgId { origin: PUBLISHER, epoch: 0, seq };
            let payload = WireBytes::from(seq.to_le_bytes().to_vec());
            let bytes = encode_msg(&Msg::Data { id, payload });
            proto.on_message(self, PUBLISHER, &bytes);
            self.storage.wal_commit().appends
        }

        /// Power loss and a fresh incarnation recovered from the log.
        fn crash(&mut self) -> Certified {
            self.storage.power_loss(&DiskFault::LoseUnsynced);
            self.storage.wal_recover();
            self.delivered.clear();
            let mut proto = Certified::new();
            proto.on_recover(self);
            proto
        }

        fn delivered_keys(&self) -> Vec<&str> {
            self.storage.keys_with_prefix("cert/delivered").collect()
        }
    }

    impl GroupIo for Disk {
        fn self_id(&self) -> NodeId {
            ME
        }
        fn members(&self) -> &[NodeId] {
            &[PUBLISHER, ME]
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, _to: NodeId, _bytes: WireBytes) {}
        fn deliver(&mut self, _origin: NodeId, payload: WireBytes) {
            self.delivered.push(u64::from_le_bytes(payload[..].try_into().expect("8 bytes")));
        }
        fn set_timer(&mut self, _after: Duration, _token: TimerToken) {}
        fn storage(&mut self) -> ScopedStorage<'_> {
            self.storage.scoped("")
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    #[test]
    fn out_of_order_deliveries_cost_one_record_each_and_survive_a_crash() {
        let mut disk = Disk::new();
        let mut proto = Certified::new();
        let appends: Vec<u64> = [3, 1, 2, 2].iter().map(|&seq| disk.data(&mut proto, seq)).collect();
        assert_eq!(appends, [1, 1, 1, 0], "one record per first delivery, none for a duplicate");
        assert_eq!(disk.delivered, [3, 1, 2]);

        let mut proto = disk.crash();
        assert_eq!(proto.delivered_len(), 3);
        for seq in [1, 2, 3] {
            assert_eq!(disk.data(&mut proto, seq), 0);
        }
        assert!(disk.delivered.is_empty(), "a retransmission after recovery is not redelivered");
        disk.data(&mut proto, 4);
        assert_eq!(disk.delivered, [4]);
    }

    #[test]
    fn a_legacy_delivered_set_is_folded_in_on_load() {
        let mut disk = Disk::new();
        let legacy: Vec<MsgId> =
            [1, 2, 5].iter().map(|&seq| MsgId { origin: PUBLISHER, epoch: 0, seq }).collect();
        disk.storage.put(KEY_LEGACY_DELIVERED, &legacy).unwrap();
        disk.storage.wal_commit();

        let mut proto = disk.crash();
        assert_eq!(proto.delivered_len(), 3);
        for seq in [1, 2, 5] {
            disk.data(&mut proto, seq);
        }
        assert!(disk.delivered.is_empty(), "legacy ids are not redelivered");
        disk.data(&mut proto, 3);
        assert_eq!(disk.delivered, [3]);
    }

    #[test]
    fn in_order_deliveries_keep_one_small_key() {
        let mut disk = Disk::new();
        let mut proto = Certified::new();
        for seq in 1..=10_000 {
            disk.data(&mut proto, seq);
        }
        assert_eq!(disk.delivered.len(), 10_000);
        assert_eq!(disk.delivered_keys(), ["cert/delivered/0"]);
        assert_eq!(proto.delivered.origin(PUBLISHER)[&0], Delivered { upto: 10_000, above: BTreeSet::new() });
        let bytes = disk.storage.get_raw("cert/delivered/0").unwrap().len();
        assert!(bytes < 16, "the record does not grow with the deliveries: {bytes} B");
    }
}
