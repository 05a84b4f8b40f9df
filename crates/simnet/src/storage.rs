//! Per-node stable storage.
//!
//! Certified delivery (paper §3.1.2) requires state that outlives process
//! failures: "even if a notifiable temporarily disconnects or fails, it will
//! eventually deliver the obvent". [`Storage`] models each node's disk: a
//! key–value map the simulator preserves across [`crash`]/[`recover`]
//! cycles while the node's in-memory state is discarded.
//!
//! [`crash`]: crate::SimNet::crash
//! [`recover`]: crate::SimNet::recover

use std::collections::BTreeMap;

use serde::de::DeserializeOwned;
use serde::Serialize;

use psc_codec::CodecError;

/// One recorded mutation of a journaled [`Storage`]; see
/// [`Storage::enable_journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageOp {
    /// `put_raw`/`put` of the given key and encoded value.
    Put(String, Vec<u8>),
    /// `remove` of the given key.
    Remove(String),
}

/// A disk-fault profile applied when a node is crashed with
/// [`crash_with_fault`](crate::SimNet::crash_with_fault). Faults model what
/// a real power loss does to an append-only log: fsynced bytes are durable
/// by contract, everything after the last sync barrier is fair game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// No disk damage: the classic [`crate::SimNet::crash`] — the key–value
    /// map and WAL survive byte-for-byte.
    None,
    /// Power loss: the in-memory key–value map is wiped and every WAL
    /// segment is truncated to its last sync barrier. Recovery sees exactly
    /// what was fsynced, nothing more.
    LoseUnsynced,
    /// Torn tail write: the map is wiped and the *active* segment loses its
    /// last `drop_bytes` unsynced bytes — usually cutting mid-record, so
    /// recovery must stop cleanly at the last complete frame.
    TornTail {
        /// How many bytes of the unsynced tail are lost (clamped so fsynced
        /// bytes are never touched).
        drop_bytes: usize,
    },
    /// The map is wiped and every segment that was never fsynced disappears
    /// whole (the file's directory entry itself was not durable yet).
    DropUnsyncedSegments,
}

/// One recorded WAL mutation; see [`Storage::enable_wal_journal`]. A real
/// file backend replays these onto segment files — the `Append` bytes are
/// the exact framed bytes the in-memory log holds, so the two stay
/// byte-equivalent by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Framed bytes appended to the log's active segment.
    Append {
        /// Log name.
        log: String,
        /// The framed record bytes exactly as appended.
        bytes: Vec<u8>,
    },
    /// Sync barrier: everything appended to the log so far is durable.
    Sync {
        /// Log name.
        log: String,
    },
    /// A new active segment was started.
    Rotate {
        /// Log name.
        log: String,
        /// Index of the new active segment.
        index: u64,
    },
    /// Segments with `index <= upto` were dropped (compaction).
    DropThrough {
        /// Log name.
        log: String,
        /// Highest dropped segment index.
        upto: u64,
    },
}

/// One append-only segment of a [`Storage`] write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSegment {
    /// Monotonic segment index within its log.
    pub index: u64,
    /// CRC-framed record bytes ([`psc_codec::frame::encode_crc`] format).
    pub bytes: Vec<u8>,
    /// Bytes up to this offset are fsynced (durable under any
    /// [`DiskFault`]).
    pub synced_len: usize,
}

#[derive(Debug, Default, Clone)]
struct WalLog {
    segments: Vec<WalSegment>,
}

impl WalLog {
    fn active(&mut self) -> &mut WalSegment {
        if self.segments.is_empty() {
            self.segments.push(WalSegment { index: 0, bytes: Vec::new(), synced_len: 0 });
        }
        self.segments.last_mut().expect("non-empty")
    }
}

/// A node's crash-surviving key–value store.
#[derive(Debug, Default, Clone)]
pub struct Storage {
    entries: BTreeMap<String, Vec<u8>>,
    /// When present, every mutation is also appended here (in order), for
    /// the owner to drain into write-ahead log records at the end of a
    /// callback. `None` costs nothing.
    journal: Option<Vec<StorageOp>>,
    /// Named write-ahead logs: the durable substrate under the key–value
    /// map. The map is the live read path; under a [`DiskFault`] only what
    /// the logs captured (and fsynced) survives.
    wal: BTreeMap<String, WalLog>,
    /// When present, every WAL mutation is recorded for a file backend to
    /// mirror; see [`Storage::enable_wal_journal`].
    wal_journal: Option<Vec<WalOp>>,
    /// Fault injection; see [`Storage::drop_syncs`].
    drops_syncs: bool,
}

impl Storage {
    /// Creates empty storage.
    pub fn new() -> Self {
        Storage::default()
    }

    /// Starts recording every mutation; see [`Storage::take_journal`].
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Drains the mutations recorded since the last call, in order (empty
    /// when journaling is off).
    pub fn take_journal(&mut self) -> Vec<StorageOp> {
        match self.journal.as_mut() {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    /// Stores raw bytes under `key`, replacing any previous value.
    pub fn put_raw(&mut self, key: impl Into<String>, value: Vec<u8>) {
        let key = key.into();
        if let Some(journal) = self.journal.as_mut() {
            journal.push(StorageOp::Put(key.clone(), value.clone()));
        }
        self.entries.insert(key, value);
    }

    /// Reads raw bytes stored under `key`.
    pub fn get_raw(&self, key: &str) -> Option<&[u8]> {
        self.entries.get(key).map(Vec::as_slice)
    }

    /// Serializes `value` with `psc-codec` and stores it under `key`.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn put<T: Serialize>(&mut self, key: impl Into<String>, value: &T) -> Result<(), CodecError> {
        let bytes = psc_codec::to_bytes(value)?;
        self.put_raw(key, bytes);
        Ok(())
    }

    /// Reads and deserializes the value under `key`; `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Propagates deserialization failures (corrupt entries).
    pub fn get<T: DeserializeOwned>(&self, key: &str) -> Result<Option<T>, CodecError> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(bytes) => Ok(Some(psc_codec::from_bytes(bytes)?)),
        }
    }

    /// Removes the entry under `key`, returning whether it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(StorageOp::Remove(key.to_string()));
        }
        self.entries.remove(key).is_some()
    }

    /// Iterates keys with the given prefix (sorted).
    pub fn keys_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
    }

    /// Clones the `(key, value)` pairs under `prefix` (sorted by key).
    pub fn entries_with_prefix(&self, prefix: &str) -> Vec<(String, Vec<u8>)> {
        self.entries
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total stored bytes (for experiments accounting for log sizes).
    pub fn size_bytes(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// A view of this storage under a key prefix, so independent components
    /// (e.g. one protocol instance per multicast class) share one disk
    /// without key collisions.
    pub fn scoped(&mut self, prefix: impl Into<String>) -> ScopedStorage<'_> {
        ScopedStorage {
            inner: self,
            prefix: prefix.into(),
        }
    }

    // ---- Write-ahead logs -------------------------------------------------

    /// Starts recording WAL mutations; see [`Storage::take_wal_journal`].
    pub fn enable_wal_journal(&mut self) {
        if self.wal_journal.is_none() {
            self.wal_journal = Some(Vec::new());
        }
    }

    /// Drains the WAL mutations recorded since the last call (empty when
    /// WAL journaling is off). A file backend replays these onto segment
    /// files to stay byte-equivalent with the in-memory log.
    pub fn take_wal_journal(&mut self) -> Vec<WalOp> {
        match self.wal_journal.as_mut() {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    /// Appends one CRC-framed record to `log`'s active segment and returns
    /// the framed byte count. The payload is framed with
    /// [`psc_codec::frame::encode_crc`], so recovery can scan segments with
    /// `scan_crc_frames` and stop cleanly at a torn tail.
    pub fn wal_append(&mut self, log: &str, record: &[u8]) -> usize {
        let mut framed = Vec::with_capacity(record.len() + 8);
        psc_codec::frame::encode_crc(record, &mut framed);
        let len = framed.len();
        if let Some(journal) = self.wal_journal.as_mut() {
            journal.push(WalOp::Append { log: log.to_string(), bytes: framed.clone() });
        }
        self.wal.entry(log.to_string()).or_default().active().bytes.extend_from_slice(&framed);
        len
    }

    /// Sync barrier: marks every byte of every segment of `log` durable.
    /// Models `fsync` on the active file (older segments were synced at
    /// rotation time on a real disk; marking them again is idempotent).
    pub fn wal_sync(&mut self, log: &str) {
        if self.drops_syncs {
            return;
        }
        if let Some(journal) = self.wal_journal.as_mut() {
            journal.push(WalOp::Sync { log: log.to_string() });
        }
        if let Some(wal_log) = self.wal.get_mut(log) {
            for segment in &mut wal_log.segments {
                segment.synced_len = segment.bytes.len();
            }
        }
    }

    /// Fault injection, the standing counterpart of [`DiskFault`]: from now
    /// on this disk acknowledges [`Storage::wal_sync`] without performing it
    /// (a write cache that lies about fsync), so nothing appended afterwards
    /// is durable under a disk-fault crash. The node cannot tell; the
    /// harness's durability oracle must. Survives crash and recovery, like
    /// the disk it models.
    pub fn drop_syncs(&mut self) {
        self.drops_syncs = true;
    }

    /// Closes `log`'s active segment and opens a fresh one, returning the
    /// new segment's index.
    pub fn wal_rotate(&mut self, log: &str) -> u64 {
        let wal_log = self.wal.entry(log.to_string()).or_default();
        let index = wal_log.active().index + 1;
        wal_log.segments.push(WalSegment { index, bytes: Vec::new(), synced_len: 0 });
        if let Some(journal) = self.wal_journal.as_mut() {
            journal.push(WalOp::Rotate { log: log.to_string(), index });
        }
        index
    }

    /// Drops every segment of `log` with `index <= upto` (compaction after
    /// a checkpoint record lands in a newer segment).
    pub fn wal_drop_through(&mut self, log: &str, upto: u64) {
        if let Some(journal) = self.wal_journal.as_mut() {
            journal.push(WalOp::DropThrough { log: log.to_string(), upto });
        }
        if let Some(wal_log) = self.wal.get_mut(log) {
            wal_log.segments.retain(|s| s.index > upto);
        }
    }

    /// Names of all write-ahead logs (sorted).
    pub fn wal_logs(&self) -> Vec<String> {
        self.wal.keys().cloned().collect()
    }

    /// The segments of `log` in index order (empty when the log is absent).
    pub fn wal_segments(&self, log: &str) -> &[WalSegment] {
        self.wal.get(log).map(|l| l.segments.as_slice()).unwrap_or(&[])
    }

    /// Installs a segment loaded from an external backend (a real file).
    /// Not journaled — this IS the mirror catching up. Loaded bytes are
    /// marked fully synced: they survived a real restart, so they are
    /// durable by demonstration.
    pub fn wal_load_segment(&mut self, log: &str, index: u64, bytes: Vec<u8>) {
        let synced_len = bytes.len();
        let wal_log = self.wal.entry(log.to_string()).or_default();
        wal_log.segments.push(WalSegment { index, bytes, synced_len });
        wal_log.segments.sort_by_key(|s| s.index);
    }

    /// Simulates power loss: wipes the key–value map (it models in-memory
    /// page cache plus un-checkpointed state — only the WAL is truly on
    /// disk), clears both journals, and damages the WAL per `fault`.
    /// [`DiskFault::None`] leaves everything intact (classic crash).
    pub fn power_loss(&mut self, fault: &DiskFault) {
        if matches!(fault, DiskFault::None) {
            return;
        }
        self.entries.clear();
        if let Some(journal) = self.journal.as_mut() {
            journal.clear();
        }
        if let Some(journal) = self.wal_journal.as_mut() {
            journal.clear();
        }
        match fault {
            DiskFault::None => {}
            DiskFault::LoseUnsynced => {
                for wal_log in self.wal.values_mut() {
                    for segment in &mut wal_log.segments {
                        segment.bytes.truncate(segment.synced_len);
                    }
                    wal_log.segments.retain(|s| !s.bytes.is_empty());
                }
            }
            DiskFault::TornTail { drop_bytes } => {
                for wal_log in self.wal.values_mut() {
                    if let Some(segment) = wal_log.segments.last_mut() {
                        let keep = segment.bytes.len().saturating_sub(*drop_bytes).max(segment.synced_len);
                        segment.bytes.truncate(keep);
                    }
                }
            }
            DiskFault::DropUnsyncedSegments => {
                for wal_log in self.wal.values_mut() {
                    wal_log.segments.retain(|s| s.synced_len > 0);
                }
            }
        }
    }
}

/// A prefixed view of a [`Storage`]; see [`Storage::scoped`].
#[derive(Debug)]
pub struct ScopedStorage<'a> {
    inner: &'a mut Storage,
    prefix: String,
}

impl ScopedStorage<'_> {
    fn full_key(&self, key: &str) -> String {
        format!("{}{}", self.prefix, key)
    }

    /// Stores raw bytes under the scoped `key`.
    pub fn put_raw(&mut self, key: &str, value: Vec<u8>) {
        let full = self.full_key(key);
        self.inner.put_raw(full, value);
    }

    /// Reads raw bytes stored under the scoped `key`.
    pub fn get_raw(&self, key: &str) -> Option<&[u8]> {
        self.inner.get_raw(&self.full_key(key))
    }

    /// Serializes and stores `value` under the scoped `key`.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn put<T: Serialize>(&mut self, key: &str, value: &T) -> Result<(), CodecError> {
        let full = self.full_key(key);
        self.inner.put(full, value)
    }

    /// Reads and deserializes the value under the scoped `key`.
    ///
    /// # Errors
    ///
    /// Propagates deserialization failures.
    pub fn get<T: DeserializeOwned>(&self, key: &str) -> Result<Option<T>, CodecError> {
        self.inner.get(&self.full_key(key))
    }

    /// Removes the scoped entry, returning whether it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        let full = self.full_key(key);
        self.inner.remove(&full)
    }

    /// Scoped keys (with the scope prefix stripped) starting with `prefix`.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let full = self.full_key(prefix);
        self.inner
            .keys_with_prefix(&full)
            .map(|k| k[self.prefix.len()..].to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip() {
        let mut s = Storage::new();
        s.put("seq", &42u64).unwrap();
        assert_eq!(s.get::<u64>("seq").unwrap(), Some(42));
        assert_eq!(s.get::<u64>("missing").unwrap(), None);
    }

    #[test]
    fn corrupt_entry_is_an_error_not_a_panic() {
        let mut s = Storage::new();
        s.put_raw("x", vec![0xff]);
        assert!(s.get::<String>("x").is_err());
    }

    #[test]
    fn prefix_iteration_is_sorted_and_bounded() {
        let mut s = Storage::new();
        s.put_raw("log/2", vec![2]);
        s.put_raw("log/1", vec![1]);
        s.put_raw("meta", vec![0]);
        let keys: Vec<&str> = s.keys_with_prefix("log/").collect();
        assert_eq!(keys, ["log/1", "log/2"]);
    }

    #[test]
    fn journal_records_mutations_in_order_and_drains() {
        let mut s = Storage::new();
        s.enable_journal();
        s.put("seq", &7u64).unwrap();
        s.put_raw("log/1", vec![1]);
        s.remove("log/1");
        s.put_raw("log/2", vec![2]);

        assert_eq!(
            s.take_journal(),
            vec![
                StorageOp::Put("seq".to_string(), psc_codec::to_bytes(&7u64).unwrap()),
                StorageOp::Put("log/1".to_string(), vec![1]),
                StorageOp::Remove("log/1".to_string()),
                StorageOp::Put("log/2".to_string(), vec![2]),
            ]
        );
        assert!(s.take_journal().is_empty());
    }

    #[test]
    fn scoped_mutations_are_journaled_with_full_keys() {
        let mut s = Storage::new();
        s.enable_journal();
        s.scoped("ch/9/").put_raw("state", vec![3]);
        assert_eq!(
            s.take_journal(),
            vec![StorageOp::Put("ch/9/state".to_string(), vec![3])]
        );
        assert_eq!(
            s.entries_with_prefix("ch/"),
            vec![("ch/9/state".to_string(), vec![3])]
        );
    }

    #[test]
    fn remove_and_sizes() {
        let mut s = Storage::new();
        s.put_raw("a", vec![1, 2, 3]);
        assert_eq!(s.size_bytes(), 3);
        assert!(s.remove("a"));
        assert!(!s.remove("a"));
        assert!(s.is_empty());
    }

    fn scan(bytes: &[u8]) -> Vec<Vec<u8>> {
        psc_codec::frame::scan_crc_frames(bytes).0
    }

    #[test]
    fn wal_append_frames_records_recoverably() {
        let mut s = Storage::new();
        let n = s.wal_append("ch/1", b"alpha");
        s.wal_append("ch/1", b"beta");
        assert!(n > 5, "framing adds a header");
        let segments = s.wal_segments("ch/1");
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].index, 0);
        assert_eq!(segments[0].synced_len, 0);
        assert_eq!(scan(&segments[0].bytes), vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(s.wal_logs(), vec!["ch/1".to_string()]);
    }

    #[test]
    fn wal_sync_rotate_and_drop_through() {
        let mut s = Storage::new();
        s.wal_append("node", b"one");
        s.wal_sync("node");
        assert_eq!(s.wal_segments("node")[0].synced_len, s.wal_segments("node")[0].bytes.len());
        assert_eq!(s.wal_rotate("node"), 1);
        s.wal_append("node", b"two");
        assert_eq!(s.wal_rotate("node"), 2);
        s.wal_append("node", b"three");
        assert_eq!(
            s.wal_segments("node").iter().map(|seg| seg.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        s.wal_drop_through("node", 1);
        let segments = s.wal_segments("node");
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].index, 2);
        assert_eq!(scan(&segments[0].bytes), vec![b"three".to_vec()]);
    }

    #[test]
    fn wal_journal_mirrors_every_mutation_in_order() {
        let mut s = Storage::new();
        s.enable_wal_journal();
        s.wal_append("ch/1", b"rec");
        s.wal_sync("ch/1");
        s.wal_rotate("ch/1");
        s.wal_drop_through("ch/1", 0);
        let ops = s.take_wal_journal();
        assert_eq!(ops.len(), 4);
        match &ops[0] {
            WalOp::Append { log, bytes } => {
                assert_eq!(log, "ch/1");
                assert_eq!(scan(bytes), vec![b"rec".to_vec()]);
            }
            other => panic!("expected Append, got {other:?}"),
        }
        assert_eq!(ops[1], WalOp::Sync { log: "ch/1".to_string() });
        assert_eq!(ops[2], WalOp::Rotate { log: "ch/1".to_string(), index: 1 });
        assert_eq!(ops[3], WalOp::DropThrough { log: "ch/1".to_string(), upto: 0 });
        assert!(s.take_wal_journal().is_empty());
    }

    #[test]
    fn wal_load_segment_sorts_and_marks_synced() {
        let mut s = Storage::new();
        s.wal_load_segment("node", 3, vec![1, 2]);
        s.wal_load_segment("node", 1, vec![3]);
        let segments = s.wal_segments("node");
        assert_eq!(segments.iter().map(|seg| seg.index).collect::<Vec<_>>(), vec![1, 3]);
        assert!(segments.iter().all(|seg| seg.synced_len == seg.bytes.len()));
    }

    #[test]
    fn power_loss_none_preserves_everything() {
        let mut s = Storage::new();
        s.put_raw("k", vec![1]);
        s.wal_append("ch/1", b"rec");
        s.power_loss(&DiskFault::None);
        assert_eq!(s.get_raw("k"), Some(&[1u8][..]));
        assert_eq!(s.wal_segments("ch/1").len(), 1);
    }

    #[test]
    fn lose_unsynced_keeps_only_fsynced_bytes() {
        let mut s = Storage::new();
        s.put_raw("k", vec![1]);
        s.wal_append("ch/1", b"durable");
        s.wal_sync("ch/1");
        s.wal_append("ch/1", b"volatile");
        s.wal_rotate("ch/1");
        s.wal_append("ch/1", b"also-volatile");
        s.power_loss(&DiskFault::LoseUnsynced);
        assert_eq!(s.get_raw("k"), None, "kv map is wiped");
        let segments = s.wal_segments("ch/1");
        assert_eq!(segments.len(), 1, "unsynced segment dropped whole");
        assert_eq!(scan(&segments[0].bytes), vec![b"durable".to_vec()]);
    }

    #[test]
    fn a_disk_that_drops_syncs_loses_what_it_acknowledged() {
        let mut s = Storage::new();
        s.wal_append("ch/1", b"durable");
        s.wal_sync("ch/1");
        s.drop_syncs();
        s.wal_append("ch/1", b"acknowledged-only");
        s.wal_sync("ch/1");
        s.power_loss(&DiskFault::LoseUnsynced);
        assert_eq!(scan(&s.wal_segments("ch/1")[0].bytes), vec![b"durable".to_vec()]);
    }

    #[test]
    fn torn_tail_cuts_mid_record_but_never_past_the_sync_barrier() {
        let mut s = Storage::new();
        s.wal_append("ch/1", b"durable");
        s.wal_sync("ch/1");
        let synced = s.wal_segments("ch/1")[0].synced_len;
        s.wal_append("ch/1", b"torn-record");
        s.power_loss(&DiskFault::TornTail { drop_bytes: 3 });
        let segment = &s.wal_segments("ch/1")[0];
        assert!(segment.bytes.len() >= synced);
        assert_eq!(scan(&segment.bytes), vec![b"durable".to_vec()], "torn record unreadable");

        // A huge drop_bytes clamps at the barrier instead of eating fsynced data.
        let mut s2 = Storage::new();
        s2.wal_append("ch/1", b"durable");
        s2.wal_sync("ch/1");
        s2.wal_append("ch/1", b"tail");
        s2.power_loss(&DiskFault::TornTail { drop_bytes: usize::MAX });
        assert_eq!(scan(&s2.wal_segments("ch/1")[0].bytes), vec![b"durable".to_vec()]);
    }

    #[test]
    fn drop_unsynced_segments_loses_whole_files() {
        let mut s = Storage::new();
        s.wal_append("ch/1", b"durable");
        s.wal_sync("ch/1");
        s.wal_rotate("ch/1");
        s.wal_append("ch/1", b"never-synced");
        s.power_loss(&DiskFault::DropUnsyncedSegments);
        let segments = s.wal_segments("ch/1");
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].index, 0);
    }
}
