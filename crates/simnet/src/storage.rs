//! Per-node stable storage.
//!
//! Certified delivery (paper §3.1.2) requires state that outlives process
//! failures: "even if a notifiable temporarily disconnects or fails, it will
//! eventually deliver the obvent". [`Storage`] models each node's disk: a
//! key–value map the simulator preserves across [`crash`]/[`recover`]
//! cycles while the node's in-memory state is discarded. Under a disk fault
//! ([`DiskFault`]) only the write-ahead logs survive: the owner declares
//! which key prefixes are durable ([`Storage::wal_bind`]), every write under
//! one is its own log record, [`Storage::wal_commit`] is the fsync barrier
//! and [`Storage::wal_recover`] rebuilds the map from the segments.
//!
//! [`crash`]: crate::SimNet::crash
//! [`recover`]: crate::SimNet::recover

use std::collections::BTreeMap;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use psc_codec::frame::ScanEnd;
use psc_codec::CodecError;

/// Rotate a log's active segment once it holds this many bytes.
pub const WAL_SEGMENT_BYTES: usize = 16 * 1024;
/// Compact a log once its segments total this many bytes.
const WAL_COMPACT_BYTES: usize = 64 * 1024;

/// One record of a write-ahead log: what a write to a durable key *is* on
/// disk. CRC-framed by [`Storage::wal_append`]; the encoding is the on-disk
/// format, so variants keep their order.
#[derive(Debug, Serialize, Deserialize)]
enum WalRecord {
    /// A key–value write of the log's keyspace.
    Put { key: String, value: Vec<u8> },
    /// A key removal.
    Remove { key: String },
    /// A full snapshot of the log's live keyspace; always the first record
    /// of the oldest retained segment after compaction, so replay can
    /// start from it and apply the records that follow.
    Checkpoint { entries: Vec<(String, Vec<u8>)> },
}

/// What [`Storage::wal_recover`] found on disk.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Records applied to the map.
    pub records: u64,
    /// Segments whose tail was torn (truncated mid-record).
    pub torn: u64,
    /// Segments that failed a CRC plus records that did not decode.
    pub corrupt: u64,
    /// Every log with its `(segments, total bytes)`, in name order.
    pub logs: Vec<(String, (u64, u64))>,
}

/// What one [`Storage::wal_commit`] did (and, while pending inside the
/// storage, what the writes since the last commit have appended).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WalCommit {
    /// Records appended by writes to bound keys.
    pub appends: u64,
    /// Framed bytes of those records.
    pub bytes: u64,
    /// Commit barriers issued, one per touched log (a compaction's own
    /// sync is not counted).
    pub syncs: u64,
    /// Oversized active segments closed.
    pub rotations: u64,
    /// Logs compacted into a checkpoint.
    pub checkpoints: u64,
    /// The touched logs in first-touch order, each with its
    /// `(segments, total bytes)` after the commit.
    pub logs: Vec<(String, (u64, u64))>,
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
    /// Durable key prefixes and the log each writes ahead to; see
    /// [`Storage::wal_bind`].
    wal_bound: BTreeMap<String, String>,
    /// What bound writes have appended since the last
    /// [`Storage::wal_commit`].
    wal_pending: WalCommit,
    /// `(segment, compact)` byte thresholds when a test overrides them.
    wal_limits: Option<(usize, usize)>,
    /// Named write-ahead logs: the durable substrate under the key–value
    /// map. The map is the live read path; under a [`DiskFault`] only what
    /// the logs captured (and fsynced) survives.
    wal: BTreeMap<String, WalLog>,
    /// When present, every WAL mutation is recorded for a file backend to
    /// mirror; see [`Storage::enable_wal_journal`].
    wal_journal: Option<Vec<WalOp>>,
    /// Fault injection; see [`Storage::drop_syncs`].
    drops_syncs: bool,
    /// How many commit barriers have run; see [`Storage::commits`].
    commits: u64,
}

impl Storage {
    /// Creates empty storage.
    pub fn new() -> Self {
        Storage::default()
    }

    /// Stores raw bytes under `key`, replacing any previous value. Under a
    /// bound prefix ([`Storage::wal_bind`]) the write is appended to its
    /// log first.
    pub fn put_raw(&mut self, key: impl Into<String>, value: Vec<u8>) {
        let key = key.into();
        match self.wal_log_of(&key) {
            None => {
                self.entries.insert(key, value);
            }
            Some(log) => {
                let record = WalRecord::Put { key, value };
                self.wal_write_ahead(log, &record);
                self.apply(record);
            }
        }
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
        if let Some(log) = self.wal_log_of(key) {
            self.wal_write_ahead(log, &WalRecord::Remove { key: key.to_string() });
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

    /// Declares every key under `prefix` durable in `log`: from now on a
    /// `put`/`put_raw`/`remove` of such a key (scoped or not) appends one
    /// record to `log` at the moment of the write. Idempotent; bindings
    /// survive crashes like the disk they describe. Unbound keys never
    /// touch a log.
    pub fn wal_bind(&mut self, prefix: &str, log: &str) {
        self.wal_bound.insert(prefix.to_string(), log.to_string());
    }

    /// Test hook: overrides the rotation and compaction thresholds (bytes)
    /// so small workloads cross both.
    #[doc(hidden)]
    pub fn set_wal_limits(&mut self, segment: usize, compact: usize) {
        self.wal_limits = Some((segment, compact));
    }

    fn wal_log_of(&self, key: &str) -> Option<String> {
        self.wal_bound
            .iter()
            .find(|(prefix, _)| key.starts_with(prefix.as_str()))
            .map(|(_, log)| log.clone())
    }

    fn wal_write_ahead(&mut self, log: String, record: &WalRecord) {
        let encoded = psc_codec::to_bytes(record).expect("wal records encode");
        self.wal_pending.bytes += self.wal_append(&log, &encoded) as u64;
        self.wal_pending.appends += 1;
        if !self.wal_pending.logs.iter().any(|(touched, _)| *touched == log) {
            self.wal_pending.logs.push((log, (0, 0)));
        }
    }

    /// Applies a record to the map only (a live write after its append, or
    /// a replayed one that is already in the log).
    fn apply(&mut self, record: WalRecord) {
        match record {
            WalRecord::Put { key, value } => {
                self.entries.insert(key, value);
            }
            WalRecord::Remove { key } => {
                self.entries.remove(&key);
            }
            WalRecord::Checkpoint { entries } => self.entries.extend(entries),
        }
    }

    fn wal_size(&self, log: &str) -> (u64, u64) {
        let segments = self.wal_segments(log);
        (segments.len() as u64, segments.iter().map(|s| s.bytes.len() as u64).sum())
    }

    /// Replays every log into the map — logs in name order, segments in
    /// index order. After a disk-fault crash the map is empty and the
    /// fsynced log suffix is all that survived; after a plain crash the
    /// replay is an idempotent re-put. A torn tail ends its segment's scan,
    /// an undecodable record is counted and skipped. A log whose last
    /// segment ends torn or corrupt is rotated, so later records never land
    /// behind bytes the next scan would stop at.
    pub fn wal_recover(&mut self) -> WalReplay {
        let mut replay = WalReplay::default();
        let logs = std::mem::take(&mut self.wal);
        let mut damaged_tails = Vec::new();
        for (name, log) in &logs {
            let mut tail = ScanEnd::Clean;
            for segment in &log.segments {
                let (frames, end) = psc_codec::frame::scan_crc_frames(&segment.bytes);
                match end {
                    ScanEnd::Clean => {}
                    ScanEnd::Truncated { .. } => replay.torn += 1,
                    ScanEnd::Corrupt { .. } => replay.corrupt += 1,
                }
                tail = end;
                for frame in frames {
                    match psc_codec::from_bytes::<WalRecord>(&frame) {
                        Ok(record) => {
                            replay.records += 1;
                            self.apply(record);
                        }
                        Err(_) => replay.corrupt += 1,
                    }
                }
            }
            if tail != ScanEnd::Clean {
                damaged_tails.push(name.clone());
            }
        }
        self.wal = logs;
        for log in damaged_tails {
            self.wal_rotate(&log);
        }
        replay.logs = self.wal.keys().map(|log| (log.clone(), self.wal_size(log))).collect();
        replay
    }

    /// The commit barrier, run at the end of a callback before any of its
    /// effects externalize: for each log written since the last commit, in
    /// first-touch order, rotates an oversized active segment, syncs, and
    /// compacts past the retention threshold. On a disk that honours its
    /// sync barrier nothing that depends on a log record is observable
    /// before it.
    pub fn wal_commit(&mut self) -> WalCommit {
        self.commits += 1;
        let mut commit = std::mem::take(&mut self.wal_pending);
        let (segment, compact) = self.wal_limits.unwrap_or((WAL_SEGMENT_BYTES, WAL_COMPACT_BYTES));
        for (log, size) in &mut commit.logs {
            if self.wal_segments(log).last().is_some_and(|s| s.bytes.len() >= segment) {
                self.wal_rotate(log);
                commit.rotations += 1;
            }
            self.wal_sync(log);
            commit.syncs += 1;
            if self.wal_size(log).1 >= compact as u64 {
                self.wal_compact(log);
                commit.checkpoints += 1;
            }
            *size = self.wal_size(log);
        }
        commit
    }

    /// Compaction: snapshot the log's bound keyspace into a checkpoint
    /// record at the head of a fresh segment, fsync it (dropping history
    /// against an undurable checkpoint would lose data), then drop the
    /// older segments.
    fn wal_compact(&mut self, log: &str) {
        let entries = self
            .wal_bound
            .iter()
            .filter(|(_, bound)| *bound == log)
            .flat_map(|(prefix, _)| self.entries_with_prefix(prefix))
            .collect();
        let encoded =
            psc_codec::to_bytes(&WalRecord::Checkpoint { entries }).expect("wal records encode");
        let index = self.wal_rotate(log);
        self.wal_append(log, &encoded);
        self.wal_sync(log);
        self.wal_drop_through(log, index - 1);
    }

    /// How many commit barriers ([`Storage::wal_commit`]) have run. A host
    /// commits once, at the end of each callback, and writes that
    /// callback's records before any other callback runs: a record written
    /// while this read `n` is on disk for a callback that reads more.
    pub fn commits(&self) -> u64 {
        self.commits
    }

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
    ///
    /// # Panics
    ///
    /// Panics on an empty `record`: its frame would be eight zero bytes,
    /// which is what a file backend reads as the unwritten end of a
    /// preallocated segment.
    pub fn wal_append(&mut self, log: &str, record: &[u8]) -> usize {
        assert!(!record.is_empty(), "empty wal record for log {log}");
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
    /// disk), forgets the pending commit and the WAL journal (bindings and
    /// limits stay), and damages the WAL per `fault`.
    /// [`DiskFault::None`] leaves everything intact (classic crash).
    pub fn power_loss(&mut self, fault: &DiskFault) {
        if matches!(fault, DiskFault::None) {
            return;
        }
        self.entries.clear();
        self.wal_pending = WalCommit::default();
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

    /// [`Storage::commits`] of the whole store.
    pub fn commits(&self) -> u64 {
        self.inner.commits()
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn a_bound_write_is_one_record_in_its_log_and_nothing_else_is() {
        let mut s = Storage::new();
        s.wal_bind("ch/9/", "ch/9");
        s.wal_bind("park/", "node");
        s.wal_bind("park/", "node"); // idempotent
        s.scoped("ch/9/").put_raw("state", vec![3]);
        s.put("park/1", &7u64).unwrap();
        s.put_raw("ch/8/state", vec![1]);
        s.put_raw("meta", vec![0]);
        s.remove("meta");
        assert_eq!(s.wal_logs(), ["ch/9", "node"]);
        assert_eq!(scan(&s.wal_segments("ch/9")[0].bytes).len(), 1);
        assert_eq!(scan(&s.wal_segments("node")[0].bytes).len(), 1);
        s.remove("ch/9/state");
        assert_eq!(scan(&s.wal_segments("ch/9")[0].bytes).len(), 2);

        let commit = s.wal_commit();
        assert_eq!((commit.appends, commit.syncs), (3, 2));
        assert_eq!(commit.logs.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(), ["ch/9", "node"]);
        assert_eq!(s.wal_commit(), WalCommit::default(), "nothing pending after a commit");

        // Replayed writes go to the map only.
        let before: Vec<WalSegment> = s.wal_segments("node").to_vec();
        s.power_loss(&DiskFault::LoseUnsynced);
        let replay = s.wal_recover();
        assert_eq!((replay.records, replay.torn, replay.corrupt), (3, 0, 0));
        assert_eq!(s.get::<u64>("park/1").unwrap(), Some(7));
        assert_eq!(s.get_raw("ch/9/state"), None);
        assert_eq!(s.len(), 1, "unbound keys died with the map");
        assert_eq!(s.wal_segments("node"), before);
        assert_eq!(s.wal_commit(), WalCommit::default());
    }

    /// The two bound keyspaces of the property tests, with their logs.
    const BOUND: [(&str, &str); 2] = [("a/", "log-a"), ("b/", "log-b")];

    fn bound_storage() -> Storage {
        let mut s = Storage::new();
        for (prefix, log) in BOUND {
            s.wal_bind(prefix, log);
        }
        // Tiny thresholds: a few writes rotate, a few commits compact.
        s.set_wal_limits(96, 320);
        s
    }

    /// One random write to `s`, mirrored into `model` when its key is bound.
    fn random_write(rng: &mut StdRng, s: &mut Storage, model: &mut BTreeMap<String, Vec<u8>>) {
        let prefix = ["a/", "b/", "volatile/"][rng.gen_range(0..3usize)];
        let key = format!("{prefix}{}", rng.gen_range(0..6u8));
        let bound = prefix != "volatile/";
        if rng.gen_bool(0.3) {
            s.remove(&key);
            model.remove(&key);
        } else {
            let value = vec![rng.gen::<u8>(); rng.gen_range(0..24usize)];
            s.put_raw(key.clone(), value.clone());
            if bound {
                model.insert(key, value);
            }
        }
    }

    fn under<'a>(map: &'a BTreeMap<String, Vec<u8>>, prefix: &str) -> Vec<(&'a String, &'a Vec<u8>)> {
        map.iter().filter(|(k, _)| k.starts_with(prefix)).collect()
    }

    #[test]
    fn recovery_yields_the_committed_model_under_every_disk_fault() {
        const FAULTS: usize = 4;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = bound_storage();
            let mut model = BTreeMap::new();
            // Two crash → recover cycles, so records written after a
            // recovery (behind a torn tail, say) face the next fault; the
            // seed picks both faults, covering every pair.
            for cycle in 0..2u32 {
                // The model after the last commit and after every write since.
                let mut since_commit = vec![model.clone()];
                for _ in 0..rng.gen_range(1..120usize) {
                    random_write(&mut rng, &mut s, &mut model);
                    since_commit.push(model.clone());
                    if rng.gen_bool(0.25) {
                        s.wal_commit();
                        since_commit = vec![model.clone()];
                    }
                }
                let fault = match (seed as usize / FAULTS.pow(cycle)) % FAULTS {
                    0 => DiskFault::None,
                    1 => DiskFault::LoseUnsynced,
                    2 => DiskFault::TornTail { drop_bytes: rng.gen_range(0..200usize) },
                    _ => DiskFault::DropUnsyncedSegments,
                };
                let live = s.entries.clone();
                s.power_loss(&fault);
                let replay = s.wal_recover();
                assert_eq!(replay.corrupt, 0, "seed {seed} cycle {cycle}");
                match fault {
                    DiskFault::None => assert_eq!(s.entries, live, "seed {seed} cycle {cycle}"),
                    DiskFault::LoseUnsynced => {
                        assert_eq!(s.entries, since_commit[0], "seed {seed} cycle {cycle}")
                    }
                    // Each log keeps a prefix of its own unsynced writes (a
                    // torn tail cuts each log separately; a never-synced
                    // segment goes whole, a synced one keeps its tail).
                    DiskFault::TornTail { .. } | DiskFault::DropUnsyncedSegments => {
                        assert!(s.entries.keys().all(|k| !k.starts_with("volatile/")), "seed {seed}");
                        for (prefix, log) in BOUND {
                            assert!(
                                since_commit.iter().any(|m| under(m, prefix) == under(&s.entries, prefix)),
                                "seed {seed} cycle {cycle}: {log} recovered to a state it never committed or wrote"
                            );
                        }
                    }
                }
                // What survived the crash is on the platter: durable, and
                // the next cycle's committed model.
                for log in s.wal_logs() {
                    s.wal_sync(&log);
                }
                model = s.entries.clone();
                model.retain(|k, _| !k.starts_with("volatile/"));
            }
        }
    }

    #[test]
    fn records_written_after_recovering_a_torn_tail_survive_the_next_crash() {
        let mut s = Storage::new();
        s.wal_bind("k/", "log");
        s.put_raw("k/a", vec![1]);
        s.wal_commit();
        s.put_raw("k/b", vec![2]);
        s.power_loss(&DiskFault::TornTail { drop_bytes: 3 });
        let replay = s.wal_recover();
        assert_eq!((replay.records, replay.torn, replay.corrupt), (1, 1, 0));
        assert_eq!(s.wal_segments("log").len(), 2, "recovery rotated past the torn tail");
        s.put_raw("k/c", vec![3]);
        s.wal_commit();
        s.power_loss(&DiskFault::LoseUnsynced);
        let replay = s.wal_recover();
        assert_eq!((replay.records, replay.torn, replay.corrupt), (2, 1, 0));
        assert_eq!(s.get_raw("k/a"), Some(&[1u8][..]));
        assert_eq!(s.get_raw("k/b"), None);
        assert_eq!(s.get_raw("k/c"), Some(&[3u8][..]));
        assert_eq!(s.wal_segments("log").len(), 2, "a clean tail is not rotated");
    }

    #[test]
    #[should_panic(expected = "empty wal record")]
    fn an_empty_record_is_refused() {
        Storage::new().wal_append("log", b"");
    }

    #[test]
    fn a_hostile_disk_is_counted_never_trusted_and_never_panics() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = bound_storage();
            let mut model = BTreeMap::new();
            for _ in 0..rng.gen_range(8..60usize) {
                random_write(&mut rng, &mut s, &mut model);
                if rng.gen_bool(0.3) {
                    s.wal_commit();
                }
            }
            s.wal_commit();
            // Reload every segment from "files", one of them damaged.
            let mut files: Vec<(String, u64, Vec<u8>)> = s
                .wal_logs()
                .iter()
                .flat_map(|log| s.wal_segments(log).iter().map(|seg| (log.clone(), seg.index, seg.bytes.clone())))
                .filter(|(_, _, bytes)| !bytes.is_empty())
                .collect();
            let victim = rng.gen_range(0..files.len());
            let bytes = &mut files[victim].2;
            if rng.gen_bool(0.5) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            } else {
                // Cut inside the last frame (its 8-byte header or payload).
                bytes.truncate(bytes.len() - rng.gen_range(1..8usize));
            }
            let mut disk = Storage::new();
            let mut valid: Vec<WalRecord> = Vec::new();
            for (log, index, bytes) in files {
                for frame in scan(&bytes) {
                    valid.extend(psc_codec::from_bytes::<WalRecord>(&frame));
                }
                disk.wal_load_segment(&log, index, bytes);
            }
            let replay = disk.wal_recover();
            assert!(replay.torn + replay.corrupt >= 1, "seed {seed}: damage went unnoticed");
            for (key, value) in &disk.entries {
                let vouched = valid.iter().any(|record| match record {
                    WalRecord::Put { key: k, value: v } => k == key && v == value,
                    WalRecord::Remove { .. } => false,
                    WalRecord::Checkpoint { entries } => entries.iter().any(|(k, v)| k == key && v == value),
                });
                assert!(vouched, "seed {seed}: {key} came from no CRC-valid record");
            }
        }
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
