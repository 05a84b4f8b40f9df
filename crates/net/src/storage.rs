//! Real-file backend for the write-ahead log.
//!
//! Under the simulator, `psc_simnet::Storage` *is* the disk: WAL segments
//! live in memory and [`psc_simnet::DiskFault`] decides what a crash
//! keeps. On a real deployment the same node code runs unchanged — the
//! transport enables the storage's WAL journal and [`FileWal`] mirrors
//! every [`WalOp`] onto segment files, byte for byte:
//!
//! ```text
//! <data-dir>/<log-dir>/<index:08>.wal
//! ```
//!
//! where `<log-dir>` is the log name with `/` replaced by `@` (log names
//! are `node` or `ch/<16-hex-kind>`, so the mapping is invertible). An
//! `Append` carries the exact CRC-framed bytes the in-memory segment
//! received, so a directory written by this backend and a simulated disk
//! fed the same ops hold identical segment bytes — the
//! `file_backend_mirrors_the_simulated_disk_byte_for_byte` property test
//! pins that equivalence. A `Sync` op becomes `File::sync_data`: the
//! node's fsync barrier reaches the real disk with the same granularity
//! the fault injector assumes.
//!
//! On startup [`FileWal::open`] loads every segment file back into a
//! fresh `Storage` (via `wal_load_segment`), which the transport hands to
//! `NodeHost::with_storage` — recovery then runs the node's own WAL
//! replay, identical to a post-crash recovery under the simulator.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use psc_simnet::{Storage, WalOp};

/// File extension of one WAL segment.
const SEGMENT_EXT: &str = "wal";

fn log_dir_name(log: &str) -> String {
    log.replace('/', "@")
}

fn dir_log_name(dir: &str) -> String {
    dir.replace('@', "/")
}

fn segment_path(root: &Path, log: &str, index: u64) -> PathBuf {
    root.join(log_dir_name(log)).join(format!("{index:08}.{SEGMENT_EXT}"))
}

/// Mirrors a node's WAL onto real segment files under a data directory.
pub struct FileWal {
    root: PathBuf,
    /// Per-log active segment: `(index, open handle)`. Appends go here;
    /// `Rotate` replaces it.
    active: HashMap<String, (u64, File)>,
}

impl FileWal {
    /// Opens (or creates) a data directory, loading every existing segment
    /// into a fresh [`Storage`] the node host should be built from. The
    /// returned [`FileWal`] continues each log at its highest on-disk
    /// segment index.
    pub fn open(data_dir: impl Into<PathBuf>) -> io::Result<(Storage, FileWal)> {
        let root = data_dir.into();
        fs::create_dir_all(&root)?;
        let mut storage = Storage::new();
        let mut wal = FileWal { root: root.clone(), active: HashMap::new() };
        for entry in fs::read_dir(&root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let dir_name = entry.file_name();
            let Some(dir_name) = dir_name.to_str() else { continue };
            let log = dir_log_name(dir_name);
            let mut segments: Vec<(u64, PathBuf)> = Vec::new();
            for seg in fs::read_dir(entry.path())? {
                let seg = seg?;
                let name = seg.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(stem) = name.strip_suffix(&format!(".{SEGMENT_EXT}")) else {
                    continue;
                };
                let Ok(index) = stem.parse::<u64>() else { continue };
                segments.push((index, seg.path()));
            }
            segments.sort_by_key(|&(index, _)| index);
            for &(index, ref path) in &segments {
                storage.wal_load_segment(&log, index, fs::read(path)?);
            }
            if let Some(&(index, _)) = segments.last() {
                let file = OpenOptions::new()
                    .append(true)
                    .open(segment_path(&root, &log, index))?;
                wal.active.insert(log, (index, file));
            }
        }
        Ok((storage, wal))
    }

    /// The data directory this backend writes under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn active_file(&mut self, log: &str) -> io::Result<&mut File> {
        if !self.active.contains_key(log) {
            // Mirror of the in-memory log's lazy segment 0.
            self.create_segment(log, 0)?;
        }
        Ok(&mut self.active.get_mut(log).expect("active segment").1)
    }

    fn create_segment(&mut self, log: &str, index: u64) -> io::Result<()> {
        let path = segment_path(&self.root, log, index);
        fs::create_dir_all(path.parent().expect("segment has a parent"))?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.active.insert(log.to_string(), (index, file));
        Ok(())
    }

    /// Replays a batch of journaled WAL mutations onto the files.
    pub fn apply(&mut self, ops: &[WalOp]) -> io::Result<()> {
        for op in ops {
            match op {
                WalOp::Append { log, bytes } => {
                    self.active_file(log)?.write_all(bytes)?;
                }
                WalOp::Sync { log } => {
                    // Syncing a log nothing was ever appended to is a no-op,
                    // matching the in-memory semantics.
                    if let Some((_, file)) = self.active.get_mut(log.as_str()) {
                        file.sync_data()?;
                    }
                }
                WalOp::Rotate { log, index } => {
                    self.create_segment(log, *index)?;
                }
                WalOp::DropThrough { log, upto } => {
                    let dir = self.root.join(log_dir_name(log));
                    if !dir.is_dir() {
                        continue;
                    }
                    for seg in fs::read_dir(&dir)? {
                        let seg = seg?;
                        let name = seg.file_name();
                        let Some(name) = name.to_str() else { continue };
                        let index = name
                            .strip_suffix(&format!(".{SEGMENT_EXT}"))
                            .and_then(|stem| stem.parse::<u64>().ok());
                        if let Some(index) = index {
                            if index <= *upto {
                                fs::remove_file(seg.path())?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("psc-filewal-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn log_dir_mapping_is_invertible() {
        for log in ["node", "ch/00000000000000ab", "ch/ffffffffffffffff"] {
            assert_eq!(dir_log_name(&log_dir_name(log)), log);
        }
    }

    #[test]
    fn reload_continues_the_highest_segment() {
        let root = temp_root("reload");
        {
            let (_, mut wal) = FileWal::open(&root).unwrap();
            wal.apply(&[
                WalOp::Append { log: "node".into(), bytes: vec![1, 2, 3] },
                WalOp::Sync { log: "node".into() },
                WalOp::Rotate { log: "node".into(), index: 1 },
                WalOp::Append { log: "node".into(), bytes: vec![4, 5] },
                WalOp::Sync { log: "node".into() },
            ])
            .unwrap();
        }
        let (storage, mut wal) = FileWal::open(&root).unwrap();
        let segments = storage.wal_segments("node");
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].bytes, vec![1, 2, 3]);
        assert_eq!(segments[1].bytes, vec![4, 5]);
        // New appends land in segment 1, not a fresh segment 0.
        wal.apply(&[
            WalOp::Append { log: "node".into(), bytes: vec![6] },
            WalOp::Sync { log: "node".into() },
        ])
        .unwrap();
        let (storage, _) = FileWal::open(&root).unwrap();
        assert_eq!(storage.wal_segments("node")[1].bytes, vec![4, 5, 6]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn drop_through_removes_old_segment_files() {
        let root = temp_root("drop");
        let (_, mut wal) = FileWal::open(&root).unwrap();
        wal.apply(&[
            WalOp::Append { log: "ch/00000000000000aa".into(), bytes: vec![1] },
            WalOp::Rotate { log: "ch/00000000000000aa".into(), index: 1 },
            WalOp::Append { log: "ch/00000000000000aa".into(), bytes: vec![2] },
            WalOp::Rotate { log: "ch/00000000000000aa".into(), index: 2 },
            WalOp::Append { log: "ch/00000000000000aa".into(), bytes: vec![3] },
            WalOp::Sync { log: "ch/00000000000000aa".into() },
            WalOp::DropThrough { log: "ch/00000000000000aa".into(), upto: 1 },
        ])
        .unwrap();
        let (storage, _) = FileWal::open(&root).unwrap();
        let segments = storage.wal_segments("ch/00000000000000aa");
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].index, 2);
        assert_eq!(segments[0].bytes, vec![3]);
        let _ = fs::remove_dir_all(&root);
    }
}
