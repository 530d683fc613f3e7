//! The durable engine: WAL + memtable + sealed segments + compaction.
//!
//! [`DurableBackend`] is the one storage engine, standing in for the
//! durability DCDB gets from Cassandra (paper §IV-A). Over a real
//! directory or an in-memory disk ([`DurableBackend::in_memory`]) alike,
//! it keeps recent readings in a [`StorageBackend`] *memtable* and adds:
//!
//! * a write-ahead log ([`crate::wal`]): every insert batch is journaled
//!   before it is acknowledged, under a configurable fsync policy — a
//!   group of batches ([`DurableBackend::insert_many_acked`]: one
//!   Collect Agent drain) in one journal write per sync window;
//! * *sealing*: when the memtable exceeds a size threshold (or on
//!   explicit flush) its contents are written as an immutable compressed
//!   segment ([`crate::segment`]) and the WAL generation is retired;
//! * *recovery*: on open, sealed segments are indexed and the WAL tail
//!   is replayed into a fresh memtable — every acknowledged insert
//!   survives a process kill, tolerating a torn final record; corrupt
//!   segments and WALs are quarantined instead of aborting recovery;
//! * *merged reads*: range queries stitch segment blocks and the
//!   memtable's per-sensor columns, deduplicating by timestamp with
//!   newest-generation-wins semantics (identical to overwrite behaviour
//!   of the memtable);
//! * *compaction* and *retention*: once `compact_min_segments` raw
//!   segments exist — or rollup segments of one tier — maintenance
//!   merges them into one, newest generation winning, streaming one
//!   topic at a time and dropping what retention has expired; whole
//!   segments past the retention horizon are retired (see
//!   [`DurableConfig::retention_ns`] for how closely that holds).
//!   Memory therefore follows what is still open — the memtable and
//!   each sensor's open rollup buckets — not how long the engine has
//!   run;
//! * *fault tolerance* ([`crate::health`]): write errors are retried
//!   with bounded exponential backoff, a poisoned WAL (failed fsync) is
//!   rotated to a fresh file that re-journals the memtable, and when the
//!   journal cannot make progress the engine degrades to a bounded
//!   memtable-only write-behind mode while probing for recovery. All
//!   I/O flows through the [`crate::io::StorageIo`] VFS so these paths
//!   are exercised deterministically by `FaultIo`.
//!
//! Directory layout: `wal-<seq>.log` journal generations, `seg-<seq>.seg`
//! sealed raw segments and `rlu-<seq>.rsg` sealed rollup segments (both
//! the one container of [`crate::sealed`]), sharing one monotonic sequence
//! counter; `*.tmp` files are crash leftovers and deleted on open;
//! `quarantine/` collects corrupt files set aside during recovery. Both
//! segment kinds live in a `SealedList` and share one lifecycle:
//! opened or quarantined on recovery, published after a seal, and
//! retired only once no read still holds them.

use crate::backend::StorageBackend;
use crate::health::{HealthConfig, HealthCore, HealthState, StorageHealthReport};
use crate::io::{MemIo, StdIo, StorageIo};
use crate::rollup::{
    bucket_start, write_rollup_segment_with, AggFrame, RollupConfig, RollupSegmentReader,
    RollupState,
};
use crate::sealed::SealedFile;
use crate::segment::{write_segment_with, SegmentReader};
use crate::wal::{replay_with, FsyncPolicy, WalReplay, WalWriter};
use crate::StorageEngine;
use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use parking_lot::{Mutex, RwLock};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tuning knobs for the durable engine.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// WAL fsync policy (durability vs ingest throughput).
    pub fsync: FsyncPolicy,
    /// Seal the memtable into a segment once it holds this many readings.
    pub memtable_max_readings: usize,
    /// Compact once this many sealed segments exist.
    pub compact_min_segments: usize,
    /// Drop raw data older than `now - retention_ns` during
    /// [`DurableBackend::maintain`]: memtable readings below the cutoff
    /// go exactly then, a sealed segment is retired whole once its
    /// newest reading is below it, and compaction cuts expired readings
    /// out of the files it merges. A sealed reading can therefore
    /// outlive the cutoff by up to one merge interval.
    pub retention_ns: Option<u64>,
    /// Health state machine tuning (retry, demotion, probing, buffer).
    pub health: HealthConfig,
    /// Continuous-aggregation rollup tiers maintained at ingest (see
    /// [`crate::rollup`]); `RollupConfig::disabled()` turns them off.
    pub rollup: RollupConfig,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            fsync: FsyncPolicy::EveryN(64),
            memtable_max_readings: 200_000,
            compact_min_segments: 4,
            retention_ns: None,
            health: HealthConfig::default(),
            rollup: RollupConfig::default(),
        }
    }
}

/// What [`DurableBackend::open`] found and restored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sealed segments indexed.
    pub segments: usize,
    /// Readings held by those segments.
    pub segment_readings: usize,
    /// WAL files replayed.
    pub wal_files: usize,
    /// Complete batches recovered from the WALs.
    pub wal_batches: usize,
    /// Readings recovered from the WALs into the memtable.
    pub wal_readings: usize,
    /// WAL files that ended in a torn or corrupt tail (each lost only
    /// its final, never-acknowledged record).
    pub torn_tails: usize,
    /// Bytes discarded at torn/corrupt WAL tails across all files.
    pub wal_bytes_discarded: u64,
    /// Corrupt segments/WALs moved to `quarantine/` instead of aborting
    /// recovery.
    pub quarantined: usize,
}

/// Aggregate counters for footprint reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct StorageStats {
    /// Total readings currently stored.
    pub readings: usize,
    /// Number of sensors with at least one reading.
    pub sensors: usize,
    /// Total inserts performed (including overwrites).
    pub inserts: u64,
    /// Total range queries served.
    pub queries: u64,
}

/// Operational counters beyond [`StorageStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Memtable→segment seals performed.
    pub seals: u64,
    /// Compaction passes performed.
    pub compactions: u64,
    /// Segment block reads that failed checksum or decode (served
    /// degraded from the remaining sources).
    pub read_errors: u64,
    /// Current number of sealed segments.
    pub sealed_segments: usize,
    /// Readings currently in the memtable (approximate; overwrites of
    /// duplicate timestamps are counted as inserts).
    pub memtable_readings: usize,
    /// Failed journal writes/syncs observed.
    pub write_errors: u64,
    /// Append retries performed.
    pub write_retries: u64,
    /// WAL writers poisoned by a failed fsync (or failed rollback).
    pub fsync_poisonings: u64,
    /// WAL rotations performed (poison recovery + ReadOnly probes).
    pub wal_rotations: u64,
    /// Failed memtable→segment seal attempts.
    pub seal_failures: u64,
    /// Final-fsync failures recorded by `Drop`.
    pub drop_sync_errors: u64,
    /// Failed temp/retired-file removals (leaked files on disk).
    pub cleanup_errors: u64,
    /// Corrupt files quarantined on open.
    pub quarantined: u64,
    /// Readings recovered from WALs at open.
    pub wal_recovered_readings: usize,
    /// Bytes discarded at torn/corrupt WAL tails at open.
    pub wal_bytes_discarded: u64,
    /// WAL files whose replay stopped at a torn or corrupt record.
    pub torn_tails: usize,
    /// Rollup segments written (one per tier per seal).
    pub rollup_seals: u64,
    /// Failed rollup segment writes (frames stayed dirty, retried).
    pub rollup_seal_failures: u64,
    /// Current number of sealed rollup segments.
    pub rollup_segments: usize,
    /// Rollup frames currently hot in memory: each sensor's open bucket
    /// per tier plus the frames dirtied since the last rollup seal.
    pub rollup_hot_frames: usize,
    /// Readings folded into frames via the O(1) ascending fast path.
    pub rollup_folds: u64,
    /// Buckets re-aggregated from the raw path (out-of-order or
    /// duplicate timestamps, unknown history).
    pub rollup_recomputes: u64,
}

/// How an insert was acknowledged by [`DurableBackend::insert_many_acked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertAck {
    /// Journaled (and fsynced, per policy): survives a process kill.
    Durable,
    /// Accepted memtable-only under ReadOnly: visible to queries, lost
    /// on crash until a successful probe re-journals the memtable.
    Buffered,
}

struct Active {
    memtable: Arc<StorageBackend>,
    wal: Mutex<WalWriter>,
    wal_path: PathBuf,
}

/// One read's view of every generation holding raw readings; see
/// [`DurableBackend::generations`] for the order it is taken in.
struct Generations {
    active: Arc<StorageBackend>,
    sealing: Option<Arc<StorageBackend>>,
    segments: Arc<Vec<(u64, Arc<SegmentReader>)>>,
}

/// The published sealed files of one kind as `(seq, reader)`, ascending
/// by `seq`; later sequence numbers win key ties during merges. The
/// list is copy-on-write: a read takes one reference to the current
/// version and only then touches blocks, so the lock is never held
/// across I/O, a read costs one reference count however many files are
/// published, and [`DurableBackend::retire`] can tell from a reader's
/// reference count (one per list version still alive) when the file is
/// safe to delete.
type SealedList<R> = RwLock<Arc<Vec<(u64, Arc<R>)>>>;

/// Signature shared by both segment kinds' `open_with`.
type OpenSealed<R> = fn(Arc<dyn StorageIo>, &Path) -> Result<R>;

/// The durable storage engine. See the module docs for the design.
pub struct DurableBackend {
    io: Arc<dyn StorageIo>,
    dir: PathBuf,
    config: DurableConfig,
    active: RwLock<Active>,
    /// Memtable currently being written out as a segment; still visible
    /// to reads so sealing never hides acknowledged data.
    sealing: RwLock<Option<Arc<StorageBackend>>>,
    /// Sealed raw segments.
    segments: SealedList<SegmentReader>,
    /// WAL files (paths) whose contents live in the active memtable and
    /// are deleted once that data is sealed into a segment.
    unsealed_wals: Mutex<Vec<PathBuf>>,
    /// The streaming continuous-aggregation accumulator (hot frames).
    rollup: Mutex<RollupState>,
    /// Sealed rollup segments; hot frames win over every one of them.
    rollup_segments: SealedList<RollupSegmentReader>,
    next_seq: AtomicU64,
    memtable_readings: AtomicUsize,
    /// Serializes seal / compact / retention / WAL-rotation passes.
    seal_lock: Mutex<()>,
    recovery: RecoveryReport,
    health: Arc<HealthCore>,
    inserts: AtomicU64,
    queries: AtomicU64,
    seals: AtomicU64,
    compactions: AtomicU64,
    read_errors: AtomicU64,
    rollup_seals: AtomicU64,
    rollup_seal_failures: AtomicU64,
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Opens every sealed file of one kind, oldest first; one that fails
/// validation goes to `quarantine` instead of aborting recovery.
fn recover_sealed<R>(
    io: &Arc<dyn StorageIo>,
    files: Vec<(u64, PathBuf)>,
    open: OpenSealed<R>,
    mut quarantine: impl FnMut(&Path, &DcdbError),
) -> Vec<(u64, Arc<R>)> {
    let mut list = Vec::with_capacity(files.len());
    for (seq, path) in files {
        match open(Arc::clone(io), &path) {
            Ok(reader) => list.push((seq, Arc::new(reader))),
            Err(err) => quarantine(&path, &err),
        }
    }
    list
}

/// The one newest-generation-wins merge, for readings (keyed by
/// timestamp) and rollup frames (keyed by bucket) alike. Each run is
/// strictly ascending by `key` and runs come oldest generation first;
/// where several hold the same key the last one wins — exactly what a
/// memtable overwrite does. A left fold of [`merge_newer`]: a single
/// run (the usual answer: a window inside one sealed span) comes back
/// as it is.
fn merge_generations<T>(runs: Vec<Vec<T>>, key: impl Fn(&T) -> u64) -> Vec<T> {
    runs.into_iter()
        .fold(Vec::new(), |acc, run| merge_newer(acc, run, &key))
}

/// Merges `newer` into `acc`, `newer` winning equal keys.
fn merge_newer<T>(mut acc: Vec<T>, newer: Vec<T>, key: &impl Fn(&T) -> u64) -> Vec<T> {
    let (Some(last), Some(first)) = (acc.last().map(key), newer.first().map(key)) else {
        // One side is empty: the other is the merge.
        return if acc.is_empty() { newer } else { acc };
    };
    // Steady state each seal covers a newer span: append.
    if last < first {
        acc.extend(newer);
        return acc;
    }
    // Overlap (late data sealed into a newer generation, hot frames
    // shadowing the newest sealed span): two-pointer merge.
    let mut out = Vec::with_capacity(acc.len() + newer.len());
    let mut old = acc.into_iter().peekable();
    let mut new = newer.into_iter().peekable();
    while let (Some(a), Some(b)) = (old.peek().map(key), new.peek().map(key)) {
        if a < b {
            out.extend(old.next());
        } else {
            if a == b {
                old.next();
            }
            out.extend(new.next());
        }
    }
    out.extend(old);
    out.extend(new);
    out
}

/// The newest-generation-wins merge of `files` (oldest first), one topic
/// at a time: each item is one topic's merged run with every key below
/// `keep_from` cut, read only when the writer pulls it. A read error
/// ends the merge with that error.
fn merged_topics<'f, R: AsRef<SealedFile>, T>(
    files: &'f [(u64, Arc<R>)],
    read: impl Fn(&R, &Topic) -> Result<Vec<T>> + 'f,
    key: impl Fn(&T) -> u64 + Copy + 'f,
    keep_from: u64,
) -> impl Iterator<Item = Result<(&'f Topic, Vec<T>)>> + 'f {
    let topics: BTreeSet<&Topic> = files
        .iter()
        .flat_map(|(_, file)| (**file).as_ref().topics())
        .collect();
    topics.into_iter().map(move |topic| {
        let runs = files
            .iter()
            .map(|(_, file)| read(file, topic))
            .collect::<Result<Vec<_>>>()?;
        let mut run = merge_generations(runs, key);
        run.drain(..run.partition_point(|item| key(item) < keep_from));
        Ok((topic, run))
    })
}

impl DurableBackend {
    /// Opens (or initializes) a durable engine rooted at `dir`,
    /// recovering all sealed segments and replaying the WAL tail.
    pub fn open(dir: &Path, config: DurableConfig) -> Result<DurableBackend> {
        DurableBackend::open_with(Arc::new(StdIo), dir, config)
    }

    /// Volatile storage: the engine on a private in-memory disk
    /// ([`MemIo`]), never fsyncing; its data dies with it.
    pub fn in_memory() -> DurableBackend {
        let config = DurableConfig {
            fsync: FsyncPolicy::Never,
            ..DurableConfig::default()
        };
        DurableBackend::open_with(Arc::new(MemIo::default()), Path::new("/"), config)
            .expect("an empty in-memory disk opens")
    }

    /// [`DurableBackend::open`] over an explicit [`StorageIo`] — the VFS
    /// every byte of this engine will flow through.
    pub fn open_with(
        io: Arc<dyn StorageIo>,
        dir: &Path,
        config: DurableConfig,
    ) -> Result<DurableBackend> {
        io.create_dir_all(dir)?;
        let health = Arc::new(HealthCore::new(config.health));
        let quarantine_dir = dir.join("quarantine");
        let mut recovery = RecoveryReport::default();
        // Moves a corrupt file into `quarantine/`; the move (and any
        // failure of the move itself) is counted.
        let mut quarantined = 0usize;
        let mut quarantine = |path: &Path, err: &DcdbError| {
            eprintln!(
                "dcdb-storage: quarantining {} after recovery error: {err}",
                path.display()
            );
            let moved = io.create_dir_all(&quarantine_dir).is_ok()
                && path
                    .file_name()
                    .is_some_and(|name| io.rename(path, &quarantine_dir.join(name)).is_ok());
            if !moved {
                health.note_cleanup_error();
            }
            quarantined += 1;
            health.note_quarantined();
        };

        let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut wal_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut rollup_files: Vec<(u64, PathBuf)> = Vec::new();
        for path in io.list(dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // Crash leftover from an interrupted seal; the data it
                // was written from is still covered by the WALs.
                if io.remove(&path).is_err() {
                    health.note_cleanup_error();
                }
            } else if let Some(seq) = parse_seq(name, "seg-", ".seg") {
                seg_files.push((seq, path));
            } else if let Some(seq) = parse_seq(name, "wal-", ".log") {
                wal_files.push((seq, path));
            } else if let Some(seq) = parse_seq(name, "rlu-", ".rsg") {
                rollup_files.push((seq, path));
            }
        }
        seg_files.sort();
        wal_files.sort();
        rollup_files.sort();

        let max_seq = [&seg_files, &wal_files, &rollup_files]
            .iter()
            .filter_map(|files| files.last())
            .map(|(seq, _)| *seq)
            .max()
            .unwrap_or(0);

        let segments = recover_sealed(&io, seg_files, SegmentReader::open_with, &mut quarantine);
        recovery.segments = segments.len();
        recovery.segment_readings = segments.iter().map(|(_, s)| s.reading_count()).sum();
        let rollup_segments = recover_sealed(
            &io,
            rollup_files,
            RollupSegmentReader::open_with,
            &mut quarantine,
        );

        let memtable = Arc::new(StorageBackend::new());
        let mut unsealed = Vec::new();
        for (_, path) in wal_files {
            let rep: WalReplay = match replay_with(io.as_ref(), &path, |topic, batch| {
                memtable.insert_columns(&topic, &batch);
            }) {
                Ok(rep) => rep,
                Err(err) => {
                    // Replay inserts only fully validated records, so a
                    // mid-file I/O or parse failure cannot have fed the
                    // memtable garbage — set the file aside and move on.
                    quarantine(&path, &err);
                    continue;
                }
            };
            recovery.wal_files += 1;
            recovery.wal_batches += rep.batches;
            recovery.wal_readings += rep.readings;
            recovery.wal_bytes_discarded += rep.discarded_bytes;
            if rep.torn_tail {
                recovery.torn_tails += 1;
            }
            unsealed.push(path);
        }

        recovery.quarantined = quarantined;
        let wal_seq = max_seq + 1;
        let wal_path = dir.join(format!("wal-{wal_seq:010}.log"));
        let wal = WalWriter::create_with(io.as_ref(), &wal_path, config.fsync)?;
        health.note_recovery(
            recovery.wal_readings,
            recovery.wal_bytes_discarded,
            recovery.torn_tails,
        );

        let rollup_state = RollupState::new(&config.rollup);
        let engine = DurableBackend {
            io,
            dir: dir.to_path_buf(),
            config,
            active: RwLock::new(Active {
                memtable,
                wal: Mutex::new(wal),
                wal_path,
            }),
            sealing: RwLock::new(None),
            segments: RwLock::new(Arc::new(segments)),
            unsealed_wals: Mutex::new(unsealed),
            rollup: Mutex::new(rollup_state),
            rollup_segments: RwLock::new(Arc::new(rollup_segments)),
            next_seq: AtomicU64::new(wal_seq + 1),
            memtable_readings: AtomicUsize::new(recovery.wal_readings),
            seal_lock: Mutex::new(()),
            recovery,
            health,
            inserts: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            seals: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            rollup_seals: AtomicU64::new(0),
            rollup_seal_failures: AtomicU64::new(0),
        };
        engine.rebuild_rollups();
        Ok(engine)
    }

    /// Rebuilds hot rollup frames for every bucket the recovered
    /// memtable touches, from the engine's *merged* raw truth — this is
    /// the rebuild-from-WAL-replay invariant: rollup durability rides
    /// on the raw WAL, so frames covering replayed data (including
    /// buckets straddling a raw segment boundary) are re-aggregated
    /// instead of trusted from possibly-stale rollup segments. The
    /// rebuilt in-memory frames override sealed frames at query time.
    fn rebuild_rollups(&self) {
        if self.config.rollup.tiers.is_empty() {
            return;
        }
        let max_width = self
            .config
            .rollup
            .tiers
            .iter()
            .map(|t| t.width_ns)
            .max()
            .unwrap_or(0)
            .max(1);
        let memtable = Arc::clone(&self.active.read().memtable);
        for topic in memtable.topics() {
            let Some(oldest) = memtable.oldest_ts(&topic) else {
                continue;
            };
            let Some(latest) = memtable.latest(&topic) else {
                continue;
            };
            let start = bucket_start(oldest.as_nanos(), max_width);
            let readings = self.query_merged(&topic, Timestamp(start), latest.ts);
            self.rollup.lock().rebuild_topic(&topic, &readings);
        }
    }

    /// What `open` recovered from disk.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The engine's data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared health core — stays readable after the engine drops,
    /// so observers can see the final `drop_sync_errors`.
    pub fn health_handle(&self) -> Arc<HealthCore> {
        Arc::clone(&self.health)
    }

    /// Point-in-time health report.
    pub fn health_report(&self) -> StorageHealthReport {
        self.health.report()
    }

    /// Removes a file through the VFS, counting (instead of swallowing)
    /// failures so leaked files are observable.
    fn remove_file_counted(&self, path: &Path) {
        if self.io.remove(path).is_err() {
            self.health.note_cleanup_error();
        }
    }

    /// Opens the sealed file `written` reports complete and publishes
    /// its reader at the tail of `list` — always before the caller
    /// retires what the file replaces, so a read snapshotting in between
    /// finds the data in at least one of the two. On failure nothing is
    /// published and the temp file is removed.
    fn publish<R>(
        &self,
        list: &SealedList<R>,
        seq: u64,
        path: &Path,
        written: Result<()>,
        open: OpenSealed<R>,
    ) -> Result<()> {
        match written.and_then(|()| open(Arc::clone(&self.io), path)) {
            Ok(reader) => {
                Arc::make_mut(&mut list.write()).push((seq, Arc::new(reader)));
                Ok(())
            }
            Err(err) => {
                self.remove_file_counted(&path.with_extension("tmp"));
                Err(err)
            }
        }
    }

    /// Unpublishes every entry of `list` that `gone` selects, then
    /// deletes each one's file once no in-flight read still holds its
    /// reader: a read snapshots the list and then reads blocks by path,
    /// so removing the file under it would turn the data it holds into
    /// a read error. The published list was the only source of clones,
    /// so a count that reaches one (this function's) stays there — and
    /// a caller still holding a snapshot of `list` would wait forever.
    fn retire<R: AsRef<SealedFile>>(
        &self,
        list: &SealedList<R>,
        mut gone: impl FnMut(u64, &R) -> bool,
    ) {
        let mut retired = Vec::new();
        Arc::make_mut(&mut list.write()).retain(|(seq, reader)| {
            let keep = !gone(*seq, reader);
            if !keep {
                retired.push(Arc::clone(reader));
            }
            keep
        });
        for reader in retired {
            while Arc::strong_count(&reader) > 1 {
                std::thread::yield_now();
            }
            self.remove_file_counted((*reader).as_ref().path());
        }
    }

    /// Inserts one columnar batch: the one-entry case of
    /// [`DurableBackend::insert_many_acked`].
    pub fn insert_columns_acked(&self, topic: &Topic, batch: &ReadingBatch) -> Result<InsertAck> {
        self.insert_many_acked(&[(topic, batch)])
            .pop()
            .map_or(Ok(InsertAck::Durable), |(_, ack)| ack)
    }

    /// Inserts a group of columnar batches in order, journaled before
    /// acknowledgement, and lists the index ranges that were *not*
    /// acknowledged [`InsertAck::Durable`]: accepted memtable-only into
    /// the bounded write-behind buffer under ReadOnly
    /// ([`InsertAck::Buffered`]), or refused with the error that
    /// refused them. Every entry outside those ranges is in the WAL
    /// file (and fsynced, under `FsyncPolicy::Always`) when this
    /// returns — it will survive a process kill — and the list is empty
    /// and unallocated when that is all of them.
    ///
    /// The group is journaled in *chunks*: a chunk is the longest run
    /// of entries that crosses neither the journal's next sync point
    /// nor the seal threshold and names no sensor twice, and costs one
    /// lock pair and one journal write. The first two bounds put sync
    /// requests and seals exactly where inserting the entries one by
    /// one puts them. The third keeps the rollup fold's view of the
    /// memtable the one-by-one view: a recompute reads the sensor's raw
    /// readings back, and must not find a later entry's there. The
    /// columns flow straight into the journal records and the memtable
    /// — no row transpose on the hot path. A chunk whose write fails is
    /// retried with bounded exponential backoff and a poisoned WAL
    /// triggers rotation; a chunk that stays refused is refused whole,
    /// and none of it reaches the memtable.
    pub fn insert_many_acked<T, B>(
        &self,
        group: &[(T, B)],
    ) -> Vec<(Range<usize>, Result<InsertAck>)>
    where
        T: Borrow<Topic>,
        B: Borrow<ReadingBatch>,
    {
        let hc = self.config.health;
        let mut exceptions = Vec::new();
        let mut seen = HashSet::new();
        let mut pairs = Vec::new();
        let mut start = 0usize;
        let mut attempt = 0u32;
        while start < group.len() {
            if group[start].1.borrow().is_empty() {
                start += 1;
                continue;
            }
            if self.health.state() == HealthState::ReadOnly {
                self.buffer_entries(group, start, &mut exceptions);
                break;
            }
            // The append and the memtable inserts happen under one
            // `active` guard per attempt, so a concurrent seal can never
            // retire the WAL generation that covers this chunk.
            let (end, outcome) = {
                let active = self.active.read();
                let mut wal = active.wal.lock();
                let end = self.chunk_end(group, start, wal.sync_room(), &mut seen);
                let outcome = match wal.append_group(&group[start..end]) {
                    Ok(journaled) => {
                        let mut readings = 0usize;
                        for (topic, batch) in &group[start..start + journaled] {
                            active
                                .memtable
                                .insert_columns(topic.borrow(), batch.borrow());
                            readings += batch.borrow().len();
                        }
                        self.memtable_readings
                            .fetch_add(readings, Ordering::Relaxed);
                        Ok((journaled, readings))
                    }
                    Err(err) => Err((err, wal.poisoned())),
                };
                (end, outcome)
            };
            match outcome {
                Ok((journaled, readings)) => {
                    self.health.record_write_success();
                    self.health.note_ingested(readings);
                    self.health.note_durable(readings);
                    self.inserts.fetch_add(readings as u64, Ordering::Relaxed);
                    // Feed the rollup tiers only after the chunk is in
                    // the memtable and every lock is released: a
                    // recompute re-enters the merged query path, which
                    // takes the `active` read lock itself.
                    self.rollup_apply(&group[start..start + journaled], &mut pairs);
                    start += journaled;
                    attempt = 0;
                    if self.memtable_readings.load(Ordering::Relaxed)
                        >= self.config.memtable_max_readings
                    {
                        // The chunk is already acknowledged durable; a
                        // failed seal is a maintenance problem (counted,
                        // retried next pass), not an insert failure.
                        let _ = self.seal();
                    }
                }
                Err((err, poisoned)) => {
                    let state = self.health.record_write_error();
                    if poisoned {
                        self.health.note_fsync_poisoning();
                        // Only a fresh journal covering the memtable can
                        // restore durability after a failed fsync.
                        let _ = self.rotate_wal();
                    }
                    if state == HealthState::ReadOnly {
                        self.buffer_entries(group, start, &mut exceptions);
                        break;
                    }
                    if attempt >= hc.max_retries {
                        let readings = group[start..end]
                            .iter()
                            .map(|(_, batch)| batch.borrow().len())
                            .sum();
                        self.health.note_ingested(readings);
                        self.health.note_shed(readings);
                        exceptions.push((start..end, Err(err)));
                        start = end;
                        attempt = 0;
                        continue;
                    }
                    attempt += 1;
                    self.health.note_retry();
                    let backoff_ms = hc
                        .retry_backoff_base_ms
                        .saturating_mul(1 << (attempt - 1).min(16));
                    if backoff_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                    }
                }
            }
        }
        exceptions
    }

    /// End of the chunk of `group` that starts at the non-empty entry
    /// `start`, given `room` records before the journal's next sync
    /// point (see [`DurableBackend::insert_many_acked`]). An empty
    /// batch ends the chunk before it: it is never journaled.
    fn chunk_end<'g, T, B>(
        &self,
        group: &'g [(T, B)],
        start: usize,
        room: usize,
        seen: &mut HashSet<&'g Topic>,
    ) -> usize
    where
        T: Borrow<Topic>,
        B: Borrow<ReadingBatch>,
    {
        // A group of one has no second entry to repeat its sensor.
        let repeats_possible = group.len() > 1;
        seen.clear();
        let mut filling = self.memtable_readings.load(Ordering::Relaxed);
        let mut end = start;
        while end < group.len() && end - start < room {
            let (topic, batch) = &group[end];
            let batch: &ReadingBatch = batch.borrow();
            if batch.is_empty() || (repeats_possible && !seen.insert(topic.borrow())) {
                break;
            }
            end += 1;
            filling += batch.len();
            if filling >= self.config.memtable_max_readings {
                break;
            }
        }
        end
    }

    /// Streams just-inserted batches into the rollup accumulator under
    /// one lock, each through `pairs`. The raw closure answers from the
    /// merged read path, so recomputed frames always equal the
    /// deduplicated raw truth.
    fn rollup_apply<T, B>(&self, entries: &[(T, B)], pairs: &mut Vec<(u64, i64)>)
    where
        T: Borrow<Topic>,
        B: Borrow<ReadingBatch>,
    {
        if self.config.rollup.tiers.is_empty() {
            return;
        }
        let mut rollup = self.rollup.lock();
        for (topic, batch) in entries {
            let (topic, batch): (&Topic, &ReadingBatch) = (topic.borrow(), batch.borrow());
            pairs.clear();
            pairs.extend(batch.ts.iter().copied().zip(batch.values.iter().copied()));
            rollup.apply(topic, pairs, |t0, t1| {
                self.query_merged(topic, Timestamp(t0), Timestamp(t1))
            });
        }
    }

    /// Accepts `group[start..]` memtable-only under ReadOnly, entry by
    /// entry as far as `health.buffer_max_readings` allows; an entry
    /// past the bound is shed with an error.
    fn buffer_entries<T, B>(
        &self,
        group: &[(T, B)],
        start: usize,
        exceptions: &mut Vec<(Range<usize>, Result<InsertAck>)>,
    ) where
        T: Borrow<Topic>,
        B: Borrow<ReadingBatch>,
    {
        let mut pairs = Vec::new();
        for (i, entry) in group.iter().enumerate().skip(start) {
            let (topic, batch): (&Topic, &ReadingBatch) = (entry.0.borrow(), entry.1.borrow());
            let len = batch.len();
            if len == 0 {
                continue;
            }
            self.health.note_ingested(len);
            if !self.health.try_note_buffered(len) {
                let full = "storage is read-only and the write-behind buffer is full";
                exceptions.push((i..i + 1, Err(DcdbError::InvalidState(full.into()))));
                continue;
            }
            let active = self.active.read();
            active.memtable.insert_columns(topic, batch);
            self.memtable_readings.fetch_add(len, Ordering::Relaxed);
            drop(active);
            self.rollup_apply(std::slice::from_ref(entry), &mut pairs);
            self.inserts.fetch_add(len as u64, Ordering::Relaxed);
            exceptions.push((i..i + 1, Ok(InsertAck::Buffered)));
        }
    }

    /// Rotates to a fresh WAL file that re-journals the entire active
    /// memtable, then retires every previous journal generation. This is
    /// the recovery move for a poisoned WAL and the ReadOnly probe: on
    /// success everything the memtable holds — including write-behind
    /// buffered readings — is durable again.
    fn rotate_wal(&self) -> Result<()> {
        let _guard = self.seal_lock.lock();
        let wal_seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let new_path = self.dir.join(format!("wal-{wal_seq:010}.log"));
        let mut new_wal = WalWriter::create_with(self.io.as_ref(), &new_path, self.config.fsync)?;
        // Hold the write guard across dump + swap: no insert may slip
        // into the old (about-to-be-retired) journal after the dump.
        let mut active = self.active.write();
        let dumped = (|| -> Result<()> {
            for topic in active.memtable.topics() {
                let batch = active.memtable.columns(&topic);
                if !batch.is_empty() {
                    new_wal.append_batch(&topic, &batch)?;
                }
            }
            new_wal.sync()
        })();
        if let Err(err) = dumped {
            drop(active);
            self.remove_file_counted(&new_path);
            return Err(err);
        }
        let old_wal = std::mem::replace(&mut active.wal_path, new_path);
        *active.wal.lock() = new_wal;
        drop(active);
        // The fresh journal covers the whole memtable, so every older
        // generation (including replayed pre-crash WALs) is redundant.
        let mut retired: Vec<PathBuf> = std::mem::take(&mut *self.unsealed_wals.lock());
        retired.push(old_wal);
        for path in retired {
            self.remove_file_counted(&path);
        }
        self.health.note_wal_rotation();
        self.health.drain_buffered();
        Ok(())
    }

    /// Range query merging sealed segments, the sealing memtable (if a
    /// seal is in flight) and the active memtable. Duplicate timestamps
    /// resolve newest-generation-wins, matching memtable overwrites.
    pub fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.query_merged(topic, t0, t1)
    }

    /// Snapshots every generation a read must consult, in the reverse
    /// of [`DurableBackend::seal`]'s publication order. A seal moves data
    /// active memtable → `sealing` → `segments` (or, when it fails,
    /// folds `sealing` back into the active memtable before clearing the
    /// slot), publishing each destination before retiring its source;
    /// reading source before destination — and querying the snapshots
    /// only after all three are taken — therefore finds every
    /// acknowledged reading in at least one of them, however a seal
    /// interleaves. Brief double visibility is harmless: merges dedupe
    /// by timestamp.
    fn generations(&self) -> Generations {
        let active = Arc::clone(&self.active.read().memtable);
        let sealing = self.sealing.read().clone();
        let segments = self.segments.read().clone();
        Generations {
            active,
            sealing,
            segments,
        }
    }

    /// [`DurableBackend::query`] without the query-counter bump — the
    /// internal read path shared with rollup recomputes, which must see
    /// exactly the same deduplicated merged truth as external queries.
    fn query_merged(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        if t1 < t0 {
            return Vec::new();
        }
        let gens = self.generations();
        if gens.segments.is_empty() && gens.sealing.is_none() {
            // Fast path: everything lives in the active memtable.
            return gens.active.query(topic, t0, t1);
        }
        let mut runs = Vec::with_capacity(gens.segments.len() + 2);
        for (_, seg) in gens.segments.iter() {
            match seg.query(topic, t0, t1) {
                Ok(readings) => runs.push(readings),
                Err(_) => {
                    self.read_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        runs.extend(gens.sealing.map(|mem| mem.query(topic, t0, t1)));
        runs.push(gens.active.query(topic, t0, t1));
        merge_generations(runs, |r| r.ts.as_nanos())
    }

    /// Seals the current memtable into an immutable segment and retires
    /// the covered WAL generations. Returns the readings sealed (0 when
    /// the memtable was empty).
    pub fn seal(&self) -> Result<usize> {
        let _guard = self.seal_lock.lock();
        if self.memtable_readings.load(Ordering::Relaxed) == 0 {
            return Ok(0);
        }
        let seg_seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let wal_seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let new_wal_path = self.dir.join(format!("wal-{wal_seq:010}.log"));
        let new_wal =
            match WalWriter::create_with(self.io.as_ref(), &new_wal_path, self.config.fsync) {
                Ok(w) => w,
                Err(err) => {
                    self.health.note_seal_failure();
                    return Err(err);
                }
            };
        let fresh = Arc::new(StorageBackend::new());

        // Publish the outgoing memtable to the `sealing` slot *before*
        // swapping it out, so reads never lose sight of it (brief double
        // visibility is harmless — merges dedupe by timestamp).
        let old = {
            let active = self.active.read();
            *self.sealing.write() = Some(Arc::clone(&active.memtable));
            drop(active);
            let mut active = self.active.write();
            let old = std::mem::replace(
                &mut *active,
                Active {
                    memtable: fresh,
                    wal: Mutex::new(new_wal),
                    wal_path: new_wal_path,
                },
            );
            self.memtable_readings.store(0, Ordering::Relaxed);
            old
        };

        // Written topic by topic: each topic's columns are copied out of
        // the outgoing memtable only while its block is encoded.
        let mut topics = old.memtable.topics();
        topics.sort();
        let sealed = old.memtable.readings();
        let seg_path = self.dir.join(format!("seg-{seg_seq:010}.seg"));
        let columns = topics.iter().map(|t| Ok((t, old.memtable.columns(t))));
        let written = write_segment_with(self.io.as_ref(), &seg_path, columns);
        match self.publish(
            &self.segments,
            seg_seq,
            &seg_path,
            written,
            SegmentReader::open_with,
        ) {
            Ok(()) => {
                *self.sealing.write() = None;
                // The sealed data is durable in the segment; retire the
                // WAL generations that covered it. Any write-behind
                // buffered readings just became durable too.
                self.health.drain_buffered();
                let mut retired: Vec<PathBuf> = std::mem::take(&mut *self.unsealed_wals.lock());
                retired.push(old.wal_path);
                for path in retired {
                    self.remove_file_counted(&path);
                }
                self.seals.fetch_add(1, Ordering::Relaxed);
                // With the raw data durable in a segment, persist the
                // dirty rollup frames too. A failed rollup seal keeps
                // the frames dirty (retried next seal) and degrades the
                // planner to raw for any bucket it cannot cover —
                // correctness never depends on rollup durability.
                self.seal_rollups();
                Ok(sealed)
            }
            Err(e) => {
                // Seal failed (e.g. disk full): fold the outgoing
                // memtable, still visible in the `sealing` slot, back
                // into the active one. Its WAL files stay on disk, so
                // crash recovery still covers every acknowledged insert;
                // the next seal retries.
                {
                    let active = self.active.read();
                    for topic in &topics {
                        active
                            .memtable
                            .insert_columns(topic, &old.memtable.columns(topic));
                    }
                    self.memtable_readings.fetch_add(sealed, Ordering::Relaxed);
                }
                *self.sealing.write() = None;
                self.unsealed_wals.lock().push(old.wal_path);
                self.health.note_seal_failure();
                Err(e)
            }
        }
    }

    /// Writes every dirty rollup frame into one rollup segment per
    /// tier, then lets go of every frame but each topic's open bucket.
    /// Called with `seal_lock` held.
    fn seal_rollups(&self) {
        let mut roll = self.rollup.lock();
        for spec in roll.tier_specs() {
            let entries = roll.collect_dirty(spec.width_ns);
            if entries.is_empty() {
                continue;
            }
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let path = self.dir.join(format!("rlu-{seq:010}.rsg"));
            let dirty = entries.iter().map(|(topic, frames)| Ok((topic, frames)));
            let written = write_rollup_segment_with(self.io.as_ref(), &path, spec.width_ns, dirty);
            let open = RollupSegmentReader::open_with;
            match self.publish(&self.rollup_segments, seq, &path, written, open) {
                Ok(()) => {
                    roll.mark_sealed(spec.width_ns);
                    self.rollup_seals.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.rollup_seal_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Applies per-tier rollup retention: drops hot frames and whole
    /// rollup segments entirely below each tier's cutoff.
    fn evict_rollups(&self, now: Timestamp) {
        for spec in self.config.rollup.tiers.clone() {
            let Some(retention) = spec.retention_ns else {
                continue;
            };
            let cutoff = now.saturating_sub_ns(retention).as_nanos();
            self.rollup.lock().evict_before(spec.width_ns, cutoff);
            self.retire(&self.rollup_segments, |_, seg| {
                seg.width_ns() == spec.width_ns
                    && seg
                        .max_bucket()
                        .is_some_and(|max_b| max_b + spec.width_ns <= cutoff)
            });
        }
    }

    /// Merges the sealed segments into one once at least
    /// `compact_min_segments` exist, and likewise each rollup tier's
    /// segments. Returns true if a pass merged anything.
    pub fn compact(&self) -> Result<bool> {
        self.compact_at(None)
    }

    /// [`DurableBackend::compact`], dropping from the merged files what
    /// retention at `now` has expired: raw readings older than the raw
    /// cutoff, and frames ending at or before their tier's cutoff.
    /// Without the cut a merged file always reaches recent data, and
    /// retention, which retires whole files, would never retire it.
    fn compact_at(&self, now: Option<Timestamp>) -> Result<bool> {
        let _guard = self.seal_lock.lock();
        let cutoff = |retention: Option<u64>| {
            now.zip(retention)
                .map_or(0, |(now, r)| now.saturating_sub_ns(r).as_nanos())
        };
        let mut merged = false;
        let passes = (|| {
            let keep_from = cutoff(self.config.retention_ns);
            let kind = ("seg", "seg", SegmentReader::open_with as OpenSealed<_>);
            merged |= self.merge_files(&self.segments, &|_| true, kind, |path, files| {
                let read = |seg: &SegmentReader, topic: &Topic| {
                    Ok(seg
                        .read_topic(topic)?
                        .map_or_else(Vec::new, |b| b.to_readings()))
                };
                let runs = merged_topics(files, read, |r| r.ts.as_nanos(), keep_from);
                let batches = runs.map(|run| run.map(|(t, run)| (t, ReadingBatch::from_iter(run))));
                write_segment_with(self.io.as_ref(), path, batches)
            })?;
            for spec in &self.config.rollup.tiers {
                let width = spec.width_ns;
                let keep_from = cutoff(spec.retention_ns).saturating_sub(width - 1);
                let tier = |seg: &RollupSegmentReader| seg.width_ns() == width;
                let kind = (
                    "rlu",
                    "rsg",
                    RollupSegmentReader::open_with as OpenSealed<_>,
                );
                merged |= self.merge_files(&self.rollup_segments, &tier, kind, |path, files| {
                    let read = RollupSegmentReader::read_topic;
                    let runs = merged_topics(files, read, |f| f.bucket_ns, keep_from);
                    write_rollup_segment_with(self.io.as_ref(), path, width, runs)
                })?;
            }
            Ok(())
        })();
        if merged {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        passes.map(|()| merged)
    }

    /// Merges the published files of `list` that `pick` selects into one
    /// file that `write` streams from them, once `compact_min_segments`
    /// of them exist, then retires them. Called with `seal_lock` held,
    /// so every selected file published before the merged one is exactly
    /// what was merged.
    fn merge_files<R: AsRef<SealedFile>>(
        &self,
        list: &SealedList<R>,
        pick: &dyn Fn(&R) -> bool,
        (prefix, ext, open): (&str, &str, OpenSealed<R>),
        write: impl FnOnce(&Path, &[(u64, Arc<R>)]) -> Result<()>,
    ) -> Result<bool> {
        let old: Vec<(u64, Arc<R>)> = list
            .read()
            .iter()
            .filter(|(_, file)| pick(file))
            .cloned()
            .collect();
        if old.len() < self.config.compact_min_segments.max(2) {
            return Ok(false);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("{prefix}-{seq:010}.{ext}"));
        let written = write(&path, &old);
        // `retire` waits for every other holder of the old readers.
        drop(old);
        self.publish(list, seq, &path, written, open)?;
        self.retire(list, |s, file| s < seq && pick(file));
        Ok(true)
    }

    /// Engine-specific counters.
    pub fn engine_stats(&self) -> EngineStats {
        let h = self.health.report();
        let roll = self.rollup.lock().stats();
        EngineStats {
            seals: self.seals.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            sealed_segments: self.segments.read().len(),
            memtable_readings: self.memtable_readings.load(Ordering::Relaxed),
            write_errors: h.write_errors,
            write_retries: h.write_retries,
            fsync_poisonings: h.fsync_poisonings,
            wal_rotations: h.wal_rotations,
            seal_failures: h.seal_failures,
            drop_sync_errors: h.drop_sync_errors,
            cleanup_errors: h.cleanup_errors,
            quarantined: h.quarantined,
            wal_recovered_readings: self.recovery.wal_readings,
            wal_bytes_discarded: self.recovery.wal_bytes_discarded,
            torn_tails: self.recovery.torn_tails,
            rollup_seals: self.rollup_seals.load(Ordering::Relaxed),
            rollup_seal_failures: self.rollup_seal_failures.load(Ordering::Relaxed),
            rollup_segments: self.rollup_segments.read().len(),
            rollup_hot_frames: roll.hot_frames,
            rollup_folds: roll.folds,
            rollup_recomputes: roll.recomputes,
        }
    }
}

impl Drop for DurableBackend {
    fn drop(&mut self) {
        // Best-effort: make acknowledged-but-unsynced appends durable —
        // and make it *visible* when that fails, because it means
        // acknowledged data may not have reached the platter.
        let active = self.active.read();
        let result = active.wal.lock().sync();
        drop(active);
        if let Err(err) = result {
            self.health.note_drop_sync_error();
            eprintln!(
                "dcdb-storage: final WAL fsync failed while dropping engine at {}: {err}",
                self.dir.display()
            );
        }
    }
}

impl std::fmt::Debug for DurableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let e = self.engine_stats();
        f.debug_struct("DurableBackend")
            .field("dir", &self.dir)
            .field("state", &self.health.state().as_str())
            .field("segments", &e.sealed_segments)
            .field("memtable_readings", &e.memtable_readings)
            .field("seals", &e.seals)
            .field("compactions", &e.compactions)
            .finish()
    }
}

impl StorageEngine for DurableBackend {
    fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
        self.insert_columns_acked(topic, batch).map(|_| ())
    }

    fn insert_many(&self, group: &[(Topic, ReadingBatch)]) -> Vec<usize> {
        let refused = |(range, ack): (Range<usize>, Result<InsertAck>)| ack.err().map(|_| range);
        self.insert_many_acked(group)
            .into_iter()
            .filter_map(refused)
            .flatten()
            .collect()
    }

    fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        DurableBackend::query(self, topic, t0, t1)
    }

    /// The newest reading of `topic` across all generations.
    ///
    /// Checks the memtables first and then walks sealed segments newest
    /// first, pruning on the per-topic index `block_max_ts`: in
    /// steady-state (mostly time-ordered data) the newest reading is in
    /// the active memtable and no block is decoded at all. Overwrite
    /// ties resolve exactly as the merged read path does — active
    /// memtable over sealing over newer segment over older — because
    /// every earlier-authority source only wins with a strictly newer
    /// timestamp.
    fn latest(&self, topic: &Topic) -> Option<SensorReading> {
        let gens = self.generations();
        let mut best: Option<SensorReading> = gens.active.latest(topic);
        if let Some(mem) = &gens.sealing {
            if let Some(r) = mem.latest(topic) {
                if best.is_none_or(|b| r.ts > b.ts) {
                    best = Some(r);
                }
            }
        }
        for (_, seg) in gens.segments.iter().rev() {
            let worth_reading = match (seg.block_max_ts(topic), &best) {
                (Some(mts), Some(b)) => mts > b.ts,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if worth_reading {
                match seg.read_topic(topic) {
                    Ok(block) => {
                        let last = block.and_then(|b| b.get(b.len().checked_sub(1)?));
                        if last.is_some_and(|l| best.is_none_or(|b| l.ts > b.ts)) {
                            best = last;
                        }
                    }
                    Err(_) => {
                        self.read_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        best
    }

    /// Timestamp of the oldest stored reading of `topic`, from the
    /// segment indexes and memtables — no block reads.
    fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
        let mut best: Option<Timestamp> = None;
        let mut consider = |ts: Option<Timestamp>| {
            if let Some(ts) = ts {
                best = Some(best.map_or(ts, |b| b.min(ts)));
            }
        };
        let gens = self.generations();
        for (_, seg) in gens.segments.iter() {
            consider(seg.block_min_ts(topic));
        }
        if let Some(mem) = &gens.sealing {
            consider(mem.oldest_ts(topic));
        }
        consider(gens.active.oldest_ts(topic));
        best
    }

    /// True when any generation holds data for `topic`.
    fn contains(&self, topic: &Topic) -> bool {
        let gens = self.generations();
        gens.active.contains(topic)
            || gens.sealing.is_some_and(|m| m.contains(topic))
            || gens.segments.iter().any(|(_, s)| s.contains(topic))
    }

    /// All topics with data in any generation, unordered.
    fn topics(&self) -> Vec<Topic> {
        let gens = self.generations();
        let mut set: BTreeSet<Topic> = gens.active.topics().into_iter().collect();
        if let Some(mem) = &gens.sealing {
            set.extend(mem.topics());
        }
        for (_, seg) in gens.segments.iter() {
            set.extend(seg.topics().cloned());
        }
        set.into_iter().collect()
    }

    /// Evicts data older than `cutoff`: every memtable reading below it
    /// ([`StorageBackend::evict_before`]) plus each sealed segment whose
    /// newest reading is below it. A segment straddling the cutoff stays
    /// whole until compaction merges it ([`DurableConfig::retention_ns`]).
    /// Returns readings evicted.
    fn evict_before(&self, cutoff: Timestamp) -> usize {
        let _guard = self.seal_lock.lock();
        let mut evicted = self.active.read().memtable.evict_before(cutoff);
        self.retire(&self.segments, |_, seg| {
            let below = seg.max_ts().is_some_and(|max_ts| max_ts < cutoff);
            if below {
                evicted += seg.reading_count();
            }
            below
        });
        evicted
    }

    /// `readings` can double-count a timestamp that exists both in a
    /// segment and the memtable (pre-compaction); queries deduplicate.
    fn stats(&self) -> StorageStats {
        let mem_readings = self.active.read().memtable.readings();
        let seg_readings: usize = self
            .segments
            .read()
            .iter()
            .map(|(_, s)| s.reading_count())
            .sum();
        StorageStats {
            readings: mem_readings + seg_readings,
            sensors: self.topics().len(),
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
        }
    }

    /// Seals outstanding memtable data and fsyncs the WAL — call before
    /// a graceful shutdown.
    fn flush(&self) -> Result<()> {
        self.seal()?;
        self.active.read().wal.lock().sync()
    }

    /// One maintenance pass: advance the health clock, probe for
    /// recovery under ReadOnly when the backoff admits it, and (when the
    /// journal is usable) seal, apply retention and compact.
    fn maintain(&self, now: Timestamp) -> Result<()> {
        if self.health.attempt_due(now) && self.health.state() == HealthState::ReadOnly {
            // The probe: a fresh WAL that re-journals the memtable.
            self.health.record_probe(self.rotate_wal().is_ok());
        }
        if self.health.state() == HealthState::ReadOnly {
            // The disk is refusing writes; sealing or compacting now
            // would only churn against it.
            return Ok(());
        }
        if self.memtable_readings.load(Ordering::Relaxed) >= self.config.memtable_max_readings {
            self.seal()?;
        }
        // Retire whole expired files first, so the merge reads only
        // files that still hold a live reading or frame.
        if let Some(retention) = self.config.retention_ns {
            self.evict_before(now.saturating_sub_ns(retention));
        }
        self.evict_rollups(now);
        self.compact_at(Some(now)).map(drop)
    }

    fn health(&self) -> Option<StorageHealthReport> {
        Some(self.health.report())
    }

    fn rollup_tiers(&self) -> Vec<u64> {
        self.config
            .rollup
            .tiers
            .iter()
            .map(|t| t.width_ns)
            .collect()
    }

    /// Aggregate frames of the `width_ns` rollup tier whose buckets
    /// overlap `[t0, t1]`, ascending by bucket. Sealed rollup segments
    /// merge in sequence order and hot in-memory frames win every tie,
    /// so a stale sealed frame (written before late data arrived) is
    /// always shadowed by its recomputed successor.
    fn query_frames(
        &self,
        topic: &Topic,
        width_ns: u64,
        t0: Timestamp,
        t1: Timestamp,
    ) -> Vec<AggFrame> {
        if t1 < t0 {
            return Vec::new();
        }
        // A rollup seal publishes its segment before evicting the clean
        // hot frames it covers, so — as in `generations` — read the
        // source (hot) before the destination (segments).
        let hot = self
            .rollup
            .lock()
            .query_hot(topic, width_ns, t0.as_nanos(), t1.as_nanos());
        // Gather per-source ascending runs in authority order: segments
        // by sequence, hot frames last (so later runs win bucket ties).
        let mut runs: Vec<Vec<AggFrame>> = Vec::new();
        let segments = self.rollup_segments.read().clone();
        for (_, seg) in segments.iter() {
            if seg.width_ns() != width_ns {
                continue;
            }
            match seg.query(topic, t0.as_nanos(), t1.as_nanos()) {
                Ok(frames) => runs.push(frames),
                Err(_) => {
                    self.read_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        runs.push(hot);
        merge_generations(runs, |f| f.bucket_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultConfig, FaultIo};
    use dcdb_common::time::NS_PER_SEC;
    use std::collections::BTreeMap;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(name: &str) -> TempDir {
            let mut p = std::env::temp_dir();
            p.push(format!("dcdb-engine-test-{}-{name}", std::process::id()));
            std::fs::remove_dir_all(&p).ok();
            TempDir(p)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn small_config() -> DurableConfig {
        DurableConfig {
            fsync: FsyncPolicy::Never,
            memtable_max_readings: 100,
            compact_min_segments: 3,
            retention_ns: None,
            health: HealthConfig {
                retry_backoff_base_ms: 0,
                ..HealthConfig::default()
            },
            rollup: RollupConfig::default(),
        }
    }

    #[test]
    fn insert_query_without_seal() {
        let dir = TempDir::new("basic");
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        db.insert_batch(&t("/n0/power"), &[r(1, 1), r(2, 2), r(3, 3)])
            .unwrap();
        let q = db.query(&t("/n0/power"), Timestamp::from_secs(2), Timestamp::MAX);
        assert_eq!(q.iter().map(|x| x.value).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(db.latest(&t("/n0/power")).unwrap().value, 3);
        assert!(db.contains(&t("/n0/power")));
        assert!(!db.contains(&t("/nope")));
    }

    #[test]
    fn recovery_from_wal_only() {
        let dir = TempDir::new("wal-recovery");
        {
            let db = DurableBackend::open(dir.path(), small_config()).unwrap();
            for i in 1..=50u64 {
                db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
            }
            // No flush: drop re-syncs but data stays only in the WAL.
        }
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        let rep = db.recovery();
        assert_eq!(rep.wal_readings, 50);
        assert_eq!(rep.segments, 0);
        assert_eq!(rep.torn_tails, 0);
        assert_eq!(rep.quarantined, 0);
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 50);
    }

    #[test]
    fn columnar_inserts_are_journaled_and_recovered() {
        let dir = TempDir::new("columnar-recovery");
        {
            let db = DurableBackend::open(dir.path(), small_config()).unwrap();
            let batch: ReadingBatch = (1..=40u64).map(|i| r(i as i64, i)).collect();
            assert_eq!(
                db.insert_columns_acked(&t("/n0/power"), &batch).unwrap(),
                InsertAck::Durable
            );
            db.insert_batch(&t("/n0/power"), &[r(41, 41), r(42, 42)])
                .unwrap();
            db.insert_columns(
                &t("/n1/temp"),
                &ReadingBatch::from_columns(vec![7], vec![-3]),
            )
            .unwrap();
            let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
            assert_eq!(q.len(), 42);
        }
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        let rep = db.recovery();
        assert_eq!(rep.wal_readings, 43);
        assert_eq!(rep.torn_tails, 0);
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 42);
        assert!(q.windows(2).all(|w| w[0].ts < w[1].ts));
        assert_eq!(db.latest(&t("/n1/temp")).unwrap().value, -3);
    }

    #[test]
    fn seal_moves_data_to_segments_and_retires_wals() {
        let dir = TempDir::new("seal");
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        for i in 1..=120u64 {
            db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
        }
        // Threshold of 100 crossed → at least one automatic seal.
        let e = db.engine_stats();
        assert!(e.seals >= 1, "{e:?}");
        assert!(e.sealed_segments >= 1);
        // All data still queryable across generations.
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 120);
        assert_eq!(
            q.iter().map(|x| x.value).sum::<i64>(),
            (1..=120).sum::<i64>()
        );
        // WAL generations covered by the segment were deleted.
        let wals = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .count();
        assert_eq!(wals, 1, "only the active WAL should remain");
    }

    #[test]
    fn recovery_from_segments_and_wal() {
        let dir = TempDir::new("mixed-recovery");
        {
            let db = DurableBackend::open(dir.path(), small_config()).unwrap();
            for i in 1..=250u64 {
                db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
            }
            for i in 1..=30u64 {
                db.insert(&t("/n1/temp"), r(-(i as i64), i)).unwrap();
            }
        }
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        let rep = db.recovery();
        assert!(rep.segments >= 2, "{rep:?}");
        assert!(rep.wal_readings > 0, "{rep:?}");
        assert_eq!(rep.segment_readings + rep.wal_readings, 280);
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 250);
        let q = db.query(&t("/n1/temp"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 30);
        assert_eq!(db.latest(&t("/n0/power")).unwrap().value, 250);
    }

    #[test]
    fn segment_readings_are_byte_identical() {
        let dir = TempDir::new("identical");
        let readings: Vec<SensorReading> = (0..500)
            .map(|i| SensorReading::new(i64::MAX - i as i64 * 7, Timestamp(1_000_000 + i * 333)))
            .collect();
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        db.insert_batch(&t("/n0/exact"), &readings).unwrap();
        db.flush().unwrap();
        assert!(db.engine_stats().sealed_segments >= 1);
        let q = db.query(&t("/n0/exact"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q, readings);
    }

    #[test]
    fn merge_generations_matches_a_last_writer_wins_map() {
        // Random run counts, overlaps, duplicates across runs and empty
        // runs: the fold must equal inserting every run, oldest first,
        // into an ordered map.
        let mut state = 0x5EED_3E26_2026_0928u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..2000 {
            let span = 1 + next() % 64;
            let mut runs: Vec<Vec<(u64, u64)>> = Vec::new();
            for run_no in 0..next() % 7 {
                // Either anywhere in the key space or past the previous
                // run (the append path), each run strictly ascending.
                let mut k = match (next() % 3, runs.last().and_then(|r| r.last())) {
                    (0, Some(last)) => last.0 + next() % 2,
                    _ => next() % span,
                };
                let mut run = Vec::new();
                for _ in 0..next() % 12 {
                    run.push((k, run_no));
                    k += 1 + next() % 4;
                }
                runs.push(run);
            }
            let mut reference = BTreeMap::new();
            for run in &runs {
                reference.extend(run.iter().copied());
            }
            let want: Vec<(u64, u64)> = reference.into_iter().collect();
            let got = merge_generations(runs.clone(), |e| e.0);
            assert_eq!(got, want, "case {case}: {runs:?}");
        }
    }

    #[test]
    fn merge_prefers_newest_generation_on_duplicate_ts() {
        let dir = TempDir::new("dup-ts");
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        db.insert(&t("/n0/s"), r(1, 10)).unwrap();
        db.flush().unwrap(); // sealed: value 1 @ ts 10
        db.insert(&t("/n0/s"), r(2, 10)).unwrap(); // memtable overwrite
        let q = db.query(&t("/n0/s"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].value, 2);
        assert_eq!(db.latest(&t("/n0/s")).unwrap().value, 2);
        // Seal the overwrite too: later segment wins.
        db.flush().unwrap();
        let q = db.query(&t("/n0/s"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].value, 2);
    }

    #[test]
    fn compaction_merges_segments() {
        let dir = TempDir::new("compact");
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        for round in 0..4u64 {
            for i in 0..50u64 {
                let ts = round * 50 + i + 1;
                db.insert(&t("/n0/power"), r(ts as i64, ts)).unwrap();
            }
            db.seal().unwrap();
        }
        assert_eq!(db.engine_stats().sealed_segments, 4);
        assert!(db.compact().unwrap());
        let e = db.engine_stats();
        assert_eq!(e.sealed_segments, 1);
        assert_eq!(e.compactions, 1);
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 200);
        assert!(q.windows(2).all(|w| w[0].ts < w[1].ts));
        // Old segment files are gone from disk.
        let segs = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .count();
        assert_eq!(segs, 1);
    }

    #[test]
    fn eviction_drops_old_segments_and_the_memtable_prefix() {
        let dir = TempDir::new("evict");
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        for i in 0..100u64 {
            db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
        }
        db.seal().unwrap(); // segment spans [0, 99]
        for i in 100..140u64 {
            db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
        }
        // Cutoff above the sealed segment's max: segment dropped whole,
        // and the memtable's readings below the cutoff exactly.
        let evicted = db.evict_before(Timestamp::from_secs(120));
        assert_eq!(evicted, 120);
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.first().map(|x| x.ts), Some(Timestamp::from_secs(120)));
        assert_eq!(q.len(), 20);
        assert_eq!(db.engine_stats().sealed_segments, 0);
    }

    #[test]
    fn maintain_applies_retention() {
        let dir = TempDir::new("retention");
        let config = DurableConfig {
            retention_ns: Some(50 * 1_000_000_000),
            ..small_config()
        };
        let db = DurableBackend::open(dir.path(), config).unwrap();
        for i in 0..100u64 {
            db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
        }
        db.seal().unwrap();
        db.maintain(Timestamp::from_secs(200)).unwrap();
        // Everything is older than 200s - 50s = 150s.
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert!(q.is_empty(), "{} readings survive", q.len());
    }

    #[test]
    fn retention_holds_once_compaction_has_run() {
        // 1 Hz for 5 000 s with 1 000 s retention, maintained every 10 s:
        // a merge every other seal always reaches recent data, so only
        // the merge itself can drop what has expired. A sealed segment
        // straddling the cutoff stays whole until the next merge, so a
        // reading may outlive the cutoff by one merge interval: the
        // merged file plus `compact_min_segments - 1` seals of 100 s.
        let dir = TempDir::new("retention-after-compaction");
        let config = DurableConfig {
            retention_ns: Some(1_000 * NS_PER_SEC),
            ..small_config()
        };
        let slack = (config.compact_min_segments - 1) * config.memtable_max_readings;
        let db = DurableBackend::open(dir.path(), config).unwrap();
        let topic = t("/n0/power");
        for i in 1..=5_000u64 {
            db.insert(&topic, r(i as i64, i)).unwrap();
            if i % 10 == 0 {
                db.maintain(Timestamp::from_secs(i)).unwrap();
                let kept = db.query(&topic, Timestamp::ZERO, Timestamp::MAX);
                let floor = i.saturating_sub(1_000 + slack as u64);
                assert!(
                    kept[0].ts >= Timestamp::from_secs(floor),
                    "at {i} s the oldest reading is {:?}, {} kept",
                    kept[0].ts,
                    kept.len()
                );
            }
        }
        assert!(db.engine_stats().compactions >= 2);
    }

    #[test]
    fn rollup_compaction_keeps_the_newest_version_of_every_bucket() {
        // A seal every 100 s rewrites the open 5 min bucket into each
        // rollup file, and late overwrites recompute buckets whose frames
        // already left memory: every tier must still equal the raw
        // truth while compaction keeps merging its files, and after a
        // reopen.
        let dir = TempDir::new("rollup-compaction");
        let config = small_config();
        let widths: Vec<u64> = config.rollup.tiers.iter().map(|t| t.width_ns).collect();
        let files_max = widths.len() * config.compact_min_segments;
        let db = DurableBackend::open(dir.path(), config.clone()).unwrap();
        let topic = t("/n0/power");
        let check = |db: &DurableBackend, at: u64| {
            let raw = db.query(&topic, Timestamp::ZERO, Timestamp::MAX);
            for &width in &widths {
                let frames = db.query_frames(&topic, width, Timestamp::ZERO, Timestamp::MAX);
                let want = AggFrame::from_readings(width, &raw);
                assert_eq!(frames, want, "{width} ns tier at {at} s");
            }
        };
        for i in 1..=2_000u64 {
            db.insert(&topic, r(i as i64 * 3, i)).unwrap();
            if i % 150 == 0 {
                db.insert(&topic, r(-1, i - 120)).unwrap();
            }
            if i % 10 == 0 {
                db.maintain(Timestamp::from_secs(i)).unwrap();
                assert!(db.engine_stats().rollup_segments < files_max);
            }
            if i % 100 == 0 {
                check(&db, i);
            }
        }
        assert!(db.engine_stats().compactions >= 3);
        drop(db);
        check(&DurableBackend::open(dir.path(), config).unwrap(), 2_000);
    }

    #[test]
    fn concurrent_ingest_with_seals() {
        let dir = TempDir::new("concurrent");
        let db = Arc::new(DurableBackend::open(dir.path(), small_config()).unwrap());
        let mut handles = vec![];
        for n in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let topic = t(&format!("/n{n}/s"));
                for i in 1..=500u64 {
                    db.insert(&topic, r(i as i64, i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for n in 0..4 {
            let q = db.query(&t(&format!("/n{n}/s")), Timestamp::ZERO, Timestamp::MAX);
            assert_eq!(q.len(), 500, "topic /n{n}/s");
        }
        assert!(db.engine_stats().seals >= 1);
    }

    #[test]
    fn reads_during_continuous_seals_never_miss_acked_data() {
        // One writer seals on every other insert (and compacts now and
        // then); readers race it. A reading acknowledged before a query
        // starts must be in the result, whichever of memtable, sealing
        // slot or segment holds it while the query runs.
        const WRITES: u64 = 1500;
        let dir = TempDir::new("read-during-seal");
        let config = DurableConfig {
            memtable_max_readings: 2,
            rollup: RollupConfig::disabled(),
            ..small_config()
        };
        let db = DurableBackend::open(dir.path(), config).unwrap();
        let topic = t("/n0/power");
        let acked = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    loop {
                        let floor = acked.load(Ordering::SeqCst);
                        let got = db.query(&topic, Timestamp::ZERO, Timestamp::MAX).len();
                        assert!(got >= floor, "query saw {got} of {floor} acked readings");
                        assert!(db.contains(&topic) || floor == 0);
                        let newest = db.latest(&topic).map_or(0, |r| r.value as usize);
                        assert!(newest >= floor, "latest saw {newest}, {floor} acked");
                        if floor as u64 == WRITES {
                            break;
                        }
                    }
                });
            }
            start.wait();
            for i in 1..=WRITES {
                db.insert(&topic, r(i as i64, i)).unwrap();
                acked.store(i as usize, Ordering::SeqCst);
                if i % 16 == 0 {
                    db.compact().unwrap();
                }
            }
        });
        assert!(db.engine_stats().seals >= WRITES / 2 - 1);
    }

    #[test]
    fn tier_reads_during_rollup_seals_and_eviction_never_fail() {
        // The tier-read twin of the test above: every other insert
        // seals a rollup segment, maintenance keeps retiring segments
        // past the retention horizon, and readers race both. One
        // reading per second into a 1 s tier, so every acknowledged
        // second inside the retained window owns exactly one frame.
        const WRITES: u64 = 1200;
        const RETAIN_S: u64 = 300;
        let tier = crate::rollup::TierSpec {
            width_ns: NS_PER_SEC,
            retention_ns: Some(RETAIN_S * NS_PER_SEC),
        };
        let dir = TempDir::new("tier-read-during-seal");
        let config = DurableConfig {
            memtable_max_readings: 2,
            rollup: RollupConfig { tiers: vec![tier] },
            ..small_config()
        };
        let db = DurableBackend::open(dir.path(), config).unwrap();
        let topic = t("/n0/power");
        let acked = AtomicU64::new(0);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    loop {
                        let floor = acked.load(Ordering::SeqCst);
                        let until = Timestamp::from_secs(floor);
                        let frames = db.query_frames(&topic, NS_PER_SEC, Timestamp::ZERO, until);
                        // No eviction so far used a `now` past the
                        // insert in flight, so nothing from here on
                        // can have been retired.
                        let kept_from = (acked.load(Ordering::SeqCst) + 1).saturating_sub(RETAIN_S);
                        let want = (kept_from.max(1)..=floor).count();
                        let got = frames
                            .iter()
                            .filter(|f| f.bucket_ns >= kept_from * NS_PER_SEC)
                            .inspect(|f| assert_eq!(f.count, 1, "{f:?}"))
                            .count();
                        assert_eq!(got, want, "frames in [{kept_from}, {floor}] s");
                        if floor == WRITES {
                            break;
                        }
                    }
                });
            }
            start.wait();
            for i in 1..=WRITES {
                db.insert(&topic, r(i as i64, i)).unwrap();
                acked.store(i, Ordering::SeqCst);
                if i % 8 == 0 {
                    db.maintain(Timestamp::from_secs(i)).unwrap();
                }
            }
        });
        let e = db.engine_stats();
        assert_eq!(e.read_errors, 0, "{e:?}");
        assert!(e.rollup_seals >= WRITES / 2 - 1, "{e:?}");
        assert!((e.rollup_segments as u64) < e.rollup_seals / 2, "{e:?}");
    }

    #[test]
    fn retired_file_outlives_the_read_that_holds_it() {
        // Rollup blocks are pinned once decoded, so the stress test
        // above rarely meets a deleted file; hold a read's snapshot
        // open by hand across the retirement instead.
        let dir = TempDir::new("retire-waits");
        let config = DurableConfig {
            rollup: RollupConfig {
                tiers: vec![crate::rollup::TierSpec {
                    width_ns: NS_PER_SEC,
                    retention_ns: Some(NS_PER_SEC),
                }],
            },
            ..small_config()
        };
        let db = DurableBackend::open(dir.path(), config).unwrap();
        db.insert(&t("/n0/power"), r(7, 1)).unwrap();
        db.flush().unwrap();
        let held = db.rollup_segments.read().clone();
        let path = AsRef::<SealedFile>::as_ref(&*held[0].1)
            .path()
            .to_path_buf();
        std::thread::scope(|scope| {
            let evictor = scope.spawn(|| db.maintain(Timestamp::from_secs(1000)));
            while !db.rollup_segments.read().is_empty() {
                std::thread::yield_now();
            }
            // Unpublished, but this snapshot's first block read still
            // finds the file.
            let frames = held[0].1.query(&t("/n0/power"), 0, u64::MAX).unwrap();
            assert_eq!(frames.len(), 1);
            assert!(path.exists());
            drop(held);
            evictor.join().unwrap().unwrap();
        });
        assert!(!path.exists());
        assert_eq!(db.engine_stats().read_errors, 0);
    }

    #[test]
    fn stats_and_debug_cover_generations() {
        let dir = TempDir::new("stats");
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        db.insert_batch(&t("/a/x"), &[r(1, 1), r(2, 2)]).unwrap();
        db.seal().unwrap();
        db.insert(&t("/b/y"), r(3, 3)).unwrap();
        let s = db.stats();
        assert_eq!(s.readings, 3);
        assert_eq!(s.sensors, 2);
        assert_eq!(s.inserts, 3);
        let dbg = format!("{db:?}");
        assert!(dbg.contains("DurableBackend"));
        let mut topics = db.topics();
        topics.sort();
        assert_eq!(topics, vec![t("/a/x"), t("/b/y")]);
    }

    #[test]
    fn fsync_poisoning_rotates_wal_and_keeps_acked_data() {
        let dir = TempDir::new("poison-rotate");
        let io = FaultIo::new(
            Arc::new(StdIo),
            FaultConfig::quiet(21),
            dcdb_common::Clock::new(),
        );
        let config = DurableConfig {
            fsync: FsyncPolicy::Always,
            ..small_config()
        };
        let db = DurableBackend::open_with(Arc::new(io.clone()), dir.path(), config).unwrap();
        for i in 1..=20u64 {
            db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
        }
        // One failing fsync: the append errors, the writer poisons, the
        // engine rotates and the retry succeeds.
        let mut cfg = FaultConfig::quiet(21);
        cfg.fsync_fail_prob = 1.0;
        io.set_config(cfg);
        assert!(db.insert(&t("/n0/power"), r(21, 21)).is_err());
        io.clear_faults();
        db.insert(&t("/n0/power"), r(21, 21)).unwrap();
        let e = db.engine_stats();
        assert!(e.fsync_poisonings >= 1, "{e:?}");
        assert!(e.wal_rotations >= 1, "{e:?}");
        drop(db);
        // Everything acknowledged survives the restart.
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 21);
        let h = db.health_report();
        assert!(h.conserved(), "{h:?}");
    }

    #[test]
    fn corrupt_segment_is_quarantined_not_fatal() {
        let dir = TempDir::new("quarantine");
        {
            let db = DurableBackend::open(dir.path(), small_config()).unwrap();
            for i in 1..=100u64 {
                db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
            }
            db.flush().unwrap();
            for i in 101..=150u64 {
                db.insert(&t("/n0/power"), r(i as i64, i)).unwrap();
            }
        }
        // Corrupt the first sealed segment's trailer.
        let seg = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.to_string_lossy().contains("seg-"))
            .unwrap();
        let mut data = std::fs::read(&seg).unwrap();
        let n = data.len();
        data[n - 4] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();

        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        let rep = db.recovery();
        assert_eq!(rep.quarantined, 1, "{rep:?}");
        assert!(dir.path().join("quarantine").is_dir());
        // The WAL tail still recovered; the engine is usable.
        let q = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.len(), 50, "WAL-covered readings survive");
        db.insert(&t("/n0/power"), r(151, 151)).unwrap();
    }

    #[test]
    fn drop_sync_error_is_recorded_and_observable() {
        let dir = TempDir::new("drop-sync");
        let io = FaultIo::new(
            Arc::new(StdIo),
            FaultConfig::quiet(33),
            dcdb_common::Clock::new(),
        );
        let db =
            DurableBackend::open_with(Arc::new(io.clone()), dir.path(), small_config()).unwrap();
        db.insert(&t("/n0/power"), r(1, 1)).unwrap();
        let health = db.health_handle();
        let mut cfg = FaultConfig::quiet(33);
        cfg.fsync_fail_prob = 1.0;
        io.set_config(cfg);
        drop(db);
        assert_eq!(health.drop_sync_errors(), 1);
    }

    #[test]
    fn readonly_buffers_then_sheds_then_heals() {
        let dir = TempDir::new("readonly");
        let io = FaultIo::new(
            Arc::new(StdIo),
            FaultConfig::quiet(55),
            dcdb_common::Clock::new(),
        );
        let config = DurableConfig {
            fsync: FsyncPolicy::Always,
            health: HealthConfig {
                retry_backoff_base_ms: 0,
                max_retries: 1,
                readonly_after: 3,
                buffer_max_readings: 5,
            },
            ..small_config()
        };
        let db = DurableBackend::open_with(Arc::new(io.clone()), dir.path(), config).unwrap();
        db.insert(&t("/a/b"), r(1, 1)).unwrap();
        // Break every write: the engine degrades to ReadOnly.
        let mut cfg = FaultConfig::quiet(55);
        cfg.eio_prob = 1.0;
        cfg.fsync_fail_prob = 1.0;
        io.set_config(cfg);
        for i in 2..=10u64 {
            let _ = db.insert(&t("/a/b"), r(i as i64, i));
            if db.health_report().state == HealthState::ReadOnly {
                break;
            }
        }
        assert_eq!(db.health_report().state, HealthState::ReadOnly);
        // The transition itself may have buffered the in-flight insert.
        let before = db.health_report();
        let baseline = before.buffered as usize;
        // Buffered writes are visible to queries but capped at 5 total.
        for i in 100..110u64 {
            let _ = db.insert(&t("/a/b"), r(i as i64, i));
        }
        let h = db.health_report();
        assert_eq!(h.buffered, 5, "{h:?}");
        assert!(h.shed > before.shed, "{h:?}");
        assert!(h.conserved(), "{h:?}");
        assert_eq!(
            db.query(&t("/a/b"), Timestamp::from_secs(100), Timestamp::MAX)
                .len(),
            5 - baseline
        );
        // Faults clear → the next due probe rotates the WAL, drains the
        // buffer into durability and heals straight to Healthy.
        io.clear_faults();
        db.maintain(Timestamp::from_secs(1000)).unwrap();
        let h = db.health_report();
        assert_eq!(h.state, HealthState::Healthy, "{h:?}");
        assert_eq!((h.buffered, h.probes), (0, 1), "{h:?}");
        assert!(h.conserved(), "{h:?}");
        db.insert(&t("/a/b"), r(200, 200)).unwrap();
        // The drained buffer really is durable now.
        drop(db);
        let db = DurableBackend::open(dir.path(), small_config()).unwrap();
        let q = db.query(
            &t("/a/b"),
            Timestamp::from_secs(100),
            Timestamp::from_secs(109),
        );
        assert_eq!(
            q.len(),
            5 - baseline,
            "buffered readings survived via rotation"
        );
    }
}
