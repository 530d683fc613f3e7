//! Append-only write-ahead log: the durability point of the engine.
//!
//! Every insert batch is journaled here *before* it is acknowledged, so
//! a crash can lose at most what the configured [`FsyncPolicy`] allows.
//! The format is deliberately boring — self-delimiting records with a
//! per-record CRC-32, so replay can stop cleanly at a torn tail left by
//! a crash mid-append:
//!
//! ```text
//! [8B magic "DCDBWAL1"]
//! record*:
//!   [u32 payload_len] [u32 crc32(payload)] [payload]
//! payload:
//!   [u16 topic_len] [topic utf-8]
//!   [u32 count | 0x8000_0000] count × [u64 ts] count × [i64 value]
//! ```
//!
//! The **record** — one `(topic, batch)` — is the atomic unit on disk;
//! the **group** is the unit of writing and of acknowledgement.
//! [`WalWriter::append_group`] assembles the records of a run of
//! batches back to back in one buffer and hands it to one `write_all`:
//! the bytes are those of the same batches appended one at a time, so
//! [`replay_with`] and every journal written before groups existed read as
//! they always did. What a group changes is the cost — one `write(2)`
//! for the run instead of one per batch — and what a failure covers: a
//! failed group write is rolled back whole and none of the group is
//! acknowledged. A crash mid-write leaves a prefix of whole records and
//! at most one torn one, which replay drops; none of them had been
//! acknowledged. [`WalWriter::append_batch`] is the group of one.
//!
//! All integers little-endian. A record whose length field reaches past
//! the end of the file, or whose CRC does not match, terminates replay:
//! everything before it is recovered, everything after is discarded
//! (it was never acknowledged durable).
//!
//! The packed timestamp and value columns of a [`ReadingBatch`] land in
//! the record via two bulk little-endian copies instead of a
//! per-reading loop, assembled in a scratch buffer reused across
//! appends. Bit 31 of the count field marks the columnar layout — the
//! only one written or replayed; `MAX_PAYLOAD` (1 GiB) caps counts far
//! below `2^31`. A CRC-valid record with the bit clear (the retired
//! row-major layout) is structurally inconsistent and stops replay like
//! a torn tail.
//!
//! Under [`FsyncPolicy::EveryN`] the writer *pipelines* its syncs: the
//! write that brings the unsynced records to `N` or more enqueues an fsync
//! request for a background thread and journaling continues without waiting
//! (group commit, as in PostgreSQL's walwriter). The syncer coalesces every
//! request queued while an fsync was running into the next fsync — one
//! `fdatasync` covers them all — so when syncs are slower than the writes
//! between them, fsyncs run back-to-back on the background thread and the
//! writer never stalls. The writer blocks only when more than
//! [`MAX_SYNC_LAG`] requests are outstanding; `Always` never pipelines. A
//! failed background sync is harvested at the next sync point and poisons
//! the writer exactly like an in-line failure.
//!
//! Every record of a group counts as one append toward `N`, and a group is
//! one write whatever the window: the sync point falls at the end of the
//! write that fills the window, so a sync request covers between `N` and
//! `N - 1 + k` records, `k` being the records of the write that closed it.
//! Inserting one record per write, a request covers exactly `N`; a Collect
//! Agent drain is one write and one request. The crash window is therefore
//! stated in records: at most `MAX_SYNC_LAG * (N - 1 + G) + N - 1`
//! acknowledged records are not yet fsynced, `G` being the largest group —
//! in time, at most `MAX_SYNC_LAG` drains plus fewer than `N` records.
//! `Always` issues one write and one fsync per group before acknowledging
//! it; `Never` one write.
//!
//! All I/O goes through the [`crate::io::StorageIo`] VFS, so fault
//! injection exercises the exact production code paths. Two failure
//! rules keep acknowledged data safe under injected faults:
//!
//! * **Torn-append rollback** — a failed `write_all` may have landed a
//!   prefix of the group. The writer truncates back to the last good
//!   length before any further append, so a retried group can never be
//!   journaled *after* garbage (where replay would stop and lose it)
//!   nor after a copy of its own first records. If the truncate itself
//!   fails, the writer poisons itself.
//! * **Fsync poisoning** — once an fsync fails, the kernel may have
//!   dropped dirty pages and a later fsync on the same fd can report
//!   success without the data being durable. A failed sync therefore
//!   permanently poisons the writer; the engine must rotate to a fresh
//!   WAL file and re-journal.

use crate::crc::crc32;
use crate::io::{IoFile, StorageIo};
use dcdb_common::batch::{
    extend_le_i64s, extend_le_u64s, read_le_i64s, read_le_u64s, ReadingBatch,
};
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::topic::Topic;
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// File magic for WAL files.
pub const WAL_MAGIC: &[u8; 8] = b"DCDBWAL1";

/// Largest accepted payload (1 GiB): guards replay against reading a
/// corrupt length field as an allocation size. The writer refuses
/// records past the same bound, so nothing it acknowledged is ever
/// discarded as a torn tail.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Bit 31 of the record count field marks a columnar payload.
const COLUMNAR_FLAG: u32 = 1 << 31;

/// Payload bytes of a record carrying `readings` readings under a
/// `topic_len`-byte topic, or `None` when [`replay_with`] would refuse a
/// record that long.
fn payload_len(topic_len: usize, readings: usize) -> Option<usize> {
    let len = readings.checked_mul(16)?.checked_add(2 + topic_len + 4)?;
    (len <= MAX_PAYLOAD as usize).then_some(len)
}

/// Appends one CRC-framed record for `(topic, batch)` to `buf`, which
/// is left as it was when the record is past the size limit.
fn push_record(buf: &mut Vec<u8>, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
    let topic_bytes = topic.as_str().as_bytes();
    let Some(payload_len) = payload_len(topic_bytes.len(), batch.len()) else {
        return Err(DcdbError::InvalidState(format!(
            "batch of {} readings exceeds the WAL record limit",
            batch.len()
        )));
    };
    let start = buf.len();
    buf.reserve(8 + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // CRC placeholder
    buf.extend_from_slice(&(topic_bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(topic_bytes);
    buf.extend_from_slice(&(batch.len() as u32 | COLUMNAR_FLAG).to_le_bytes());
    extend_le_u64s(buf, &batch.ts);
    extend_le_i64s(buf, &batch.values);
    let crc = crc32(&buf[start + 8..]);
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// When the WAL calls `fsync` relative to appends.
///
/// `Always` makes every acknowledged batch crash-durable; `EveryN`
/// amortizes the syscall over a window of records and pipelines it on
/// a background thread (the records at risk are bounded by
/// [`MAX_SYNC_LAG`] — see the module docs); `Never` leaves flushing to
/// the OS page cache (data still survives a process kill, but not a
/// machine crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append.
    Always,
    /// `fsync` after the write that brings the unsynced appends to `N`
    /// or more (and on explicit [`WalWriter::sync`]).
    EveryN(u32),
    /// Never `fsync` implicitly.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` spelling of `wintermute-sim` (`always`,
    /// `batch`, `never`).
    pub fn parse(s: &str) -> Result<FsyncPolicy> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::EveryN(64)),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(DcdbError::Config(format!(
                "unknown fsync policy {other:?} (expected always|batch|never)"
            ))),
        }
    }
}

/// Appender over one WAL file.
///
/// Appends are single `write_all` calls of fully assembled records, so
/// nothing acknowledged is ever buffered in user space — a process kill
/// after an append cannot lose its records (only a machine crash can,
/// subject to the fsync policy).
pub struct WalWriter {
    file: Box<dyn IoFile>,
    path: PathBuf,
    policy: FsyncPolicy,
    appends_since_sync: u32,
    bytes: u64,
    poisoned: bool,
    /// Group assembly buffer, reused across appends.
    scratch: Vec<u8>,
    /// Background group-commit syncer (lazily spawned for `EveryN`).
    syncer: Option<PipelinedSync>,
    /// Set once spawning a syncer failed or the file cannot be cloned,
    /// so we stop re-trying on every sync point.
    syncer_unavailable: bool,
}

/// Most sync requests allowed outstanding before the writer blocks on
/// the background syncer; bounds the `EveryN` crash window at
/// `MAX_SYNC_LAG * (N - 1 + G) + N - 1` acknowledged records, `G` being
/// the largest group written (see the module docs).
pub const MAX_SYNC_LAG: u64 = 4;

/// Capacity the group assembly buffer keeps between writes: a larger
/// group's buffer is given back once it is written.
const SCRATCH_CAP: usize = 1 << 20;

/// Shared state between the writer and the background syncer.
struct SyncShared {
    state: Mutex<SyncState>,
    /// Signals the syncer (new request / shutdown) and the writer
    /// (request completed).
    progress: Condvar,
}

impl SyncShared {
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Timed condvar wait (so a dead peer cannot strand the waiter);
    /// callers re-check their predicate in a loop.
    fn wait<'a>(&self, guard: MutexGuard<'a, SyncState>) -> MutexGuard<'a, SyncState> {
        match self.progress.wait_timeout(guard, Duration::from_millis(50)) {
            Ok((g, _)) => g,
            Err(p) => p.into_inner().0,
        }
    }
}

#[derive(Default)]
struct SyncState {
    /// Sync requests issued by the writer.
    requested: u64,
    /// Requests covered by a completed fsync (coalesced: one fsync
    /// completes every request issued before it started).
    completed: u64,
    /// First fsync failure; sticky until the writer harvests it.
    error: Option<DcdbError>,
    shutdown: bool,
}

/// A background fsync thread running coalesced group commits.
struct PipelinedSync {
    shared: Arc<SyncShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PipelinedSync {
    /// Spawns a syncer over its own handle to the WAL file.
    fn spawn(mut file: Box<dyn IoFile>) -> Option<PipelinedSync> {
        let shared = Arc::new(SyncShared {
            state: Mutex::new(SyncState::default()),
            progress: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dcdb-wal-sync".into())
            .spawn(move || loop {
                let covers = {
                    let mut state = thread_shared.lock();
                    while !state.shutdown
                        && (state.requested == state.completed || state.error.is_some())
                    {
                        state = thread_shared.wait(state);
                    }
                    if state.shutdown {
                        return;
                    }
                    // This fsync covers every request issued so far.
                    state.requested
                };
                let result = file.sync();
                let mut state = thread_shared.lock();
                match result {
                    Ok(()) => state.completed = covers.max(state.completed),
                    Err(err) => {
                        if state.error.is_none() {
                            state.error = Some(err);
                        }
                    }
                }
                thread_shared.progress.notify_all();
            })
            .ok()?;
        Some(PipelinedSync {
            shared,
            handle: Some(handle),
        })
    }

    /// Enqueues a sync request, blocking only while more than
    /// [`MAX_SYNC_LAG`] requests are outstanding. Returns the sticky
    /// fsync error if one occurred; `Err(None)` means the syncer
    /// thread is gone.
    fn request(&mut self) -> std::result::Result<(), Option<DcdbError>> {
        let mut state = self.shared.lock();
        state.requested += 1;
        self.shared.progress.notify_all();
        while state.error.is_none() && state.requested - state.completed > MAX_SYNC_LAG {
            if self.thread_gone() {
                return Err(None);
            }
            state = self.shared.wait(state);
        }
        match state.error.take() {
            Some(err) => Err(Some(err)),
            None => Ok(()),
        }
    }

    /// Blocks until every request issued so far has been covered by a
    /// completed fsync. Returns the sticky fsync error if one occurred;
    /// `Err(None)` means the syncer thread is gone.
    fn barrier(&mut self) -> std::result::Result<(), Option<DcdbError>> {
        let mut state = self.shared.lock();
        while state.error.is_none() && state.completed < state.requested {
            if self.thread_gone() {
                return Err(None);
            }
            state = self.shared.wait(state);
        }
        match state.error.take() {
            Some(err) => Err(Some(err)),
            None => Ok(()),
        }
    }

    fn thread_gone(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }
}

impl Drop for PipelinedSync {
    fn drop(&mut self) {
        // Wake the syncer for shutdown, then join so no sync outlives
        // the writer (rotation must not race a stale fsync).
        self.shared.lock().shutdown = true;
        self.shared.progress.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl WalWriter {
    /// Creates a fresh WAL at `path` on `io`, truncating any existing
    /// file.
    pub fn create_with(io: &dyn StorageIo, path: &Path, policy: FsyncPolicy) -> Result<WalWriter> {
        let mut file = io.create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            appends_since_sync: 0,
            bytes: WAL_MAGIC.len() as u64,
            poisoned: false,
            scratch: Vec::new(),
            syncer: None,
            syncer_unavailable: false,
        })
    }

    /// Journals one columnar batch for `topic`: the one-record case of
    /// [`WalWriter::append_group`].
    pub fn append_batch(&mut self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
        self.append_group(&[(topic, batch)]).map(|_| ())
    }

    /// Journals the longest prefix of `entries` whose records
    /// [`replay_with`] accepts, one record per entry, back to back in a
    /// single `write_all`, and returns how many it journaled (at least
    /// one, unless `entries` is empty). On return those records are in
    /// the file (and fsynced, under `FsyncPolicy::Always`); each body is
    /// its batch's two packed columns, copied with two bulk
    /// little-endian appends. A record past the size limit ends the
    /// prefix before it, and is an error when it comes first.
    ///
    /// On a failed write the file is truncated back to its last good
    /// length, so the failure leaves no partial record behind and none
    /// of the prefix is journaled; if that rollback itself fails the
    /// writer becomes [`poisoned`] and every further call errors until
    /// the engine rotates to a fresh WAL.
    ///
    /// [`poisoned`]: WalWriter::poisoned
    pub fn append_group<T, B>(&mut self, entries: &[(T, B)]) -> Result<usize>
    where
        T: Borrow<Topic>,
        B: Borrow<ReadingBatch>,
    {
        self.check_poisoned()?;
        if entries.is_empty() {
            return Ok(0);
        }
        let mut buf = std::mem::take(&mut self.scratch);
        let mut records = 0u32;
        let mut result = Ok(());
        for (topic, batch) in entries {
            if let Err(err) = push_record(&mut buf, topic.borrow(), batch.borrow()) {
                if records == 0 {
                    result = Err(err);
                }
                break;
            }
            records += 1;
        }
        if records > 0 {
            result = self.write_records(&buf, records);
        }
        buf.clear();
        buf.shrink_to(SCRATCH_CAP);
        self.scratch = buf;
        result.map(|()| records as usize)
    }

    /// Writes `records` assembled records as one write and applies the
    /// fsync policy, every record counting as one append.
    fn write_records(&mut self, buf: &[u8], records: u32) -> Result<()> {
        if let Err(err) = self.file.write_all(buf) {
            // The write may have torn: restore the clean prefix so a
            // retried append cannot land after garbage.
            if self.file.truncate(self.bytes).is_err() {
                self.poisoned = true;
            }
            return Err(err);
        }
        self.bytes += buf.len() as u64;
        self.appends_since_sync += records;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.appends_since_sync >= n {
                    self.sync_pipelined()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// An `EveryN` sync point: enqueue a group-commit request for the
    /// syncer thread and keep journaling, blocking only when more than
    /// [`MAX_SYNC_LAG`] requests are outstanding. Falls back to an
    /// in-line [`WalWriter::sync`] when no background syncer is
    /// available (unclonable file, spawn failure, or a dead syncer
    /// thread).
    fn sync_pipelined(&mut self) -> Result<()> {
        if self.syncer.is_none() && !self.syncer_unavailable {
            self.syncer = self.file.try_clone().and_then(PipelinedSync::spawn);
            if self.syncer.is_none() {
                self.syncer_unavailable = true;
            }
        }
        let Some(syncer) = self.syncer.as_mut() else {
            return self.sync();
        };
        match syncer.request() {
            Ok(()) => {
                self.appends_since_sync = 0;
                Ok(())
            }
            Err(Some(err)) => {
                self.poisoned = true;
                Err(err)
            }
            Err(None) => {
                // Syncer thread died; fall back to in-line syncing.
                self.syncer = None;
                self.syncer_unavailable = true;
                self.sync()
            }
        }
    }

    /// Forces an fsync of everything appended so far, including
    /// awaiting any in-flight background sync. A failure poisons the
    /// writer permanently: re-fsyncing the same fd after a failed fsync
    /// can report success without durability, so the only safe recovery
    /// is rotation to a fresh file.
    pub fn sync(&mut self) -> Result<()> {
        self.check_poisoned()?;
        if let Some(syncer) = self.syncer.as_mut() {
            match syncer.barrier() {
                Ok(()) => {}
                Err(Some(err)) => {
                    self.poisoned = true;
                    return Err(err);
                }
                // Thread gone: the in-line sync below still covers
                // everything written so far.
                Err(None) => {}
            }
        }
        match self.file.sync() {
            Ok(()) => {
                self.appends_since_sync = 0;
                Ok(())
            }
            Err(err) => {
                self.poisoned = true;
                Err(err)
            }
        }
    }

    /// True once a failed fsync (or failed torn-write rollback) has made
    /// this writer unusable; the engine must rotate.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            Err(DcdbError::InvalidState(format!(
                "WAL {} is poisoned by a failed fsync; rotation required",
                self.path.display()
            )))
        } else {
            Ok(())
        }
    }

    /// Bytes written so far, including the header.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Outcome of a [`replay_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Complete record batches recovered.
    pub batches: usize,
    /// Readings recovered across those batches.
    pub readings: usize,
    /// True when a torn or corrupt tail stopped replay early.
    pub torn_tail: bool,
    /// Length of the validated prefix: every byte past it was discarded.
    pub good_len: u64,
    /// Bytes past the validated prefix that replay discarded (torn or
    /// corrupt tail). Zero on a clean replay.
    pub discarded_bytes: u64,
}

/// Replays the WAL at `path` on `io`, calling `sink(topic, batch)` per
/// recovered record.
///
/// Tolerates a torn tail: a truncated or CRC-corrupt record terminates
/// replay without error, reporting `torn_tail = true` and the length of
/// the clean prefix.
pub fn replay_with(
    io: &dyn StorageIo,
    path: &Path,
    mut sink: impl FnMut(Topic, ReadingBatch),
) -> Result<WalReplay> {
    let data = io.read(path)?;
    if data.len() < WAL_MAGIC.len() || &data[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DcdbError::Parse(format!(
            "{} is not a DCDB WAL file",
            path.display()
        )));
    }
    let mut report = WalReplay {
        good_len: WAL_MAGIC.len() as u64,
        ..WalReplay::default()
    };
    let torn = |mut report: WalReplay| {
        report.torn_tail = true;
        report.discarded_bytes = data.len() as u64 - report.good_len;
        Ok(report)
    };
    let mut pos = WAL_MAGIC.len();
    loop {
        if pos == data.len() {
            return Ok(report); // clean end
        }
        if pos + 8 > data.len() {
            return torn(report); // torn header
        }
        let payload_len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let crc_expected = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if payload_len as u32 > MAX_PAYLOAD || pos + 8 + payload_len > data.len() {
            return torn(report); // torn or corrupt length
        }
        let payload = &data[pos + 8..pos + 8 + payload_len];
        if crc32(payload) != crc_expected {
            return torn(report); // corrupt payload
        }
        match decode_payload(payload) {
            Some((topic, batch)) => {
                report.batches += 1;
                report.readings += batch.len();
                sink(topic, batch);
            }
            None => {
                // CRC passed but the structure is inconsistent (or the
                // body is the retired row-major kind) — treat as
                // corruption and stop, like a torn tail.
                return torn(report);
            }
        }
        pos += 8 + payload_len;
        report.good_len = pos as u64;
    }
}

fn decode_payload(payload: &[u8]) -> Option<(Topic, ReadingBatch)> {
    if payload.len() < 6 {
        return None;
    }
    let topic_len = u16::from_le_bytes(payload[0..2].try_into().unwrap()) as usize;
    if payload.len() < 2 + topic_len + 4 {
        return None;
    }
    let topic = Topic::parse(std::str::from_utf8(&payload[2..2 + topic_len]).ok()?).ok()?;
    let raw_count = u32::from_le_bytes(
        payload[2 + topic_len..2 + topic_len + 4]
            .try_into()
            .unwrap(),
    );
    if raw_count & COLUMNAR_FLAG == 0 {
        return None;
    }
    let count = (raw_count & !COLUMNAR_FLAG) as usize;
    let body = &payload[2 + topic_len + 4..];
    if body.len() != count * 16 {
        return None;
    }
    let batch = ReadingBatch::from_columns(
        read_le_u64s(body, count),
        read_le_i64s(&body[count * 8..], count),
    );
    Some((topic, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultConfig, FaultIo, StdIo};
    use dcdb_common::reading::SensorReading;
    use dcdb_common::time::Timestamp;
    use std::fs::OpenOptions;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    fn b(rows: &[SensorReading]) -> ReadingBatch {
        ReadingBatch::from_readings(rows)
    }

    fn temp_wal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dcdb-wal-test-{}-{name}.log", std::process::id()));
        p
    }

    fn collect_replay(path: &Path) -> (Vec<(Topic, ReadingBatch)>, WalReplay) {
        let mut got = Vec::new();
        let rep = replay_with(&StdIo, path, |topic, batch| got.push((topic, batch))).unwrap();
        (got, rep)
    }

    #[test]
    fn append_replay_round_trip() {
        let path = temp_wal("roundtrip");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        w.append_batch(&t("/n0/power"), &b(&[r(1, 1), r(2, 2)]))
            .unwrap();
        w.append_batch(&t("/n1/temp"), &b(&[r(-7, 3)])).unwrap();
        w.sync().unwrap();
        let (got, rep) = collect_replay(&path);
        assert_eq!(rep.batches, 2);
        assert_eq!(rep.readings, 3);
        assert!(!rep.torn_tail);
        assert_eq!(rep.discarded_bytes, 0);
        assert_eq!(rep.good_len, w.bytes_written());
        assert_eq!(got[0].0, t("/n0/power"));
        assert_eq!(got[0].1, b(&[r(1, 1), r(2, 2)]));
        assert_eq!(got[1].1, b(&[r(-7, 3)]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_prefix_recovered() {
        let path = temp_wal("torn");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(1, 1)])).unwrap();
        let good = w.bytes_written();
        w.append_batch(&t("/a/b"), &b(&[r(2, 2), r(3, 3)])).unwrap();
        drop(w);
        // Crash mid-append: cut the last record in half.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(good + (full - good) / 2).unwrap();
        drop(f);
        let (got, rep) = collect_replay(&path);
        assert!(rep.torn_tail);
        assert_eq!(rep.batches, 1);
        assert_eq!(rep.good_len, good);
        assert_eq!(rep.discarded_bytes, (full - good) / 2);
        assert_eq!(got[0].1, b(&[r(1, 1)]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = temp_wal("corrupt");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(1, 1)])).unwrap();
        let good = w.bytes_written();
        w.append_batch(&t("/a/b"), &b(&[r(2, 2)])).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(3, 3)])).unwrap();
        drop(w);
        // Flip one byte inside the second record's payload.
        let mut data = std::fs::read(&path).unwrap();
        data[good as usize + 12] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (got, rep) = collect_replay(&path);
        assert!(rep.torn_tail);
        assert_eq!(rep.batches, 1);
        assert!(rep.discarded_bytes > 0);
        assert_eq!(got.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_wal_files() {
        let path = temp_wal("garbage");
        std::fs::write(&path, b"not a wal").unwrap();
        assert!(replay_with(&StdIo, &path, |_, _| {}).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policies_parse() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(
            FsyncPolicy::parse("batch").unwrap(),
            FsyncPolicy::EveryN(64)
        );
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn empty_wal_replays_clean() {
        let path = temp_wal("empty");
        let w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Always).unwrap();
        drop(w);
        let (got, rep) = collect_replay(&path);
        assert!(got.is_empty());
        assert!(!rep.torn_tail);
        assert_eq!(rep.good_len, WAL_MAGIC.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_fsync_poisons_the_writer() {
        let path = temp_wal("poison");
        let mut cfg = FaultConfig::quiet(11);
        cfg.fsync_fail_prob = 1.0;
        let io = FaultIo::new(Arc::new(StdIo), cfg, dcdb_common::Clock::new());
        let w = WalWriter::create_with(&io, &path, FsyncPolicy::Never);
        // Creation syncs the magic — with fsync always failing, creation
        // itself fails. Create clean, then arm the fault.
        assert!(w.is_err());
        io.clear_faults();
        let mut w = WalWriter::create_with(&io, &path, FsyncPolicy::Never).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(1, 1)])).unwrap();
        io.set_config(cfg);
        assert!(w.sync().is_err());
        assert!(w.poisoned());
        // Every further op refuses — no silent success after failed fsync.
        io.clear_faults();
        assert!(w.append_batch(&t("/a/b"), &b(&[r(2, 2)])).is_err());
        assert!(w.sync().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_multi_reading_batches_replay_in_order() {
        let path = temp_wal("columnar");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        let batch = b(&[r(10, 1), r(20, 2), r(30, 3)]);
        w.append_batch(&t("/n1/temp"), &batch).unwrap();
        w.append_batch(&t("/n2/flow"), &ReadingBatch::new())
            .unwrap();
        w.append_batch(&t("/n0/power"), &b(&[r(2, 2)])).unwrap();
        w.sync().unwrap();
        let (got, rep) = collect_replay(&path);
        assert_eq!(rep.batches, 3);
        assert_eq!(rep.readings, 4);
        assert!(!rep.torn_tail);
        assert_eq!(rep.good_len, w.bytes_written());
        assert_eq!(got[0], (t("/n1/temp"), batch));
        assert!(got[1].1.is_empty());
        assert_eq!(got[2].1, b(&[r(2, 2)]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn row_kind_record_stops_replay_like_a_torn_tail() {
        // A CRC-valid record in the retired row-major layout (count bit
        // 31 clear, interleaved value/ts pairs) is not replayed: the
        // columnar prefix before it is kept, everything from it on is
        // discarded.
        let path = temp_wal("row-kind");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(1, 1)])).unwrap();
        let good = w.bytes_written();
        drop(w);
        let mut payload = Vec::new();
        payload.extend_from_slice(&4u16.to_le_bytes());
        payload.extend_from_slice(b"/a/b");
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2i64.to_le_bytes());
        payload.extend_from_slice(&2_000_000_000u64.to_le_bytes());
        let mut record = Vec::new();
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        // A good columnar record after it, cut from a second journal.
        let other = temp_wal("row-kind-next");
        let mut w = WalWriter::create_with(&StdIo, &other, FsyncPolicy::Never).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(3, 3)])).unwrap();
        drop(w);
        let next = std::fs::read(&other).unwrap();
        std::fs::remove_file(&other).ok();
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&record);
        data.extend_from_slice(&next[WAL_MAGIC.len()..]);
        std::fs::write(&path, &data).unwrap();
        let (got, rep) = collect_replay(&path);
        assert!(rep.torn_tail);
        assert_eq!(rep.batches, 1);
        assert_eq!(rep.good_len, good);
        assert!(rep.discarded_bytes > record.len() as u64);
        assert_eq!(got, vec![(t("/a/b"), b(&[r(1, 1)]))]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_refuses_what_replay_would_discard() {
        // The writer's size check is the reader's: the largest record
        // replay accepts is the largest append journals.
        let fits = (MAX_PAYLOAD as usize - (2 + 4 + 4)) / 16;
        assert_eq!(payload_len(4, fits), Some(2 + 4 + 4 + fits * 16));
        assert!(payload_len(4, fits).unwrap() <= MAX_PAYLOAD as usize);
        assert_eq!(payload_len(4, fits + 1), None);
        assert_eq!(payload_len(4, (1 << 31) - 1), None, "old writer bound");
        assert_eq!(payload_len(4, usize::MAX / 8), None, "no overflow");
        assert_eq!(payload_len(0, 0), Some(6));
    }

    #[test]
    fn columnar_records_survive_extreme_values() {
        let path = temp_wal("columnar-extreme");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        let batch = ReadingBatch::from_columns(
            vec![0, u64::MAX, u64::MAX / 2],
            vec![i64::MIN, i64::MAX, -1],
        );
        w.append_batch(&t("/x/y"), &batch).unwrap();
        w.sync().unwrap();
        let (got, rep) = collect_replay(&path);
        assert_eq!(rep.readings, 3);
        assert_eq!(got[0].1, batch);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipelined_everyn_syncs_and_replays_clean() {
        // EveryN over StdIo engages the background syncer; every record
        // must still land durably and replay byte-clean, and explicit
        // sync must act as a full barrier.
        let path = temp_wal("pipelined");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::EveryN(4)).unwrap();
        let mut batch = ReadingBatch::new();
        for i in 0..100u64 {
            batch.clear();
            batch.push(i as i64, Timestamp(i * 1_000));
            batch.push(i as i64 + 1, Timestamp(i * 1_000 + 500));
            w.append_batch(&t("/p/q"), &batch).unwrap();
        }
        assert!(!w.poisoned());
        w.sync().unwrap();
        let (got, rep) = collect_replay(&path);
        assert_eq!(rep.batches, 100);
        assert_eq!(rep.readings, 200);
        assert!(!rep.torn_tail);
        assert_eq!(
            got[99].1.get(1),
            Some(SensorReading::new(100, Timestamp(99 * 1_000 + 500)))
        );
        std::fs::remove_file(&path).ok();
    }

    /// Records in one journal write (`[u32 len][u32 crc][payload]`*).
    fn records_in(mut buf: &[u8]) -> u64 {
        let mut records = 0;
        while !buf.is_empty() {
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            buf = &buf[8 + len..];
            records += 1;
        }
        records
    }

    /// What a [`GatedFile`] and its clones were asked to do.
    #[derive(Default)]
    struct Ledger {
        writes: u64,
        /// Records written.
        written: u64,
        /// Records covered by a completed `sync`.
        durable: u64,
        /// Most records a write found written but not yet durable.
        most_at_risk: u64,
        /// While false, every `sync` waits.
        open: bool,
    }

    /// A journal whose clones share one [`Ledger`], so the background
    /// syncer engages, and whose `sync` is held until the gate opens.
    #[derive(Clone, Default)]
    struct GatedFile(Arc<(Mutex<Ledger>, Condvar)>);

    impl GatedFile {
        fn ledger(&self) -> MutexGuard<'_, Ledger> {
            self.0 .0.lock().unwrap()
        }
        /// Signalled on every write and when the gate opens.
        fn changed(&self) -> &Condvar {
            &self.0 .1
        }
    }

    impl IoFile for GatedFile {
        fn write_all(&mut self, buf: &[u8]) -> Result<()> {
            let mut ledger = self.ledger();
            ledger.most_at_risk = ledger.most_at_risk.max(ledger.written - ledger.durable);
            ledger.writes += 1;
            ledger.written += records_in(buf);
            self.changed().notify_all();
            Ok(())
        }
        fn sync(&mut self) -> Result<()> {
            let mut ledger = self.ledger();
            let covers = ledger.written;
            while !ledger.open {
                ledger = self.changed().wait(ledger).unwrap();
            }
            ledger.durable = ledger.durable.max(covers);
            Ok(())
        }
        fn truncate(&mut self, _: u64) -> Result<()> {
            Ok(())
        }
        fn try_clone(&self) -> Option<Box<dyn IoFile>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn the_writer_stops_at_max_sync_lag_and_bounds_the_records_at_risk() {
        const N: u64 = 5;
        let sizes: Vec<u64> = (0..40).map(|i| [3, 1, 7, 2, 5, 9, 1, 4][i % 8]).collect();
        let largest = *sizes.iter().max().unwrap();
        // The write that issues request `MAX_SYNC_LAG + 1`: with the
        // first sync held, the writer must not return from it.
        let (mut unsynced, mut requests) = (0, 0);
        let stall = 1 + sizes
            .iter()
            .position(|size| {
                unsynced += size;
                if unsynced >= N {
                    (unsynced, requests) = (0, requests + 1);
                }
                requests == MAX_SYNC_LAG + 1
            })
            .unwrap() as u64;
        let file = GatedFile::default();
        let mut w = WalWriter {
            file: Box::new(file.clone()),
            path: PathBuf::from("gated.log"),
            policy: FsyncPolicy::EveryN(N as u32),
            appends_since_sync: 0,
            bytes: 0,
            poisoned: false,
            scratch: Vec::new(),
            syncer: None,
            syncer_unavailable: false,
        };
        let entries: Vec<_> = (0..largest).map(|i| (t("/a/b"), b(&[r(1, i)]))).collect();
        let total: u64 = sizes.iter().sum();
        let writer = std::thread::spawn(move || {
            for size in sizes {
                w.append_group(&entries[..size as usize]).unwrap();
            }
            w.sync().unwrap();
        });
        let ten_s = Duration::from_secs(10);
        drop(
            file.changed()
                .wait_timeout_while(file.ledger(), ten_s, |l| l.writes < stall)
                .unwrap(),
        );
        // The held sync keeps a correct writer at `stall` however long
        // this waits; the wait only gives a writer that does not stop
        // the time to show it.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(file.ledger().writes, stall, "writes while the sync is held");
        assert!(!writer.is_finished());
        file.ledger().open = true;
        file.changed().notify_all();
        writer.join().unwrap();
        let ledger = file.ledger();
        assert_eq!((ledger.written, ledger.durable), (total, total));
        let bound = MAX_SYNC_LAG * (N - 1 + largest) + N - 1;
        assert!(
            ledger.most_at_risk <= bound,
            "{} records at risk, bound {bound}",
            ledger.most_at_risk
        );
    }

    #[test]
    fn a_large_group_leaves_no_large_scratch_behind() {
        let path = temp_wal("scratch");
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        let n = 600_000u64;
        let batch = ReadingBatch::from_columns((0..n).collect(), (0..n as i64).collect());
        w.append_batch(&t("/a/b"), &batch).unwrap();
        assert!(w.bytes_written() >= 8 << 20);
        assert!(w.scratch.capacity() <= SCRATCH_CAP);
        // A small group still reuses what is kept.
        w.append_batch(&t("/a/b"), &b(&[r(1, 1)])).unwrap();
        assert!((1..=SCRATCH_CAP).contains(&w.scratch.capacity()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn everyn_under_fault_injection_stays_inline_and_poisons() {
        // FaultIo files are not clonable (determinism), so EveryN falls
        // back to in-line syncs — and a failing one must still poison.
        let path = temp_wal("everyn-fault");
        let io = FaultIo::new(
            Arc::new(StdIo),
            FaultConfig::quiet(23),
            dcdb_common::Clock::new(),
        );
        let mut w = WalWriter::create_with(&io, &path, FsyncPolicy::EveryN(2)).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(1, 1)])).unwrap();
        let mut cfg = FaultConfig::quiet(23);
        cfg.fsync_fail_prob = 1.0;
        io.set_config(cfg);
        // Second append crosses the EveryN threshold → in-line sync fails.
        assert!(w.append_batch(&t("/a/b"), &b(&[r(2, 2)])).is_err());
        assert!(w.poisoned());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_append_rolls_back_to_clean_prefix() {
        let path = temp_wal("rollback");
        let io = FaultIo::new(
            Arc::new(StdIo),
            FaultConfig::quiet(17),
            dcdb_common::Clock::new(),
        );
        let mut w = WalWriter::create_with(&io, &path, FsyncPolicy::Never).unwrap();
        w.append_batch(&t("/a/b"), &b(&[r(1, 1)])).unwrap();
        let good = w.bytes_written();
        let mut cfg = FaultConfig::quiet(17);
        cfg.torn_write_prob = 1.0;
        io.set_config(cfg);
        assert!(w.append_batch(&t("/a/b"), &b(&[r(2, 2)])).is_err());
        assert!(!w.poisoned(), "rollback succeeded, writer stays usable");
        io.clear_faults();
        // Retry lands cleanly right after the rolled-back prefix.
        w.append_batch(&t("/a/b"), &b(&[r(2, 2)])).unwrap();
        w.sync().unwrap();
        drop(w);
        let (got, rep) = collect_replay(&path);
        assert!(!rep.torn_tail, "no garbage between records");
        assert_eq!(rep.batches, 2);
        assert_eq!(got[1].1, b(&[r(2, 2)]));
        assert!(rep.good_len > good);
        std::fs::remove_file(&path).ok();
    }
}
