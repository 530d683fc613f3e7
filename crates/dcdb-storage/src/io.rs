//! The storage VFS: every byte the durable engine moves goes through
//! [`StorageIo`].
//!
//! The PR-1 engine called `std::fs` directly, which made storage I/O
//! faults — the dominant real-world failure mode of production ODA
//! deployments — untestable: a full disk, a flaky controller or a
//! failing fsync could only be observed in production. This module
//! pulls every filesystem operation behind a small trait with three
//! implementations:
//!
//! * [`StdIo`] — the production implementation, a thin veneer over
//!   `std::fs` with the exact semantics the engine always had;
//! * [`MemIo`] — an in-memory disk with `StdIo`'s semantics, for
//!   volatile storage and the deterministic simulator;
//! * [`FaultIo`] — a seeded, deterministic fault injector wrapping any
//!   inner [`StorageIo`]. Per-op-class fault schedules (ENOSPC after a
//!   byte budget, per-op EIO probability, fsync failure, torn/short
//!   writes, injected latency) replay bit-for-bit from a single seed,
//!   and an optional virtual-time window gates when faults fire — the
//!   same clocking discipline as the bus's `ChaosBus`, so storage
//!   chaos composes with transport chaos in one deterministic run.
//!
//! The surface is deliberately coarse (whole-file reads, ranged reads,
//! append-oriented writes) because that is all the WAL, segment,
//! and snapshot formats need — a narrow waist keeps both
//! implementations honest.

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::sim::{EventTrace, SimClock};
use dcdb_common::time::Timestamp;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A writable file handle produced by [`StorageIo::create`] or
/// [`StorageIo::open_append`].
pub trait IoFile: Send {
    /// Appends `buf` in full (short writes surface as errors).
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;
    /// Forces written data to stable storage (`fsync`).
    fn sync(&mut self) -> Result<()>;
    /// Truncates the file to `len` bytes — used to restore a clean
    /// prefix after a failed (possibly partial) append.
    fn truncate(&mut self, len: u64) -> Result<()>;
    /// A second handle to the same underlying file, for use by a
    /// background fsync thread (an fsync on either handle flushes the
    /// same inode). `None` when the implementation cannot (or should
    /// not) support concurrent syncing — callers must then sync
    /// in-line.
    fn try_clone(&self) -> Option<Box<dyn IoFile>> {
        None
    }
}

/// The filesystem operations the durable engine performs, as a
/// swappable VFS. See the module docs.
pub trait StorageIo: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>>;
    /// Opens an existing file for appending, truncating it to
    /// `truncate_to` bytes first.
    fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>>;
    /// Reads an entire file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Reads exactly `len` bytes starting at `offset`.
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Length of a file in bytes.
    fn file_len(&self, path: &Path) -> Result<u64>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> Result<()>;
    /// Lists the entries of a directory.
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>>;
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<()>;
    /// Fsyncs a directory so renames inside it are durable.
    fn sync_dir(&self, dir: &Path) -> Result<()>;
}

// ---------------------------------------------------------------------------
// StdIo — production implementation over std::fs.
// ---------------------------------------------------------------------------

/// The production [`StorageIo`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdIo;

struct StdFile(File);

impl IoFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.0.write_all(buf)?;
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        self.0.sync_data()?;
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> Result<()> {
        self.0.set_len(len)?;
        self.0.seek(SeekFrom::Start(len))?;
        Ok(())
    }
    fn try_clone(&self) -> Option<Box<dyn IoFile>> {
        self.0
            .try_clone()
            .ok()
            .map(|f| Box::new(StdFile(f)) as Box<dyn IoFile>)
    }
}

impl StorageIo for StdIo {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(truncate_to)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Ok(data)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        File::open(dir)?.sync_all()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MemIo — an in-memory disk.
// ---------------------------------------------------------------------------

/// A [`StorageIo`] keeping every file in memory with [`StdIo`]'s
/// semantics, so an engine reopened over the same `MemIo` recovers as
/// from a directory. A file's directory is its parent path; handles
/// offer no `try_clone`, so a WAL syncs in-line (a no-op).
#[derive(Debug, Default)]
pub struct MemIo {
    files: Mutex<BTreeMap<PathBuf, MemFile>>,
}

/// One in-memory file: every handle to it shares the bytes.
#[derive(Debug, Clone, Default)]
struct MemFile(Arc<Mutex<Vec<u8>>>);

fn io_error(kind: std::io::ErrorKind) -> DcdbError {
    DcdbError::Io(kind.into())
}

impl IoFile for MemFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.0.lock().extend_from_slice(buf);
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
    /// `File::set_len`: cuts the file, or extends it with zeros.
    fn truncate(&mut self, len: u64) -> Result<()> {
        let len = usize::try_from(len).map_err(|_| io_error(std::io::ErrorKind::InvalidInput))?;
        self.0.lock().resize(len, 0);
        Ok(())
    }
}

impl MemIo {
    fn file(&self, path: &Path) -> Result<MemFile> {
        let file = self.files.lock().get(path).cloned();
        file.ok_or_else(|| io_error(std::io::ErrorKind::NotFound))
    }
}

impl StorageIo for MemIo {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        let file = self
            .files
            .lock()
            .entry(path.to_path_buf())
            .or_default()
            .clone();
        file.0.lock().clear();
        Ok(Box::new(file))
    }

    fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>> {
        let mut file = self.file(path)?;
        file.truncate(truncate_to)?;
        Ok(Box::new(file))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        Ok(self.file(path)?.0.lock().clone())
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        let file = self.file(path)?;
        let data = file.0.lock();
        let start = usize::try_from(offset).ok();
        let range = start.and_then(|start| data.get(start..start.checked_add(len)?));
        range
            .map(<[u8]>::to_vec)
            .ok_or_else(|| io_error(std::io::ErrorKind::UnexpectedEof))
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        Ok(self.file(path)?.0.lock().len() as u64)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut files = self.files.lock();
        let file = files.remove(from);
        let file = file.ok_or_else(|| io_error(std::io::ErrorKind::NotFound))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let removed = self.files.lock().remove(path);
        removed
            .map(drop)
            .ok_or_else(|| io_error(std::io::ErrorKind::NotFound))
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        let files = self.files.lock();
        let entries = files.keys().filter(|path| path.parent() == Some(dir));
        Ok(entries.cloned().collect())
    }

    fn create_dir_all(&self, _dir: &Path) -> Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FaultIo — seeded deterministic fault injection.
// ---------------------------------------------------------------------------

/// The fault schedule of a [`FaultIo`]. All probabilities are in
/// `[0, 1]`; identical seeds replay identical fault sequences.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed for the fault RNG.
    pub seed: u64,
    /// Writes (and file creations) fail with `ENOSPC` once the injector
    /// has passed this many bytes through while faults are active —
    /// a disk filling up.
    pub enospc_after_bytes: Option<u64>,
    /// Probability that a read or write op fails with `EIO`.
    pub eio_prob: f64,
    /// Probability that an `fsync` reports failure (the data may or may
    /// not have reached the platter — exactly the ambiguity real fsync
    /// failures carry, which is why the WAL poisons the fd).
    pub fsync_fail_prob: f64,
    /// Probability that a write is torn: a strict prefix of the buffer
    /// reaches the inner file, then the op fails with `EIO`.
    pub torn_write_prob: f64,
    /// Latency injected per I/O op, nanoseconds. Accounted in
    /// [`FaultIoStats::injected_latency_ns`]; also slept on the wall
    /// clock when [`FaultConfig::sleep_on_latency`] is set (for live
    /// `wintermute-sim` runs — tests and benches keep it virtual).
    pub latency_ns: u64,
    /// Sleep for `latency_ns` on every op instead of only accounting it.
    pub sleep_on_latency: bool,
    /// Virtual-time window `[from_ns, until_ns)` during which faults
    /// fire; `None` means always. Clocked by [`FaultIo::advance`], like
    /// the bus's `ChaosBus`.
    pub window_ns: Option<(u64, u64)>,
}

impl FaultConfig {
    /// A schedule that injects nothing (a transparent wrapper).
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            enospc_after_bytes: None,
            eio_prob: 0.0,
            fsync_fail_prob: 0.0,
            torn_write_prob: 0.0,
            latency_ns: 0,
            sleep_on_latency: false,
            window_ns: None,
        }
    }

    /// Restricts the schedule to a virtual-time window, milliseconds.
    pub fn with_window_ms(mut self, from_ms: u64, until_ms: u64) -> FaultConfig {
        self.window_ns = Some((from_ms * 1_000_000, until_ms * 1_000_000));
        self
    }

    fn injects_anything(&self) -> bool {
        self.enospc_after_bytes.is_some()
            || self.eio_prob > 0.0
            || self.fsync_fail_prob > 0.0
            || self.torn_write_prob > 0.0
            || self.latency_ns > 0
    }
}

/// Injection and traffic counters of a [`FaultIo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultIoStats {
    /// Write/create ops refused with `ENOSPC`.
    pub injected_enospc: u64,
    /// Read/write ops failed with `EIO`.
    pub injected_eio: u64,
    /// Fsyncs that reported failure.
    pub injected_fsync_failures: u64,
    /// Writes torn after a strict prefix.
    pub injected_torn_writes: u64,
    /// Total latency injected, nanoseconds (virtual unless
    /// `sleep_on_latency`).
    pub injected_latency_ns: u64,
    /// Write ops attempted (including failed ones).
    pub writes: u64,
    /// Read ops attempted.
    pub reads: u64,
    /// Sync ops attempted.
    pub syncs: u64,
    /// Bytes accepted by the inner io (prefix bytes of torn writes
    /// included).
    pub bytes_written: u64,
}

#[derive(Debug)]
struct FaultState {
    config: Mutex<FaultConfig>,
    rng: Mutex<u64>,
    clock: Arc<SimClock>,
    trace: Mutex<Option<(EventTrace, String)>>,
    injected_enospc: AtomicU64,
    injected_eio: AtomicU64,
    injected_fsync_failures: AtomicU64,
    injected_torn_writes: AtomicU64,
    injected_latency_ns: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
    syncs: AtomicU64,
    bytes_written: AtomicU64,
}

/// xorshift64* step; decent-quality deterministic draws without a
/// dependency on this hot-path crate. Not `dcdb_common::sim::xorshift`:
/// that one forces the state odd, so merging would change every
/// `FaultIo` fault stream (and every pinned witness built on one).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultState {
    /// Appends an injected-fault event to the attached trace, if any.
    fn record(&self, kind: &str) {
        if let Some((trace, label)) = self.trace.lock().as_ref() {
            trace.record(self.clock.now(), "io", &format!("{label} {kind}"));
        }
    }

    /// Draws a uniform f64 in [0, 1).
    fn draw(&self) -> f64 {
        let x = xorshift(&mut self.rng.lock());
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn draw_below(&self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            xorshift(&mut self.rng.lock()) % n
        }
    }

    fn active(&self, config: &FaultConfig) -> bool {
        if !config.injects_anything() {
            return false;
        }
        match config.window_ns {
            None => true,
            Some((from, until)) => {
                let now = self.clock.now_ns();
                now >= from && now < until
            }
        }
    }

    fn latency(&self, config: &FaultConfig) {
        if config.latency_ns > 0 {
            self.injected_latency_ns
                .fetch_add(config.latency_ns, Ordering::Relaxed);
            if config.sleep_on_latency {
                std::thread::sleep(std::time::Duration::from_nanos(config.latency_ns));
            }
        }
    }
}

fn enospc() -> DcdbError {
    DcdbError::Io(std::io::Error::from_raw_os_error(28)) // ENOSPC
}

fn eio(what: &str) -> DcdbError {
    DcdbError::Io(std::io::Error::other(format!(
        "injected I/O error ({what})"
    )))
}

/// Deterministic fault-injecting [`StorageIo`] wrapper. See the module
/// docs for the fault classes.
#[derive(Debug, Clone)]
pub struct FaultIo {
    inner: Arc<dyn StorageIo>,
    state: Arc<FaultState>,
}

impl FaultIo {
    /// Wraps `inner` behind the fault schedule `config`, on a private
    /// clock.
    pub fn new(inner: Arc<dyn StorageIo>, config: FaultConfig) -> FaultIo {
        FaultIo::with_clock(inner, config, SimClock::new())
    }

    /// Wraps `inner` ticking from a shared [`SimClock`], so storage
    /// fault windows and the bus/delivery chaos layers observe one
    /// timeline.
    pub fn with_clock(
        inner: Arc<dyn StorageIo>,
        config: FaultConfig,
        clock: Arc<SimClock>,
    ) -> FaultIo {
        FaultIo {
            inner,
            state: Arc::new(FaultState {
                rng: Mutex::new(config.seed | 1),
                config: Mutex::new(config),
                clock,
                trace: Mutex::new(None),
                injected_enospc: AtomicU64::new(0),
                injected_eio: AtomicU64::new(0),
                injected_fsync_failures: AtomicU64::new(0),
                injected_torn_writes: AtomicU64::new(0),
                injected_latency_ns: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                reads: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
            }),
        }
    }

    /// Advances virtual time; window-gated faults fire only while the
    /// clock sits inside the configured window. The shared [`SimClock`]
    /// is monotonic (`fetch_max`): out-of-order ticks never rewind the
    /// window.
    pub fn advance(&self, now: Timestamp) {
        self.state.clock.advance_to(now);
    }

    /// Attaches the canonical event trace; every injected fault is
    /// appended as `<label> <kind>` under the `io` lane (the label
    /// distinguishes per-shard devices sharing one trace).
    pub fn set_trace(&self, trace: EventTrace, label: &str) {
        *self.state.trace.lock() = Some((trace, label.to_string()));
    }

    /// The shared virtual clock this wrapper ticks from.
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.state.clock)
    }

    /// Replaces the fault schedule (counters and the clock persist).
    pub fn set_config(&self, config: FaultConfig) {
        *self.state.config.lock() = config;
    }

    /// Clears all faults, turning the wrapper transparent.
    pub fn clear_faults(&self) {
        let seed = self.state.config.lock().seed;
        self.set_config(FaultConfig::quiet(seed));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FaultIoStats {
        let s = &self.state;
        FaultIoStats {
            injected_enospc: s.injected_enospc.load(Ordering::Relaxed),
            injected_eio: s.injected_eio.load(Ordering::Relaxed),
            injected_fsync_failures: s.injected_fsync_failures.load(Ordering::Relaxed),
            injected_torn_writes: s.injected_torn_writes.load(Ordering::Relaxed),
            injected_latency_ns: s.injected_latency_ns.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            reads: s.reads.load(Ordering::Relaxed),
            syncs: s.syncs.load(Ordering::Relaxed),
            bytes_written: s.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// ENOSPC / EIO gate shared by create and open ops.
    fn check_write_op(&self, what: &str) -> Result<()> {
        let config = *self.state.config.lock();
        if !self.state.active(&config) {
            return Ok(());
        }
        self.state.latency(&config);
        if let Some(budget) = config.enospc_after_bytes {
            if self.state.bytes_written.load(Ordering::Relaxed) >= budget {
                self.state.injected_enospc.fetch_add(1, Ordering::Relaxed);
                self.state.record("enospc");
                return Err(enospc());
            }
        }
        if config.eio_prob > 0.0 && self.state.draw() < config.eio_prob {
            self.state.injected_eio.fetch_add(1, Ordering::Relaxed);
            self.state.record("eio");
            return Err(eio(what));
        }
        Ok(())
    }

    fn check_read_op(&self, what: &str) -> Result<()> {
        self.state.reads.fetch_add(1, Ordering::Relaxed);
        let config = *self.state.config.lock();
        if !self.state.active(&config) {
            return Ok(());
        }
        self.state.latency(&config);
        if config.eio_prob > 0.0 && self.state.draw() < config.eio_prob {
            self.state.injected_eio.fetch_add(1, Ordering::Relaxed);
            self.state.record("eio");
            return Err(eio(what));
        }
        Ok(())
    }
}

struct FaultFile {
    inner: Box<dyn IoFile>,
    state: Arc<FaultState>,
}

impl IoFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.state.writes.fetch_add(1, Ordering::Relaxed);
        let config = *self.state.config.lock();
        if self.state.active(&config) {
            self.state.latency(&config);
            if let Some(budget) = config.enospc_after_bytes {
                let written = self.state.bytes_written.load(Ordering::Relaxed);
                if written.saturating_add(buf.len() as u64) > budget {
                    // Model a filling disk: accept what fits, refuse the
                    // record — a short write the caller must roll back.
                    let room = budget.saturating_sub(written) as usize;
                    if room > 0 {
                        let _ = self.inner.write_all(&buf[..room.min(buf.len())]);
                        self.state
                            .bytes_written
                            .fetch_add(room.min(buf.len()) as u64, Ordering::Relaxed);
                    }
                    self.state.injected_enospc.fetch_add(1, Ordering::Relaxed);
                    self.state.record("enospc");
                    return Err(enospc());
                }
            }
            if config.torn_write_prob > 0.0 && self.state.draw() < config.torn_write_prob {
                // Tear the write: a strict prefix lands, then EIO.
                let cut = self.state.draw_below(buf.len().max(1) as u64) as usize;
                if cut > 0 {
                    let _ = self.inner.write_all(&buf[..cut]);
                    self.state
                        .bytes_written
                        .fetch_add(cut as u64, Ordering::Relaxed);
                }
                self.state
                    .injected_torn_writes
                    .fetch_add(1, Ordering::Relaxed);
                self.state.record("torn-write");
                return Err(eio("torn write"));
            }
            if config.eio_prob > 0.0 && self.state.draw() < config.eio_prob {
                self.state.injected_eio.fetch_add(1, Ordering::Relaxed);
                self.state.record("eio");
                return Err(eio("write"));
            }
        }
        self.inner.write_all(buf)?;
        self.state
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.state.syncs.fetch_add(1, Ordering::Relaxed);
        let config = *self.state.config.lock();
        if self.state.active(&config) {
            self.state.latency(&config);
            if config.fsync_fail_prob > 0.0 && self.state.draw() < config.fsync_fail_prob {
                self.state
                    .injected_fsync_failures
                    .fetch_add(1, Ordering::Relaxed);
                self.state.record("fsync-fail");
                // Like a real failing fsync, data may or may not be
                // durable; the inner sync is deliberately skipped.
                return Err(eio("fsync"));
            }
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        let config = *self.state.config.lock();
        if self.state.active(&config)
            && config.eio_prob > 0.0
            && self.state.draw() < config.eio_prob
        {
            self.state.injected_eio.fetch_add(1, Ordering::Relaxed);
            self.state.record("eio");
            return Err(eio("truncate"));
        }
        self.inner.truncate(len)
    }

    // Deliberately no `try_clone`: a background sync thread would
    // interleave its RNG draws with the writer's, breaking the
    // replay-from-seed guarantee. Under fault injection the WAL falls
    // back to in-line fsyncs, which exercise the same failure rules.
}

impl StorageIo for FaultIo {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        self.state.writes.fetch_add(1, Ordering::Relaxed);
        self.check_write_op("create")?;
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>> {
        self.state.writes.fetch_add(1, Ordering::Relaxed);
        self.check_write_op("open_append")?;
        let inner = self.inner.open_append(path, truncate_to)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.check_read_op("read")?;
        self.inner.read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.check_read_op("read_range")?;
        self.inner.read_range(path, offset, len)
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        self.inner.file_len(path)
    }

    // Namespace ops are kept fault-free: quarantine moves and crash
    // cleanup must be able to make progress even mid-outage, and the
    // interesting failure modes (lost acks, torn journals, poisoned
    // fsync) all live on the data path.
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.inner.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dcdb-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn std_io_round_trips() {
        let path = temp("std-roundtrip");
        let io = StdIo;
        let mut f = io.create(&path).unwrap();
        f.write_all(b"hello world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"hello world");
        assert_eq!(io.read_range(&path, 6, 5).unwrap(), b"world");
        assert_eq!(io.file_len(&path).unwrap(), 11);
        let mut f = io.open_append(&path, 5).unwrap();
        f.write_all(b"!").unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"hello!");
        io.remove(&path).unwrap();
        assert!(io.read(&path).is_err());
    }

    #[test]
    fn fault_io_is_transparent_when_quiet() {
        let path = temp("quiet");
        let io = FaultIo::new(Arc::new(StdIo), FaultConfig::quiet(7));
        let mut f = io.create(&path).unwrap();
        f.write_all(b"data").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"data");
        let s = io.stats();
        assert_eq!(
            s.injected_eio + s.injected_enospc + s.injected_fsync_failures,
            0
        );
        assert_eq!(s.bytes_written, 4);
        StdIo.remove(&path).ok();
    }

    #[test]
    fn enospc_fires_after_budget_and_is_deterministic() {
        let path = temp("enospc");
        let mut cfg = FaultConfig::quiet(42);
        cfg.enospc_after_bytes = Some(10);
        let io = FaultIo::new(Arc::new(StdIo), cfg);
        let mut f = io.create(&path).unwrap();
        f.write_all(b"12345").unwrap();
        f.write_all(b"1234").unwrap();
        // 9 bytes down, budget 10: the next 5-byte write must fail.
        let err = f.write_all(b"67890").unwrap_err();
        assert!(err.to_string().contains("os error 28"), "{err}");
        assert_eq!(io.stats().injected_enospc, 1);
        // And stays failing: the disk is "full".
        assert!(f.write_all(b"x").is_err());
        StdIo.remove(&path).ok();
    }

    #[test]
    fn torn_writes_leave_a_strict_prefix() {
        let path = temp("torn");
        let mut cfg = FaultConfig::quiet(1234);
        cfg.torn_write_prob = 1.0;
        let io = FaultIo::new(Arc::new(StdIo), cfg);
        let mut f = io.create(&path).unwrap();
        assert!(f.write_all(&[0xAB; 64]).is_err());
        drop(f);
        let on_disk = StdIo.read(&path).unwrap();
        assert!(on_disk.len() < 64, "torn write persisted fully");
        assert!(on_disk.iter().all(|&b| b == 0xAB));
        assert_eq!(io.stats().injected_torn_writes, 1);
        StdIo.remove(&path).ok();
    }

    #[test]
    fn fsync_failures_and_eio_replay_from_seed() {
        let run = |seed: u64| {
            let path = temp(&format!("replay-{seed}"));
            let io = FaultIo::new(Arc::new(StdIo), FaultConfig::quiet(seed));
            let mut f = io.create(&path).unwrap();
            let mut cfg = FaultConfig::quiet(seed);
            cfg.fsync_fail_prob = 0.5;
            cfg.eio_prob = 0.3;
            io.set_config(cfg);
            let mut outcomes = Vec::new();
            for i in 0..50 {
                outcomes.push(f.write_all(&[i as u8]).is_ok());
                outcomes.push(f.sync().is_ok());
            }
            drop(f);
            StdIo.remove(&path).ok();
            (outcomes, io.stats())
        };
        let (a, sa) = run(99);
        let (b, sb) = run(99);
        assert_eq!(a, b, "same seed must replay identically");
        assert_eq!(sa, sb);
        assert!(sa.injected_fsync_failures > 0);
        assert!(sa.injected_eio > 0);
        let (c, _) = run(100);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn window_gates_faults_on_virtual_time() {
        let path = temp("window");
        let mut cfg = FaultConfig::quiet(5).with_window_ms(1_000, 2_000);
        cfg.eio_prob = 1.0;
        let io = FaultIo::new(Arc::new(StdIo), cfg);
        let mut f = io.create(&path).unwrap();
        // Before the window: clean.
        assert!(f.write_all(b"a").is_ok());
        io.advance(Timestamp::from_millis(1_500));
        assert!(f.write_all(b"b").is_err());
        io.advance(Timestamp::from_millis(2_500));
        assert!(f.write_all(b"c").is_ok());
        drop(f);
        assert_eq!(StdIo.read(&path).unwrap(), b"ac");
        StdIo.remove(&path).ok();
    }

    #[test]
    fn clear_faults_heals_the_wrapper() {
        let path = temp("clear");
        let mut cfg = FaultConfig::quiet(9);
        cfg.eio_prob = 1.0;
        let io = FaultIo::new(Arc::new(StdIo), cfg);
        assert!(io.create(&path).is_err());
        io.clear_faults();
        let mut f = io.create(&path).unwrap();
        f.write_all(b"ok").unwrap();
        drop(f);
        StdIo.remove(&path).ok();
    }

    #[test]
    fn latency_is_accounted_virtually() {
        let path = temp("latency");
        let mut cfg = FaultConfig::quiet(3);
        cfg.latency_ns = 1_000_000;
        let io = FaultIo::new(Arc::new(StdIo), cfg);
        let mut f = io.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(io.stats().injected_latency_ns >= 3_000_000);
        StdIo.remove(&path).ok();
    }

    #[test]
    fn std_io_sync_dir_reports_its_errors() {
        StdIo.sync_dir(&std::env::temp_dir()).unwrap();
        assert!(StdIo.sync_dir(&temp("no-such-dir")).is_err());
    }

    /// An outcome with an I/O error reduced to its kind, so the real
    /// filesystem's messages and `MemIo`'s compare equal.
    fn outcome<T: std::fmt::Debug>(r: Result<T>) -> String {
        match r {
            Ok(v) => format!("{v:?}"),
            Err(DcdbError::Io(e)) => format!("{:?}", e.kind()),
            Err(e) => format!("{e}"),
        }
    }

    /// Every op of the VFS once, with the edge cases the engine meets.
    fn script(io: &dyn StorageIo, dir: &Path) -> Vec<String> {
        let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
        let mut out = vec![
            outcome(io.read(&a)),
            outcome(io.file_len(&a)),
            outcome(io.open_append(&a, 0).map(drop)),
            outcome(io.remove(&a)),
            outcome(io.rename(&a, &b)),
        ];
        let mut f = io.create(&a).unwrap();
        f.write_all(b"hello world").unwrap();
        f.sync().unwrap();
        out.push(outcome(io.read_range(&a, 6, 5)));
        out.push(outcome(io.read_range(&a, 6, 6)));
        out.push(outcome(io.read_range(&a, 1 << 40, 1)));
        // A handle keeps writing to its file across a rename.
        io.rename(&a, &b).unwrap();
        f.write_all(b"!").unwrap();
        out.push(outcome(io.read(&b)));
        out.push(outcome(io.read(&a)));
        f.truncate(5).unwrap();
        f.write_all(b"?").unwrap();
        drop(f);
        // Reopening past the end extends with zeros.
        let mut f = io.open_append(&b, 8).unwrap();
        f.write_all(b"x").unwrap();
        drop(f);
        out.push(outcome(io.read(&b)));
        io.create(&c).unwrap().write_all(b"c").unwrap();
        io.create(&b).unwrap();
        out.push(outcome(io.file_len(&b)));
        let name = |p: PathBuf| p.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
        let mut names: Vec<String> = io.list(dir).unwrap().into_iter().map(name).collect();
        names.sort();
        out.push(format!("{names:?}"));
        out.push(outcome(io.sync_dir(dir)));
        out.push(outcome(io.remove(&c)));
        out
    }

    #[test]
    fn mem_io_answers_as_the_real_filesystem_does() {
        let dir = temp("script-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let real = script(&StdIo, &dir);
        std::fs::remove_dir_all(&dir).ok();
        let mem = MemIo::default();
        assert_eq!(script(&mem, &dir), real);
        assert_eq!(real[0], "NotFound");
        assert_eq!(real[6], "UnexpectedEof");
        assert_eq!(real[10], format!("{:?}", b"hello?\0\0x".to_vec()));
        // Only files directly under a directory are its entries, sorted.
        mem.create(Path::new("/d/z")).unwrap();
        mem.create(Path::new("/d/sub/y")).unwrap();
        mem.create(Path::new("/d/a")).unwrap();
        let listed = mem.list(Path::new("/d")).unwrap();
        assert_eq!(listed, [Path::new("/d/a"), Path::new("/d/z")]);
        // No offset or length panics.
        assert!(mem.read_range(Path::new("/d/a"), u64::MAX, 1).is_err());
        assert!(mem.read_range(Path::new("/d/a"), 0, usize::MAX).is_err());
    }

    /// A seeded fault schedule over a disk, as its `(outcomes, stats,
    /// trace witness)`.
    fn faulted_run(inner: Arc<dyn StorageIo>, path: &Path) -> (Vec<bool>, FaultIoStats, String) {
        let io = FaultIo::new(inner, FaultConfig::quiet(77));
        let trace = EventTrace::new();
        io.set_trace(trace.clone(), "dev");
        let mut f = io.create(path).unwrap();
        io.set_config(FaultConfig {
            eio_prob: 0.2,
            fsync_fail_prob: 0.2,
            torn_write_prob: 0.1,
            enospc_after_bytes: Some(400),
            ..FaultConfig::quiet(77)
        });
        let mut outcomes = Vec::new();
        for i in 0..60u8 {
            outcomes.push(f.write_all(&[i; 9]).is_ok());
            outcomes.push(f.sync().is_ok());
            outcomes.push(f.truncate(u64::from(i) * 3).is_ok());
            outcomes.push(io.read_range(path, 0, 2).is_ok());
        }
        drop(f);
        (outcomes, io.stats(), trace.witness())
    }

    #[test]
    fn fault_io_injects_the_same_faults_over_either_disk() {
        let path = temp("faulted");
        let real = faulted_run(Arc::new(StdIo), &path);
        StdIo.remove(&path).ok();
        let mem = faulted_run(Arc::new(MemIo::default()), &path);
        assert_eq!(mem, real);
        assert!(real.1.injected_eio > 0 && real.1.injected_enospc > 0);
    }

    #[test]
    fn an_injected_truncate_eio_is_traced() {
        let io = FaultIo::new(Arc::new(MemIo::default()), FaultConfig::quiet(3));
        let trace = EventTrace::new();
        io.set_trace(trace.clone(), "dev");
        let mut f = io.create(Path::new("/f")).unwrap();
        io.set_config(FaultConfig {
            eio_prob: 1.0,
            ..FaultConfig::quiet(3)
        });
        assert!(f.truncate(0).is_err());
        assert_eq!(io.stats().injected_eio, 1);
        assert_eq!(trace.tail(), ["0 io dev eio\n"]);
    }
}
