//! The maintenance thread under real threads, on a real directory.
//!
//! * Readers racing a writer that seals every few hundred readings and
//!   compacts every few seals get whole answers: every acknowledged
//!   reading once, nothing else, and every complete rollup bucket whole.
//! * Every sealed file is created and read back on the maintenance
//!   thread, none on the thread that inserts and calls `maintain`.
//! * A fold while the rollup seal writes is neither lost nor marked
//!   clean, before and after a reopen.
//! * A seal that fails on the thread loses nothing, its error comes back
//!   from the next `maintain`, and `Drop` runs what is queued.
//! * Readings buffered under ReadOnly while a seal writes stay buffered
//!   until a journal or a segment holds them.
//! * A job that panics stops maintenance for good (fail-stop) and leaves
//!   every answer whole.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::Result;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::{Clock, Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_storage::io::IoFile;
use dcdb_storage::{
    AggFrame, DurableBackend, DurableConfig, FaultConfig, FaultIo, FsyncPolicy, HealthConfig,
    HealthState, StdIo, StorageEngine, StorageIo,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("dcdb-maintenance-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn topic(k: usize) -> Topic {
    Topic::parse(&format!("/r0/n{k}/power")).unwrap()
}

fn secs(s: u64) -> Timestamp {
    Timestamp::from_secs(s)
}

/// The value sensor `k` reads at second `s`.
fn value(k: usize, s: u64) -> i64 {
    (s * 7 + k as u64) as i64
}

/// One reading per sensor at second `s`, as one insert group.
fn group(sensors: usize, s: u64) -> Vec<(Topic, ReadingBatch)> {
    (0..sensors)
        .map(|k| {
            let batch = ReadingBatch::from_columns(vec![secs(s).as_nanos()], vec![value(k, s)]);
            (topic(k), batch)
        })
        .collect()
}

fn config(memtable: usize) -> DurableConfig {
    DurableConfig {
        fsync: FsyncPolicy::Never,
        memtable_max_readings: memtable,
        compact_min_segments: 3,
        ..DurableConfig::default()
    }
}

/// Every tier of every sensor equals the aggregate of its raw answer.
fn assert_tiers_equal_raw(db: &DurableBackend, sensors: usize, what: &str) {
    for k in 0..sensors {
        let raw = db.query(&topic(k), Timestamp::ZERO, Timestamp::MAX);
        for width in db.rollup_tiers() {
            let frames = db.query_frames(&topic(k), width, Timestamp::ZERO, Timestamp::MAX);
            let want = AggFrame::from_readings(width, &raw);
            assert_eq!(frames, want, "{what}: sensor {k}, {width} ns tier");
        }
    }
}

#[test]
fn answers_stay_whole_while_the_thread_seals_and_compacts() {
    const SENSORS: usize = 4;
    const SECONDS: u64 = 6_000;
    const TIER: u64 = 10 * NS_PER_SEC;
    let dir = TempDir::new("answers");
    // A seal every 75 seconds of data, a merge every third seal.
    let db = DurableBackend::open(&dir.0, config(300)).unwrap();
    let acked = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader in 0..2u64 {
            let (db, acked, done) = (&db, &acked, &done);
            scope.spawn(move || {
                let mut state = 0x9E37_79B9_7F4A_7C15 ^ (reader + 1);
                let mut next = move |below: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % below
                };
                let mut checked = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let k = next(SENSORS as u64) as usize;
                    let t0 = 1 + next(SECONDS);
                    let t1 = t0 + next(SECONDS - t0 + 1);
                    let floor = acked.load(Ordering::SeqCst);
                    let got = db.query(&topic(k), secs(t0), secs(t1));
                    let frames = db.query_frames(&topic(k), TIER, secs(t0), secs(t1));
                    let ceil = acked.load(Ordering::SeqCst);
                    // Exactly the seconds t0, t0 + 1, … up to somewhere
                    // between the last second acknowledged before the read
                    // and the one in flight after it: every acknowledged
                    // reading, once, right.
                    for (i, r) in got.iter().enumerate() {
                        let s = t0 + i as u64;
                        assert_eq!(r.ts, secs(s), "sensor {k} [{t0}, {t1}] at {i}: {got:?}");
                        assert_eq!(r.value, value(k, s), "sensor {k} at {s} s");
                    }
                    let end = t0 + got.len() as u64;
                    assert!(
                        end >= t0.max(t1.min(floor) + 1) && end <= t0.max(t1.min(ceil + 1) + 1),
                        "sensor {k} [{t0}, {t1}]: {} readings, {floor}..{ceil} s acknowledged",
                        got.len()
                    );
                    // Every bucket acknowledged whole before the read is
                    // served whole.
                    assert!(frames.windows(2).all(|w| w[0].bucket_ns < w[1].bucket_ns));
                    for frame in &frames {
                        let from = (frame.bucket_ns / NS_PER_SEC).max(1);
                        let to = (frame.bucket_ns + TIER) / NS_PER_SEC - 1;
                        if to <= floor {
                            let want: Vec<SensorReading> = (from..=to)
                                .map(|s| SensorReading::new(value(k, s), secs(s)))
                                .collect();
                            assert_eq!(
                                *frame,
                                AggFrame::from_readings(TIER, &want)[0],
                                "sensor {k}: bucket at {from} s, {floor} s acknowledged"
                            );
                        }
                    }
                    checked += 1;
                }
                assert!(checked > 0);
            });
        }
        for s in 1..=SECONDS {
            assert_eq!(db.insert_many(&group(SENSORS, s)), Vec::<usize>::new());
            acked.store(s, Ordering::SeqCst);
            if s % 50 == 0 {
                db.maintain(secs(s)).unwrap();
            }
        }
        done.store(true, Ordering::SeqCst);
    });
    db.flush().unwrap();
    let e = db.engine_stats();
    assert!(e.seals >= 70, "{e:?}");
    assert!(e.compactions >= 20, "{e:?}");
    assert_eq!(e.read_errors, 0, "{e:?}");
    for k in 0..SENSORS {
        let all = db.query(&topic(k), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(all.len() as u64, SECONDS, "sensor {k}");
    }
    assert_tiers_equal_raw(&db, SENSORS, "after flush");
}

/// Records the thread of every `create` and `read_range` on a sealed
/// file (`seg-`/`rlu-`), forwarding everything to [`StdIo`].
#[derive(Debug, Default)]
struct CountingIo {
    calls: Mutex<Vec<(ThreadId, &'static str, String)>>,
}

impl CountingIo {
    fn note(&self, op: &'static str, path: &Path) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("seg-") || name.starts_with("rlu-") {
            let me = std::thread::current().id();
            self.calls.lock().unwrap().push((me, op, name));
        }
    }
}

impl StorageIo for CountingIo {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        self.note("create", path);
        StdIo.create(path)
    }
    fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>> {
        StdIo.open_append(path, truncate_to)
    }
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        StdIo.read(path)
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.note("read_range", path);
        StdIo.read_range(path, offset, len)
    }
    fn file_len(&self, path: &Path) -> Result<u64> {
        StdIo.file_len(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        StdIo.rename(from, to)
    }
    fn remove(&self, path: &Path) -> Result<()> {
        StdIo.remove(path)
    }
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        StdIo.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        StdIo.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> Result<()> {
        StdIo.sync_dir(dir)
    }
}

#[test]
fn sealed_files_are_written_and_read_on_the_maintenance_thread_alone() {
    let dir = TempDir::new("counting");
    let io = Arc::new(CountingIo::default());
    let db = DurableBackend::open_with(Arc::clone(&io) as _, &dir.0, config(200)).unwrap();
    for s in 1..=1_000u64 {
        assert_eq!(db.insert_many(&group(8, s)), Vec::<usize>::new());
        if s % 20 == 0 {
            db.maintain(secs(s)).unwrap();
        }
    }
    db.flush().unwrap();
    let e = db.engine_stats();
    assert!(e.seals >= 3 && e.compactions >= 1, "{e:?}");
    let calls = io.calls.lock().unwrap();
    let creates = calls.iter().filter(|(_, op, _)| *op == "create").count();
    let reads = calls.len() - creates;
    assert!(
        creates >= 3 && reads > 0,
        "{creates} creates, {reads} reads"
    );
    let me = std::thread::current().id();
    let here: Vec<_> = calls.iter().filter(|(thread, ..)| *thread == me).collect();
    assert!(
        here.is_empty(),
        "{} of {} sealed-file calls ran on the inserting thread, first {:?}",
        here.len(),
        calls.len(),
        here.first()
    );
}

/// Pauses the first `create` of a file whose name starts with the armed
/// prefix until released, forwarding everything to `inner`.
#[derive(Debug)]
struct GatedIo {
    inner: Arc<dyn StorageIo>,
    gate: Mutex<Gate>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct Gate {
    armed: Option<&'static str>,
    /// A gated `create` is waiting.
    reached: bool,
    released: bool,
    /// The released `create` panics instead of going on.
    panics: bool,
}

impl GatedIo {
    fn over(inner: Arc<dyn StorageIo>) -> Arc<GatedIo> {
        Arc::new(GatedIo {
            inner,
            gate: Mutex::default(),
            changed: Condvar::new(),
        })
    }

    fn arm(&self, prefix: &'static str) {
        *self.gate.lock().unwrap() = Gate {
            armed: Some(prefix),
            ..Gate::default()
        };
    }

    /// Blocks until a gated `create` waits.
    fn wait_reached(&self) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.reached {
            gate = self.changed.wait(gate).unwrap();
        }
    }

    fn release(&self) {
        let mut gate = self.gate.lock().unwrap();
        gate.armed = None;
        gate.released = true;
        self.changed.notify_all();
    }

    /// Releases the waiting `create` into a panic.
    fn release_into_panic(&self) {
        self.gate.lock().unwrap().panics = true;
        self.release();
    }
}

impl StorageIo for GatedIo {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut gate = self.gate.lock().unwrap();
        if gate.armed.is_some_and(|prefix| name.starts_with(prefix)) {
            gate.reached = true;
            self.changed.notify_all();
            while !gate.released {
                gate = self.changed.wait(gate).unwrap();
            }
            let panics = std::mem::take(&mut gate.panics);
            drop(gate);
            assert!(!panics, "the disk layer panicked creating {name}");
            return self.inner.create(path);
        }
        drop(gate);
        self.inner.create(path)
    }
    fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>> {
        self.inner.open_append(path, truncate_to)
    }
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.inner.read_range(path, offset, len)
    }
    fn file_len(&self, path: &Path) -> Result<u64> {
        self.inner.file_len(path)
    }
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

#[test]
fn a_fold_while_the_rollup_seal_writes_is_kept() {
    let dir = TempDir::new("rollup-window");
    let io = GatedIo::over(Arc::new(StdIo));
    let db = DurableBackend::open_with(Arc::clone(&io) as _, &dir.0, config(100)).unwrap();
    let sensor = topic(0);
    for s in 1..=99u64 {
        db.insert(&sensor, SensorReading::new(value(0, s), secs(s)))
            .unwrap();
    }
    // The 100th reading fills the memtable: its seal writes the raw
    // segment, then stops at the first rollup file.
    io.arm("rlu-");
    db.insert(&sensor, SensorReading::new(value(0, 100), secs(100)))
        .unwrap();
    io.wait_reached();
    // In the window: one reading extends the open bucket, one rewrites a
    // second whose bucket's frame is in the file being written.
    db.insert(&sensor, SensorReading::new(value(0, 101), secs(101)))
        .unwrap();
    db.insert(&sensor, SensorReading::new(-5, secs(55)))
        .unwrap();
    assert_tiers_equal_raw(&db, 1, "during the rollup write");
    io.release();
    db.settle().unwrap();
    assert_tiers_equal_raw(&db, 1, "after the rollup seal");
    assert_eq!(db.engine_stats().rollup_seal_failures, 0);
    let raw = db.query(&sensor, secs(55), secs(55));
    assert_eq!(raw, vec![SensorReading::new(-5, secs(55))]);
    // The folds were left dirty: the next seal writes them, and the
    // reopened engine answers from files alone.
    db.flush().unwrap();
    drop(db);
    let db = DurableBackend::open(&dir.0, config(100)).unwrap();
    assert_eq!(db.recovery().wal_readings, 0);
    assert_tiers_equal_raw(&db, 1, "after a reopen");
}

#[test]
fn a_seal_that_fails_on_the_thread_loses_nothing() {
    let dir = TempDir::new("failed-seal");
    let faults = FaultIo::new(Arc::new(StdIo), FaultConfig::quiet(7), Clock::new());
    let io = GatedIo::over(Arc::new(faults.clone()));
    let db = DurableBackend::open_with(Arc::clone(&io) as _, &dir.0, config(100)).unwrap();
    let sensor = topic(0);
    for s in 1..=99u64 {
        db.insert(&sensor, SensorReading::new(value(0, s), secs(s)))
            .unwrap();
    }
    // Stop the seal job at its segment file; meanwhile overwrite a
    // reading the outgoing memtable holds; then fail every write.
    io.arm("seg-");
    db.insert(&sensor, SensorReading::new(value(0, 100), secs(100)))
        .unwrap();
    io.wait_reached();
    db.insert(&sensor, SensorReading::new(-1, secs(50)))
        .unwrap();
    faults.set_config(FaultConfig {
        eio_prob: 1.0,
        ..FaultConfig::quiet(7)
    });
    io.release();
    // `compact` queues behind the seal job and waits for it.
    assert!(!db.compact().unwrap());
    faults.clear_faults();
    let e = db.engine_stats();
    assert_eq!((e.seal_failures, e.sealed_segments), (1, 0), "{e:?}");
    // The memtable folded back under the newer one and its journals
    // stayed: every reading is served, the overwrite wins.
    let names: Vec<String> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names.iter().filter(|n| n.starts_with("wal-")).count(),
        2,
        "{names:?}"
    );
    assert!(!names.iter().any(|n| n.starts_with("seg-")), "{names:?}");
    let want: Vec<SensorReading> = (1..=100u64)
        .map(|s| SensorReading::new(if s == 50 { -1 } else { value(0, s) }, secs(s)))
        .collect();
    assert_eq!(db.query(&sensor, Timestamp::ZERO, Timestamp::MAX), want);
    assert_tiers_equal_raw(&db, 1, "after the failed seal");
    // The next pass returns the error (and, the disk healed, seals).
    assert!(
        db.maintain(secs(100)).is_err(),
        "the failed seal's error was lost"
    );
    db.settle().unwrap();
    assert_eq!(db.engine_stats().sealed_segments, 1);
    // A kill, then a reopen: everything acknowledged comes back.
    std::mem::forget(db);
    let db = DurableBackend::open(&dir.0, config(1_000)).unwrap();
    assert_eq!(db.query(&sensor, Timestamp::ZERO, Timestamp::MAX), want);
    assert_tiers_equal_raw(&db, 1, "after a reopen");
}

#[test]
fn readings_buffered_while_a_seal_writes_stay_buffered() {
    let dir = TempDir::new("buffered");
    let faults = FaultIo::new(Arc::new(StdIo), FaultConfig::quiet(11), Clock::new());
    let io = GatedIo::over(Arc::new(faults.clone()));
    let degrading = DurableConfig {
        health: HealthConfig {
            max_retries: 0,
            retry_backoff_base_ms: 0,
            readonly_after: 1,
            buffer_max_readings: 1_000,
        },
        ..config(100)
    };
    let db = DurableBackend::open_with(Arc::clone(&io) as _, &dir.0, degrading).unwrap();
    let sensor = topic(0);
    for s in 1..=99u64 {
        db.insert(&sensor, SensorReading::new(value(0, s), secs(s)))
            .unwrap();
    }
    // Stop the seal job at its segment file, then break the journal: the
    // engine turns ReadOnly and buffers into the fresh memtable.
    io.arm("seg-");
    db.insert(&sensor, SensorReading::new(value(0, 100), secs(100)))
        .unwrap();
    io.wait_reached();
    faults.set_config(FaultConfig {
        eio_prob: 1.0,
        ..FaultConfig::quiet(11)
    });
    for s in 101..=110u64 {
        let _ = db.insert(&sensor, SensorReading::new(value(0, s), secs(s)));
    }
    let before = db.health_report();
    assert_eq!(before.state, HealthState::ReadOnly, "{before:?}");
    assert!(before.buffered > 0, "{before:?}");
    // The seal writes only what the outgoing memtable held: the readings
    // buffered since are in no journal and no segment, and stay buffered.
    faults.clear_faults();
    io.release();
    db.settle().unwrap();
    assert_eq!(db.engine_stats().sealed_segments, 1);
    let h = db.health_report();
    assert_eq!((h.buffered, h.durable), (before.buffered, 100), "{h:?}");
    assert!(h.conserved(), "{h:?}");
    // A probe re-journals them; then a kill loses nothing acknowledged.
    db.maintain(secs(10_000)).unwrap();
    let h = db.health_report();
    assert_eq!((h.state, h.buffered), (HealthState::Healthy, 0), "{h:?}");
    assert_eq!(h.durable, 100 + before.buffered, "{h:?}");
    db.settle().unwrap();
    let want = db.query(&sensor, Timestamp::ZERO, Timestamp::MAX);
    assert_eq!(want.len() as u64, 100 + before.buffered);
    std::mem::forget(db);
    let db = DurableBackend::open(&dir.0, config(1_000)).unwrap();
    assert_eq!(db.query(&sensor, Timestamp::ZERO, Timestamp::MAX), want);
}

#[test]
fn a_panicking_job_stops_maintenance_and_keeps_every_answer() {
    let dir = TempDir::new("panic");
    let io = GatedIo::over(Arc::new(StdIo));
    let db = DurableBackend::open_with(Arc::clone(&io) as _, &dir.0, config(100)).unwrap();
    let sensor = topic(0);
    let insert = |s: u64| db.insert(&sensor, SensorReading::new(value(0, s), secs(s)));
    for s in 1..=99u64 {
        insert(s).unwrap();
    }
    // The seal job panics in its segment write, halfway through a seal.
    io.arm("seg-");
    insert(100).unwrap();
    io.wait_reached();
    io.release_into_panic();
    let settled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.settle()));
    assert!(settled.is_err(), "a job's panic came back as {settled:?}");
    // Every later call that needs the thread panics, so nothing replaces
    // the half-sealed memtable: every acknowledged reading is served.
    for s in 101..=150u64 {
        insert(s).unwrap();
    }
    let maintained =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.maintain(secs(150))));
    assert!(maintained.is_err(), "maintain went on: {maintained:?}");
    let want: Vec<SensorReading> = (1..=150u64)
        .map(|s| SensorReading::new(value(0, s), secs(s)))
        .collect();
    assert_eq!(db.query(&sensor, Timestamp::ZERO, Timestamp::MAX), want);
    assert_tiers_equal_raw(&db, 1, "after the panic");
    // Dropping the engine does not panic, and a reopen recovers it all
    // from the journals the half-done seal left.
    drop(db);
    let db = DurableBackend::open(&dir.0, config(1_000)).unwrap();
    assert_eq!(db.recovery().wal_readings, 150);
    assert_eq!(db.query(&sensor, Timestamp::ZERO, Timestamp::MAX), want);
    assert_tiers_equal_raw(&db, 1, "after a reopen");
}

#[test]
fn drop_runs_the_queued_jobs_before_the_thread_stops() {
    let dir = TempDir::new("drop");
    {
        let db = DurableBackend::open(&dir.0, config(100)).unwrap();
        for s in 1..=100u64 {
            db.insert(&topic(0), SensorReading::new(value(0, s), secs(s)))
                .unwrap();
        }
        db.maintain(secs(100)).unwrap();
        // The seal is queued, not done; dropping must not lose it.
    }
    let db = DurableBackend::open(&dir.0, config(100)).unwrap();
    let report = db.recovery();
    assert_eq!((report.segments, report.segment_readings), (1, 100));
    assert_eq!(report.wal_readings, 0);
}
