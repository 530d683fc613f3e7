//! The drain is the unit of journaling: `StorageEngine::insert_many`
//! must store, acknowledge and account exactly what its entries
//! inserted one by one would — in fewer journal writes.
//!
//! Three groups of tests: *equivalence* (a seeded property: same bytes
//! on disk, same answers, same counters, same recovery), *I/O count*
//! (how many `write(2)`s and fsyncs a drain costs under each policy,
//! and how many records each sync covers), and *faults* (a torn,
//! failing or refused group write never acknowledges what it did not
//! journal and never shows what it did not acknowledge).

use dcdb_wintermute::dcdb_bus::{Broker, MessageBus};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::error::{DcdbError, Result};
use dcdb_wintermute::dcdb_common::{Clock, ReadingBatch, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_federation::NodeEngine;
use dcdb_wintermute::dcdb_storage::io::IoFile;
use dcdb_wintermute::dcdb_storage::wal::WAL_MAGIC;
use dcdb_wintermute::dcdb_storage::{
    AggFrame, DurableBackend, DurableConfig, FaultConfig, FaultIo, FsyncPolicy, HealthConfig,
    HealthState, InsertAck, StdIo, StorageEngine, StorageHealthReport, StorageIo, StorageStats,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

type Group = Vec<(Topic, ReadingBatch)>;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dcdb-group-commit-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Deterministic xorshift64*, so the properties reproduce from a seed.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// No backoff sleeps; everything else the engine's default.
fn quick_health() -> HealthConfig {
    HealthConfig {
        retry_backoff_base_ms: 0,
        ..HealthConfig::default()
    }
}

/// Every file of `dir` (not its subdirectories) by name.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Equivalence
// ---------------------------------------------------------------------------

/// A message sequence over a few sensors: batch sizes 1..=300 (mostly
/// small, as on the bus), the odd empty batch, timestamps that mostly
/// ascend per sensor but repeat and run backwards now and then.
fn messages(rng: &mut Rng) -> Group {
    let topics: Vec<Topic> = (0..6)
        .map(|i| t(&format!("/rack0/node{i}/power")))
        .collect();
    let mut clock = vec![1_000_000_000u64; topics.len()];
    let count = 60 + rng.below(120) as usize;
    (0..count)
        .map(|_| {
            let s = rng.below(topics.len() as u64) as usize;
            let len = match rng.below(20) {
                0 => 0,
                1..=11 => 1,
                12..=16 => 1 + rng.below(8) as usize,
                _ => 1 + rng.below(300) as usize,
            };
            let mut batch = ReadingBatch::with_capacity(len);
            for _ in 0..len {
                let ts = match rng.below(12) {
                    // A timestamp this sensor has already used (or
                    // passed): a duplicate, or late data.
                    0 => clock[s] - rng.below(clock[s].min(40_000_000_000)),
                    1 => clock[s],
                    _ => {
                        clock[s] += 1 + rng.below(2_000_000_000);
                        clock[s]
                    }
                };
                batch.push(rng.next() as i64 >> 20, Timestamp(ts));
            }
            (topics[s].clone(), batch)
        })
        .collect()
}

/// Everything two engines fed the same readings must agree on: each
/// file of the data directory byte for byte, every sensor's raw and
/// rollup answers, and the three counter blocks.
struct Observed {
    files: BTreeMap<String, Vec<u8>>,
    answers: Vec<String>,
    counters: [String; 3],
}

fn observe(db: &DurableBackend, dir: &Path, topics: &[Topic]) -> Observed {
    let mut answers = Vec::new();
    for topic in topics {
        let raw = db.query(topic, Timestamp::ZERO, Timestamp::MAX);
        answers.push(format!("{topic}: {raw:?}"));
        for width in db.rollup_tiers() {
            let frames = db.query_frames(topic, width, Timestamp::ZERO, Timestamp::MAX);
            answers.push(format!("{topic} {width}: {frames:?}"));
        }
    }
    Observed {
        files: dir_bytes(dir),
        answers,
        counters: [
            format!("{:?}", db.engine_stats()),
            format!("{:?}", db.health_report()),
            format!("{:?}", db.stats()),
        ],
    }
}

/// `assert_eq!` on two [`Observed`] that names what differs instead of
/// printing two data directories.
fn assert_same(one: &Observed, many: &Observed, what: &str) {
    assert_eq!(one.counters, many.counters, "{what}");
    let names = |o: &Observed| o.files.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(one), names(many), "{what}");
    for (name, bytes) in &one.files {
        assert!(bytes == &many.files[name], "{what}: {name} differs");
    }
    for (a, b) in one.answers.iter().zip(&many.answers) {
        assert!(
            a == b,
            "{what}: answers differ\n one: {a:.400}\nmany: {b:.400}"
        );
    }
}

#[test]
fn groups_are_equivalent_to_their_entries_one_by_one() {
    let policies = [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::Never,
    ];
    let mut replayed = 0;
    for seed in 1..=16u64 {
        for (p, fsync) in policies.into_iter().enumerate() {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + p as u64);
            let sent = messages(&mut rng);
            let mut topics: Vec<Topic> = sent.iter().map(|(topic, _)| topic.clone()).collect();
            topics.sort();
            topics.dedup();
            let readings: usize = sent.iter().map(|(_, batch)| batch.len()).sum();
            let config = DurableConfig {
                fsync,
                // A few seals, falling inside groups.
                memtable_max_readings: readings / 4,
                health: quick_health(),
                ..DurableConfig::default()
            };
            let what = format!("seed {seed} {fsync:?}");
            let one_dir = temp_dir(&format!("eq-one-{seed}-{p}"));
            let many_dir = temp_dir(&format!("eq-many-{seed}-{p}"));

            let one = DurableBackend::open(&one_dir, config.clone()).unwrap();
            for (topic, batch) in &sent {
                one.insert_columns(topic, batch).unwrap();
            }
            let many = DurableBackend::open(&many_dir, config.clone()).unwrap();
            let mut rest = sent.as_slice();
            while !rest.is_empty() {
                let take = (1 + rng.below(48) as usize).min(rest.len());
                let (group, tail) = rest.split_at(take);
                assert_eq!(many.insert_many(group), Vec::<usize>::new(), "{what}");
                rest = tail;
            }

            let before = observe(&one, &one_dir, &topics);
            assert!(before.files.keys().any(|f| f.starts_with("seg-")), "{what}");
            assert_same(&before, &observe(&many, &many_dir, &topics), &what);
            // Crash both; what each recovers is the same again.
            std::mem::forget(one);
            std::mem::forget(many);
            let one = DurableBackend::open(&one_dir, config.clone()).unwrap();
            let many = DurableBackend::open(&many_dir, config).unwrap();
            assert_eq!(one.recovery(), many.recovery(), "{what}");
            replayed += one.recovery().wal_batches;
            assert_same(
                &observe(&one, &one_dir, &topics),
                &observe(&many, &many_dir, &topics),
                &format!("{what} after reopen"),
            );
            drop((one, many));
            std::fs::remove_dir_all(&one_dir).ok();
            std::fs::remove_dir_all(&many_dir).ok();
        }
    }
    assert!(replayed > 0, "no reopen replayed a journal");
}

// ---------------------------------------------------------------------------
// I/O count
// ---------------------------------------------------------------------------

/// Counts what the engine does to its journal files, and checks the
/// sync cadence while it watches: a write starts with fewer than `n`
/// records unsynced, and a sync covers at least `n` records and at most
/// `n - 1 + k`, `k` being the records of the write that closed the
/// window. Its files cannot be cloned, so `EveryN` syncs in line and
/// each sync request is one `sync` call here.
#[derive(Debug, Default)]
struct CountingIo {
    wal_writes: AtomicU64,
    wal_syncs: AtomicU64,
    /// The `EveryN` window to hold the journal to (0: no check).
    window: AtomicU64,
}

struct CountingFile {
    inner: Box<dyn IoFile>,
    io: Option<Arc<CountingIo>>,
    unsynced_records: u64,
    /// Records of the last journal write.
    last_write_records: u64,
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

impl IoFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        if let Some(io) = &self.io {
            if buf != WAL_MAGIC {
                io.wal_writes.fetch_add(1, Ordering::Relaxed);
                let window = io.window.load(Ordering::Relaxed);
                assert!(
                    window == 0 || self.unsynced_records < window,
                    "a write starts past a sync point: {} records unsynced, window {window}",
                    self.unsynced_records
                );
                self.last_write_records = records_in(buf);
                self.unsynced_records += self.last_write_records;
            }
        }
        self.inner.write_all(buf)
    }
    fn sync(&mut self) -> Result<()> {
        if let Some(io) = &self.io {
            if self.unsynced_records > 0 {
                io.wal_syncs.fetch_add(1, Ordering::Relaxed);
                let window = io.window.load(Ordering::Relaxed);
                let most = window.saturating_sub(1) + self.last_write_records;
                assert!(
                    window == 0 || (window..=most).contains(&self.unsynced_records),
                    "a sync request covers {} records, window {window}, last write {}",
                    self.unsynced_records,
                    self.last_write_records
                );
            }
            self.unsynced_records = 0;
        }
        self.inner.sync()
    }
    fn truncate(&mut self, len: u64) -> Result<()> {
        self.inner.truncate(len)
    }
}

/// `StorageIo` over `StdIo` with `create` intercepted: what the two
/// test VFSs below share.
macro_rules! delegate_to_std_io {
    () => {
        fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>> {
            StdIo.open_append(path, truncate_to)
        }
        fn read(&self, path: &Path) -> Result<Vec<u8>> {
            StdIo.read(path)
        }
        fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
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
    };
}

fn is_wal(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "log")
}

#[derive(Debug)]
struct SharedCountingIo(Arc<CountingIo>);

impl StorageIo for SharedCountingIo {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        Ok(Box::new(CountingFile {
            inner: StdIo.create(path)?,
            io: is_wal(path).then(|| Arc::clone(&self.0)),
            unsynced_records: 0,
            last_write_records: 0,
        }))
    }
    delegate_to_std_io!();
}

/// One Pusher round as the benchmark shapes it: `count` sensors, one
/// one-reading message each.
fn one_reading_messages(count: usize, second: u64) -> Group {
    (0..count)
        .map(|i| {
            let topic = t(&format!(
                "/rack{:02}/node{:02}/t{:03}/value",
                i / 1600,
                (i / 100) % 16,
                i % 100
            ));
            let ts = Timestamp::from_secs(second).as_nanos() + i as u64;
            (topic, ReadingBatch::from_columns(vec![ts], vec![i as i64]))
        })
        .collect()
}

/// Journal writes and sync requests one drain of `sent` costs, through
/// the Collect Agent when `drained`, entry by entry otherwise.
fn journal_cost(name: &str, fsync: FsyncPolicy, drained: bool) -> (u64, u64) {
    let dir = temp_dir(name);
    let counts = Arc::new(CountingIo::default());
    if let FsyncPolicy::EveryN(n) = fsync {
        counts.window.store(n as u64, Ordering::Relaxed);
    }
    let config = DurableConfig {
        fsync,
        health: quick_health(),
        ..DurableConfig::default()
    };
    let engine = Arc::new(
        DurableBackend::open_with(
            Arc::new(SharedCountingIo(Arc::clone(&counts))),
            &dir,
            config,
        )
        .unwrap(),
    );
    let sent = one_reading_messages(3_200, 1);
    if drained {
        let broker = Broker::new();
        let agent_config = CollectAgentConfig {
            ingest_budget: 4_096,
            ..CollectAgentConfig::default()
        };
        let storage = Arc::clone(&engine) as Arc<dyn StorageEngine>;
        let agent = CollectAgent::new(agent_config, &broker.handle(), storage).unwrap();
        let bus = broker.handle();
        for (topic, batch) in &sent {
            bus.publish_readings(topic.clone(), &batch.to_readings())
                .unwrap();
        }
        broker.flush();
        assert_eq!(agent.process_pending(), 3_200);
        assert_eq!(agent.query_engine().stats().storage_errors, 0);
    } else {
        for (topic, batch) in &sent {
            engine.insert_columns(topic, batch).unwrap();
        }
    }
    let cost = (
        counts.wal_writes.load(Ordering::Relaxed),
        counts.wal_syncs.load(Ordering::Relaxed),
    );
    // Both ways store the same thing.
    assert_eq!(engine.health_report().durable, 3_200);
    assert_eq!(engine.engine_stats().memtable_readings, 3_200);
    // The final fsync of `Drop` covers less than a window.
    counts.window.store(0, Ordering::Relaxed);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
    cost
}

#[test]
fn a_drain_costs_one_journal_write_and_one_sync_request() {
    let every = FsyncPolicy::EveryN(64);
    assert_eq!(journal_cost("io-every-drain", every, true), (1, 1));
    assert_eq!(journal_cost("io-every-single", every, false), (3_200, 50));
    let always = FsyncPolicy::Always;
    assert_eq!(journal_cost("io-always-drain", always, true), (1, 1));
    assert_eq!(
        journal_cost("io-always-single", always, false),
        (3_200, 3_200)
    );
    let never = FsyncPolicy::Never;
    assert_eq!(journal_cost("io-never-drain", never, true), (1, 0));
    assert_eq!(journal_cost("io-never-single", never, false), (3_200, 0));
}

#[test]
fn a_replication_pump_costs_the_journal_writes_of_one_group() {
    // 512 entries (one pump's budget) into a durable standby: one group,
    // so one write and one sync request — as the same group costs when
    // the engine is handed it directly.
    let dir = temp_dir("io-pump");
    let counts = Arc::new(CountingIo::default());
    counts.window.store(64, Ordering::Relaxed);
    let config = DurableConfig {
        fsync: FsyncPolicy::EveryN(64),
        health: quick_health(),
        ..DurableConfig::default()
    };
    let io = Arc::new(SharedCountingIo(Arc::clone(&counts)));
    let standby = DurableBackend::open_with(io, &dir, config).unwrap();
    let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
    let stream = primary.attach(4_096, false, Clock::new());
    assert!(primary
        .insert_many(&one_reading_messages(512, 1))
        .is_empty());
    assert_eq!(stream.pump(primary.as_ref(), &standby, 512).unwrap(), 512);
    let pumped = counts.wal_writes.load(Ordering::Relaxed);
    assert!(standby
        .insert_many(&one_reading_messages(512, 2))
        .is_empty());
    let grouped = counts.wal_writes.load(Ordering::Relaxed) - pumped;
    assert_eq!((pumped, grouped), (1, 1));
    assert_eq!(counts.wal_syncs.load(Ordering::Relaxed), 2);
    counts.window.store(0, Ordering::Relaxed);
    drop(standby);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sync_point_falls_at_the_end_of_the_group_that_fills_the_window() {
    // Groups of every size against a window of 5, the window checked on
    // every write and sync by `CountingFile`: a sync request covers
    // between 5 and 4 + k records, k being the group that closed it.
    let dir = temp_dir("io-window");
    let counts = Arc::new(CountingIo::default());
    counts.window.store(5, Ordering::Relaxed);
    let config = DurableConfig {
        fsync: FsyncPolicy::EveryN(5),
        health: quick_health(),
        ..DurableConfig::default()
    };
    let io = Arc::new(SharedCountingIo(Arc::clone(&counts)));
    let engine = DurableBackend::open_with(io, &dir, config).unwrap();
    for size in 1..=23usize {
        let group = one_reading_messages(size, 10 + size as u64);
        assert!(engine.insert_many(&group).is_empty());
        // 1 + 2 = 3 records stay below the window, the group of 3
        // closes it (6), the group of 4 stays below it, the group of 5
        // closes it (9), and every later group fills a window alone.
        let syncs = match size {
            1 | 2 => 0,
            3 | 4 => 1,
            _ => size as u64 - 3,
        };
        assert_eq!(counts.wal_syncs.load(Ordering::Relaxed), syncs, "{size}");
    }
    counts.window.store(0, Ordering::Relaxed);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// A device that dies in the middle of a journal write: the armed
/// write lands `cut` bytes, and from then on every operation fails —
/// to the engine, the moment its process was killed.
#[derive(Debug)]
struct DyingIo {
    /// Journal writes still to pass before the fatal one (`usize::MAX`:
    /// never dies).
    writes_to_live: AtomicUsize,
    cut: usize,
    dead: AtomicBool,
    /// Length of the write that was (or would have been) fatal.
    fatal_len: AtomicUsize,
}

struct DyingFile {
    inner: Box<dyn IoFile>,
    io: Arc<DyingIo>,
}

fn dead() -> DcdbError {
    DcdbError::Io(std::io::Error::other("device is gone"))
}

impl IoFile for DyingFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        if self.io.dead.load(Ordering::Relaxed) {
            return Err(dead());
        }
        if buf != WAL_MAGIC && self.io.writes_to_live.fetch_sub(1, Ordering::Relaxed) == 0 {
            self.io.fatal_len.store(buf.len(), Ordering::Relaxed);
            if self.io.cut < buf.len() {
                self.io.dead.store(true, Ordering::Relaxed);
                self.inner.write_all(&buf[..self.io.cut])?;
                return Err(dead());
            }
        }
        self.inner.write_all(buf)
    }
    fn sync(&mut self) -> Result<()> {
        if self.io.dead.load(Ordering::Relaxed) {
            return Err(dead());
        }
        self.inner.sync()
    }
    fn truncate(&mut self, len: u64) -> Result<()> {
        if self.io.dead.load(Ordering::Relaxed) {
            return Err(dead());
        }
        self.inner.truncate(len)
    }
}

#[derive(Debug)]
struct SharedDyingIo(Arc<DyingIo>);

impl StorageIo for SharedDyingIo {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        if self.0.dead.load(Ordering::Relaxed) {
            return Err(dead());
        }
        Ok(Box::new(DyingFile {
            inner: StdIo.create(path)?,
            io: Arc::clone(&self.0),
        }))
    }
    delegate_to_std_io!();
}

/// Entry `i` of a fault-test group: sensor `i % sensors`, `1 + i % 3`
/// readings at timestamps no other entry uses — so which entries
/// survived is readable from the store. A chunk ends where a sensor
/// repeats, so the engine journals such a group `sensors` entries at a
/// time.
fn cycling_entries(count: usize, sensors: usize) -> Group {
    (0..count)
        .map(|i| {
            let batch = (0..1 + i % 3)
                .map(|j| {
                    let ts = Timestamp::from_secs(1 + 3 * i as u64 + j as u64);
                    SensorReading::new((i * 10 + j) as i64, ts)
                })
                .collect();
            (t(&format!("/rack0/node{:03}/power", i % sensors)), batch)
        })
        .collect()
}

/// Entry `i` on its own sensor: a group the engine journals whole.
fn distinct_entries(count: usize) -> Group {
    cycling_entries(count, count)
}

/// The entries of `group` outside every range of `exceptions`.
fn durable_entries(
    group: &Group,
    exceptions: &[(std::ops::Range<usize>, Result<InsertAck>)],
) -> Vec<usize> {
    let listed = |i: &usize| exceptions.iter().any(|(range, _)| range.contains(i));
    (0..group.len()).filter(|i| !listed(i)).collect()
}

/// Indices of `group` whose readings `db` holds in full; panics on an
/// entry held in part, and on a sensor holding readings of no entry.
fn present(db: &dyn StorageEngine, group: &Group) -> Vec<usize> {
    let mut topics: Vec<&Topic> = group.iter().map(|(topic, _)| topic).collect();
    topics.sort();
    topics.dedup();
    let mut held = Vec::new();
    for topic in topics {
        let got = db.query(topic, Timestamp::ZERO, Timestamp::MAX);
        let mut expected = Vec::new();
        for (i, (_, batch)) in group.iter().enumerate().filter(|(_, e)| &e.0 == topic) {
            let readings = batch.to_readings();
            let stored = readings.iter().filter(|r| got.contains(r)).count();
            assert!(
                stored == 0 || stored == readings.len(),
                "entry {i} is stored in part: {got:?}"
            );
            if stored > 0 {
                held.push(i);
                expected.extend(readings);
            }
        }
        expected.sort_by_key(|r| r.ts);
        assert_eq!(got, expected, "{topic} holds readings of no entry");
    }
    held.sort_unstable();
    held
}

#[test]
fn a_group_write_torn_at_any_byte_recovers_to_whole_records() {
    let history = distinct_entries(3);
    let group: Group = distinct_entries(9).split_off(3);
    let config = DurableConfig {
        fsync: FsyncPolicy::Never,
        health: quick_health(),
        ..DurableConfig::default()
    };
    // End offset of each of the group's records within its one write.
    let mut ends = Vec::new();
    for (topic, batch) in &group {
        let record = 8 + 2 + topic.as_str().len() + 4 + 16 * batch.len();
        ends.push(ends.last().copied().unwrap_or(0) + record);
    }
    let total = *ends.last().unwrap();
    for cut in 0..=total {
        let dir = temp_dir(&format!("torn-{cut}"));
        let io = Arc::new(DyingIo {
            writes_to_live: AtomicUsize::new(1),
            cut,
            dead: AtomicBool::new(false),
            fatal_len: AtomicUsize::new(0),
        });
        let vfs = Arc::new(SharedDyingIo(Arc::clone(&io)));
        let db = DurableBackend::open_with(vfs, &dir, config.clone()).unwrap();
        assert!(db.insert_many_acked(&history).is_empty());
        let exceptions = db.insert_many_acked(&group);
        assert_eq!(io.fatal_len.load(Ordering::Relaxed), total, "one write");
        // What the engine acknowledged durable: all of it when the
        // write was whole, none of it when it tore.
        let acked = durable_entries(&group, &exceptions);
        assert_eq!(acked.len(), if cut == total { group.len() } else { 0 });
        assert!(db.health_report().conserved(), "cut {cut}");
        std::mem::forget(db);

        let db = DurableBackend::open(&dir, config.clone()).unwrap();
        let whole = ends.iter().filter(|end| **end <= cut).count();
        let rep = db.recovery();
        assert_eq!(rep.wal_batches, history.len() + whole, "cut {cut}");
        let on_boundary = cut == 0 || ends.contains(&cut);
        assert_eq!(rep.torn_tails, usize::from(!on_boundary), "cut {cut}");
        assert_eq!(present(&db, &history), vec![0, 1, 2], "cut {cut}");
        // A whole-record prefix of the group, holding everything acked.
        let survived = present(&db, &group);
        assert_eq!(survived, (0..whole).collect::<Vec<_>>(), "cut {cut}");
        assert!(acked.iter().all(|i| survived.contains(i)), "cut {cut}");
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An engine over a `FaultIo` opened quiet, with sync windows of one
/// four-sensor chunk of [`cycling_entries`], that never demotes to
/// ReadOnly: a chunk whose write keeps failing is refused.
fn faulty_engine(dir: &Path, seed: u64, max_retries: u32) -> (Arc<FaultIo>, DurableBackend) {
    let io = Arc::new(FaultIo::new(
        Arc::new(StdIo),
        FaultConfig::quiet(seed),
        Clock::new(),
    ));
    let config = DurableConfig {
        fsync: FsyncPolicy::EveryN(4),
        health: HealthConfig {
            max_retries,
            readonly_after: u32::MAX,
            ..quick_health()
        },
        ..DurableConfig::default()
    };
    let db = DurableBackend::open_with(Arc::clone(&io) as Arc<dyn StorageIo>, dir, config).unwrap();
    (io, db)
}

#[test]
fn eio_on_a_group_write_is_retried_without_a_duplicate_record() {
    // Ten groups of four entries, one chunk apiece, each entry on a
    // sensor of its own: a WAL rotation re-journals the memtable one
    // record per sensor, so the journal holds one record per
    // acknowledged entry.
    let group = distinct_entries(40);
    let mut retried = 0;
    let mut refused_somewhere = false;
    for seed in 1..=12u64 {
        let dir = temp_dir(&format!("eio-{seed}"));
        let (io, db) = faulty_engine(&dir, seed, 2);
        io.set_config(FaultConfig {
            eio_prob: 0.4,
            ..FaultConfig::quiet(seed)
        });
        let mut exceptions = Vec::new();
        for (k, part) in group.chunks(4).enumerate() {
            for (range, ack) in db.insert_many_acked(part) {
                exceptions.push((range.start + 4 * k..range.end + 4 * k, ack));
            }
        }
        io.clear_faults();
        let durable = durable_entries(&group, &exceptions);
        assert!(exceptions.iter().all(|(_, ack)| ack.is_err()), "never RO");
        refused_somewhere |= !exceptions.is_empty();
        retried += db.engine_stats().write_retries;
        // A failed write put nothing in the memtable, and a retried one
        // put its chunk there once.
        let readings: usize = durable.iter().map(|i| group[*i].1.len()).sum();
        assert_eq!(db.engine_stats().memtable_readings, readings, "seed {seed}");
        assert_eq!(present(&db, &group), durable, "seed {seed}");
        let h = db.health_report();
        assert!(h.conserved(), "seed {seed}: {h:?}");
        assert_eq!(h.durable as usize, readings, "seed {seed}");
        std::mem::forget(db);
        // One record per acknowledged entry in the journal: a retry
        // after a rolled-back write re-journals nothing.
        let db = DurableBackend::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(db.recovery().wal_batches, durable.len(), "seed {seed}");
        assert_eq!(db.recovery().wal_readings, readings, "seed {seed}");
        assert_eq!(present(&db, &group), durable, "seed {seed}");
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(retried > 0, "the schedule never made the engine retry");
    assert!(
        refused_somewhere,
        "the schedule never exhausted the retries"
    );
}

#[test]
fn enospc_refuses_entries_by_index_and_conserves_readings() {
    let group = cycling_entries(40, 4);
    let total: usize = group.iter().map(|(_, batch)| batch.len()).sum();
    let dir = temp_dir("enospc");
    let (io, db) = faulty_engine(&dir, 7, 1);
    // Room for the first few chunks only.
    io.set_config(FaultConfig {
        enospc_after_bytes: Some(io.stats().bytes_written + 700),
        ..FaultConfig::quiet(7)
    });
    let refused = db.insert_many(&group);
    assert!(
        !refused.is_empty() && refused.len() < group.len(),
        "{refused:?}"
    );
    assert!(refused.windows(2).all(|w| w[0] < w[1]), "ascending");
    // The disk stays full: everything from the first refusal on.
    assert_eq!(refused, (refused[0]..group.len()).collect::<Vec<_>>());
    assert_eq!(refused[0] % 4, 0, "a chunk is refused whole");
    let stored: Vec<usize> = (0..refused[0]).collect();
    assert_eq!(
        present(&db, &group),
        stored,
        "refused entries are not readable"
    );
    let h = db.health_report();
    assert!(h.conserved(), "{h:?}");
    assert_eq!(h.ingested as usize, total);
    assert_eq!(h.buffered, 0);
    let shed: usize = refused.iter().map(|i| group[*i].1.len()).sum();
    assert_eq!(h.shed as usize, shed);
    assert_ne!(h.state, HealthState::ReadOnly);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_read_only_engine_buffers_a_group_entry_by_entry() {
    let group = cycling_entries(30, 4);
    let dir = temp_dir("read-only");
    let io = Arc::new(FaultIo::new(
        Arc::new(StdIo),
        FaultConfig::quiet(3),
        Clock::new(),
    ));
    let config = DurableConfig {
        fsync: FsyncPolicy::EveryN(4),
        health: HealthConfig {
            // Eleven readings of write-behind room.
            buffer_max_readings: 11,
            ..quick_health()
        },
        ..DurableConfig::default()
    };
    let db =
        DurableBackend::open_with(Arc::clone(&io) as Arc<dyn StorageIo>, &dir, config).unwrap();
    io.set_config(FaultConfig {
        enospc_after_bytes: Some(io.stats().bytes_written + 400),
        ..FaultConfig::quiet(3)
    });
    let exceptions = db.insert_many_acked(&group);
    assert_eq!(db.health_report().state, HealthState::ReadOnly);
    let durable = durable_entries(&group, &exceptions);
    let mut buffered = Vec::new();
    let mut refused = Vec::new();
    for (range, ack) in &exceptions {
        match ack {
            Ok(InsertAck::Buffered) => buffered.extend(range.clone()),
            Ok(InsertAck::Durable) => panic!("durable entries are not listed"),
            Err(_) => refused.extend(range.clone()),
        }
    }
    assert!(!durable.is_empty() && !buffered.is_empty() && !refused.is_empty());
    // The buffer is filled entry by entry: a small entry still fits
    // after a larger one overflowed it.
    let overflowed = refused.iter().find(|i| **i > buffered[0]).unwrap();
    assert!(
        overflowed < buffered.last().unwrap(),
        "{buffered:?} {refused:?}"
    );
    let mut visible = [durable, buffered.clone()].concat();
    visible.sort_unstable();
    assert_eq!(present(&db, &group), visible);
    let h = db.health_report();
    assert!(h.conserved(), "{h:?}");
    let count = |indices: &[usize]| {
        indices
            .iter()
            .map(|i| group[*i].1.len() as u64)
            .sum::<u64>()
    };
    assert_eq!((h.buffered, h.shed), (count(&buffered), count(&refused)));
    assert!(h.buffered <= 11);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A standby that records the entries it is handed, in order.
#[derive(Debug, Default)]
struct Recorder(std::sync::Mutex<Group>);

impl StorageEngine for Recorder {
    fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
        self.0.lock().unwrap().push((topic.clone(), batch.clone()));
        Ok(())
    }
    fn query(&self, _: &Topic, _: Timestamp, _: Timestamp) -> Vec<SensorReading> {
        Vec::new()
    }
    fn latest(&self, _: &Topic) -> Option<SensorReading> {
        None
    }
    fn contains(&self, _: &Topic) -> bool {
        false
    }
    fn topics(&self) -> Vec<Topic> {
        Vec::new()
    }
    fn oldest_ts(&self, _: &Topic) -> Option<Timestamp> {
        None
    }
    fn evict_before(&self, _: Timestamp) -> usize {
        0
    }
    fn stats(&self) -> StorageStats {
        StorageStats::default()
    }
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    fn maintain(&self, _: Timestamp) -> Result<()> {
        Ok(())
    }
    fn health(&self) -> Option<StorageHealthReport> {
        None
    }
    fn rollup_tiers(&self) -> Vec<u64> {
        Vec::new()
    }
    fn query_frames(&self, _: &Topic, _: u64, _: Timestamp, _: Timestamp) -> Vec<AggFrame> {
        Vec::new()
    }
}

#[test]
fn a_tapped_engine_taps_exactly_the_acknowledged_entries() {
    let group = cycling_entries(40, 4);
    let dir = temp_dir("tapped");
    let (io, db) = faulty_engine(&dir, 11, 0);
    let tapped = NodeEngine::wrap(Arc::new(db));
    let stream = tapped.attach(1_024, false, Clock::new());
    io.set_config(FaultConfig {
        eio_prob: 0.5,
        ..FaultConfig::quiet(11)
    });
    let refused = tapped.insert_many(&group);
    io.clear_faults();
    assert!(
        !refused.is_empty() && refused.len() < group.len(),
        "{refused:?}"
    );
    let acked: Group = (0..group.len())
        .filter(|i| !refused.contains(i))
        .map(|i| group[i].clone())
        .collect();
    // Everything on the stream, handed to a standby that records it.
    let standby = Recorder::default();
    let pumped = stream.pump(tapped.as_ref(), &standby, usize::MAX).unwrap();
    assert_eq!(pumped, acked.len());
    assert_eq!(*standby.0.lock().unwrap(), acked, "ack order, gap-free");
    drop(tapped);
    std::fs::remove_dir_all(&dir).ok();
}
