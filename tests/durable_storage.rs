//! Crash-recovery and equivalence tests for the durable storage engine:
//! WAL replay with torn tails, compression round-trips on randomized
//! sequences, merged memtable+segment queries matching the pure
//! in-memory backend reading for reading, and the in-memory disk
//! leaving what the real filesystem leaves.

use dcdb_wintermute::dcdb_common::{ReadingBatch, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_storage::compress::{compress_columns, decompress_columns};
use dcdb_wintermute::dcdb_storage::wal::{replay_with, WalWriter};
use dcdb_wintermute::dcdb_storage::{
    DurableBackend, DurableConfig, FsyncPolicy, MemIo, RecoveryReport, StdIo, StorageBackend,
    StorageEngine, StorageIo,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dcdb-durable-it-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Deterministic xorshift64* so randomized tests need no external crate
/// and reproduce exactly.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn wal_replay_stops_cleanly_at_torn_tail() {
    let dir = temp_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal-0000000001.log");
    {
        let mut w = WalWriter::create_with(&StdIo, &path, FsyncPolicy::Never).unwrap();
        for i in 1..=40u64 {
            w.append_batch(
                &t("/n0/power"),
                &ReadingBatch::from_columns(
                    vec![Timestamp::from_secs(i).as_nanos()],
                    vec![i as i64],
                ),
            )
            .unwrap();
        }
        w.sync().unwrap();
    }
    // Truncate the file mid-record at several byte offsets from the
    // end: replay must always deliver a prefix of complete records and
    // flag the torn tail, never error out or deliver garbage.
    let full = std::fs::read(&path).unwrap();
    for cut in [1usize, 3, 7, 12, 21] {
        std::fs::write(&path, &full[..full.len() - cut]).unwrap();
        let mut values = Vec::new();
        let rep = replay_with(&StdIo, &path, |_, batch| values.extend(batch.values)).unwrap();
        assert!(rep.torn_tail, "cut {cut} not flagged");
        assert!(rep.readings < 40, "cut {cut} delivered everything");
        // Complete-record prefix: values are exactly 1..=rep.readings.
        let expected: Vec<i64> = (1..=rep.readings as i64).collect();
        assert_eq!(values, expected, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compression_round_trips_randomized_sequences() {
    let mut rng = Rng(0x0DDB_1A5E_5EED_2026);
    for case in 0..200 {
        let len = (rng.next() % 300) as usize;
        let mut batch = ReadingBatch::with_capacity(len);
        let mut ts = rng.next() % (1 << 48);
        for _ in 0..len {
            // Mix of regular steps, jitter, and occasional huge jumps —
            // including backwards time, which the codec must survive.
            ts = match rng.next() % 10 {
                0 => rng.next(),
                1 => ts.wrapping_sub(rng.next() % 1_000_000),
                _ => ts.wrapping_add(1_000_000_000 + rng.next() % 5_000),
            };
            batch.push(rng.next() as i64, Timestamp(ts));
        }
        let block = compress_columns(&batch.ts, &batch.values);
        assert_eq!(
            decompress_columns(&block).unwrap(),
            batch,
            "case {case} (len {len})"
        );
    }
}

#[test]
fn merged_queries_match_pure_in_memory_backend() {
    let dir = temp_dir("equiv");
    let config = DurableConfig {
        fsync: FsyncPolicy::Never,
        // Tiny memtable: the data ends up spread over many segments
        // plus a memtable tail, so queries genuinely merge generations.
        memtable_max_readings: 64,
        compact_min_segments: 1_000_000, // no compaction mid-test
        ..DurableConfig::default()
    };
    let durable = DurableBackend::open(&dir, config.clone()).unwrap();
    let reference = StorageBackend::new();

    let topics: Vec<Topic> = (0..5).map(|i| t(&format!("/n{i}/power"))).collect();
    let mut rng = Rng(0xC0FF_EE00_2026_0807);
    for _ in 0..400 {
        let topic = &topics[(rng.next() % topics.len() as u64) as usize];
        let len = 1 + (rng.next() % 8) as usize;
        let batch: ReadingBatch = (0..len)
            .map(|_| {
                SensorReading::new(
                    rng.next() as i64 % 1_000_000,
                    // Bounded range with collisions: overwrite semantics
                    // must agree between the two engines too.
                    Timestamp::from_secs(rng.next() % 5_000),
                )
            })
            .collect();
        durable.insert_columns(topic, &batch).unwrap();
        reference.insert_columns(topic, &batch);
    }

    // Compaction must not change query results either.
    let mid_compaction_check = durable.query(&topics[0], Timestamp::ZERO, Timestamp::MAX);
    let durable = {
        let c = DurableConfig {
            compact_min_segments: 2,
            ..config
        };
        drop(durable);
        DurableBackend::open(&dir, c).unwrap()
    };
    durable.compact().unwrap();
    assert_eq!(
        durable.query(&topics[0], Timestamp::ZERO, Timestamp::MAX),
        mid_compaction_check
    );

    let mut rng = Rng(0xFEED_FACE_CAFE_F00D);
    for topic in &topics {
        // Full-history queries agree exactly.
        assert_eq!(
            durable.query(topic, Timestamp::ZERO, Timestamp::MAX),
            reference.query(topic, Timestamp::ZERO, Timestamp::MAX),
            "full history diverged on {topic}"
        );
        // And so do arbitrary sub-ranges.
        for _ in 0..50 {
            let a = Timestamp::from_secs(rng.next() % 5_100);
            let b = Timestamp::from_secs(rng.next() % 5_100);
            let (t0, t1) = if a <= b { (a, b) } else { (b, a) };
            assert_eq!(
                durable.query(topic, t0, t1),
                reference.query(topic, t0, t1),
                "range [{t0:?}, {t1:?}] diverged on {topic}"
            );
        }
        assert_eq!(durable.latest(topic), reference.latest(topic));
    }
    drop(durable);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_preserves_merge_equivalence() {
    let dir = temp_dir("recover-equiv");
    let config = DurableConfig {
        fsync: FsyncPolicy::Never,
        memtable_max_readings: 100,
        ..DurableConfig::default()
    };
    let reference = StorageBackend::new();
    {
        let durable = DurableBackend::open(&dir, config.clone()).unwrap();
        let mut rng = Rng(0xBADC_0DE5_2026_0001);
        for i in 0..350u64 {
            let topic = t(&format!("/n{}/s", i % 4));
            let batch = ReadingBatch::from_columns(
                vec![Timestamp::from_secs(i).as_nanos()],
                vec![rng.next() as i64],
            );
            durable.insert_columns(&topic, &batch).unwrap();
            reference.insert_columns(&topic, &batch);
        }
        // No flush — recovery has to stitch segments + WAL tail. The
        // queued seals finish first, as a killed process's thread would
        // stop: the leaked engine must not write under the reopened one.
        durable.settle().unwrap();
        std::mem::forget(durable);
    }
    let durable = DurableBackend::open(&dir, config).unwrap();
    for n in 0..4 {
        let topic = t(&format!("/n{n}/s"));
        assert_eq!(
            durable.query(&topic, Timestamp::ZERO, Timestamp::MAX),
            reference.query(&topic, Timestamp::ZERO, Timestamp::MAX),
            "recovered history diverged on {topic}"
        );
    }
    drop(durable);
    std::fs::remove_dir_all(&dir).ok();
}

/// What one seeded insert → seal → compact → drop → reopen run on `io`
/// under `dir` leaves: every file (name, bytes), the reopen's recovery
/// report, and the reopened engine's answers.
type Lifecycle = (Vec<(String, Vec<u8>)>, RecoveryReport, Vec<String>);

fn seeded_lifecycle(io: Arc<dyn StorageIo>, dir: &Path) -> Lifecycle {
    let config = DurableConfig {
        fsync: FsyncPolicy::Always,
        memtable_max_readings: 64,
        compact_min_segments: 3,
        ..DurableConfig::default()
    };
    let topics: Vec<Topic> = (0..5).map(|n| t(&format!("/r0/n{n}/power"))).collect();
    let mut rng = Rng(0xD15C_2026_0000_0036);
    let mut insert_some = |db: &DurableBackend, n: u64| {
        for i in 0..n {
            let topic = &topics[(rng.next() % 5) as usize];
            // Mostly in order, with late and duplicate timestamps.
            let secs = i + rng.next() % 40;
            let batch: ReadingBatch = (0..1 + rng.next() % 4)
                .map(|k| {
                    SensorReading::new(rng.next() as i64 >> 40, Timestamp::from_secs(secs + k))
                })
                .collect();
            db.insert_columns(topic, &batch).unwrap();
            if i % 50 == 49 {
                db.maintain(Timestamp::from_secs(secs)).unwrap();
            }
        }
    };
    {
        let db = DurableBackend::open_with(Arc::clone(&io), dir, config.clone()).unwrap();
        insert_some(&db, 400);
        db.seal().unwrap();
        db.compact().unwrap();
        insert_some(&db, 30); // a WAL tail the reopen must replay
    }
    let db = DurableBackend::open_with(Arc::clone(&io), dir, config).unwrap();
    let mut answers = Vec::new();
    for topic in &topics {
        let (t0, t1) = (Timestamp::from_secs(100), Timestamp::from_secs(300));
        answers.push(format!(
            "{:?}",
            db.query(topic, Timestamp::ZERO, Timestamp::MAX)
        ));
        answers.push(format!("{:?}", db.query(topic, t0, t1)));
        answers.push(format!("{:?} {:?}", db.latest(topic), db.oldest_ts(topic)));
        for width in db.rollup_tiers() {
            let frames = db.query_frames(topic, width, Timestamp::ZERO, Timestamp::MAX);
            answers.push(format!("{frames:?}"));
        }
    }
    let recovery = db.recovery();
    drop(db);
    let mut names: Vec<String> = io
        .list(dir)
        .unwrap()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let files = names
        .into_iter()
        .map(|name| {
            let bytes = io.read(&dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    (files, recovery, answers)
}

#[test]
fn the_in_memory_disk_leaves_what_the_real_one_leaves() {
    let dir = temp_dir("faithful");
    let real = seeded_lifecycle(Arc::new(StdIo), &dir);
    std::fs::remove_dir_all(&dir).ok();
    let mem = seeded_lifecycle(Arc::new(MemIo::default()), &dir);
    let names = |l: &Lifecycle| l.0.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&mem), names(&real));
    for ((name, a), (_, b)) in mem.0.iter().zip(&real.0) {
        assert!(a == b, "{name} differs: {} vs {} bytes", a.len(), b.len());
    }
    assert_eq!(mem.1, real.1);
    assert_eq!(mem.2, real.2);
    // The run exercised what it claims to: segments (one compacted),
    // rollup segments, and a replayed WAL tail.
    assert!(
        names(&real).iter().any(|n| n.starts_with("seg-")),
        "{:?}",
        names(&real)
    );
    assert!(
        names(&real).iter().any(|n| n.starts_with("rlu-")),
        "{:?}",
        names(&real)
    );
    assert!(
        real.1.segments >= 1 && real.1.wal_readings > 0,
        "{:?}",
        real.1
    );
}
