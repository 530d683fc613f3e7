//! Crash-recovery and equivalence tests for the durable storage engine:
//! WAL replay with torn tails, compression round-trips on randomized
//! sequences, and merged memtable+segment queries matching the pure
//! in-memory backend reading for reading.

use dcdb_wintermute::dcdb_common::{ReadingBatch, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_storage::compress::{compress_columns, decompress_columns};
use dcdb_wintermute::dcdb_storage::wal::{replay, WalWriter};
use dcdb_wintermute::dcdb_storage::{
    DurableBackend, DurableConfig, FsyncPolicy, StorageBackend, StorageEngine,
};
use std::path::PathBuf;

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
        let mut w = WalWriter::create(&path, FsyncPolicy::Never).unwrap();
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
        let rep = replay(&path, |_, batch| values.extend(batch.values)).unwrap();
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
        // No flush — recovery has to stitch segments + WAL tail.
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
