//! Durable storage engine benchmark: ingest, scan and recovery
//! throughput of [`DurableBackend`] against the in-memory baseline.
//!
//! Not a figure of the paper — DCDB outsources durability to Cassandra
//! (paper §IV-A) and reports only end-to-end footprint — but the same
//! three numbers every storage tier is judged by:
//!
//! * **ingest**: columnar batches ([`ReadingBatch`]) through the WAL
//!   (journal-before-ack) into the memtable, including automatic
//!   memtable seals — the same packed-array path the Collect Agent
//!   feeds from the bus;
//! * **scan**: full-history range queries once the data sits in
//!   compressed sealed segments (cold, index + block-decode path);
//! * **recovery**: closing the engine and reopening the directory,
//!   i.e. segment indexing plus WAL replay.
//!
//! Results land in `bench-results/storage_engine.json`.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_storage::{DurableBackend, DurableConfig, FsyncPolicy, StorageBackend, StorageEngine};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Workload shape.
#[derive(Debug, Clone)]
pub struct StorageEngineConfig {
    /// Distinct sensors written.
    pub sensors: usize,
    /// Readings per sensor.
    pub readings_per_sensor: usize,
    /// Readings per insert batch (the Collect Agent batches per bus
    /// message).
    pub batch: usize,
    /// WAL fsync policy under test.
    pub fsync: FsyncPolicy,
    /// Seal threshold (readings) — small enough that the run exercises
    /// sealing and segment reads, not just the memtable.
    pub memtable_max_readings: usize,
}

impl StorageEngineConfig {
    /// Full run: 2 M readings across 200 sensors.
    pub fn paper() -> StorageEngineConfig {
        StorageEngineConfig {
            sensors: 200,
            readings_per_sensor: 10_000,
            batch: 100,
            fsync: FsyncPolicy::EveryN(64),
            memtable_max_readings: 250_000,
        }
    }

    /// Smoke run for CI.
    pub fn quick() -> StorageEngineConfig {
        StorageEngineConfig {
            sensors: 50,
            readings_per_sensor: 400,
            batch: 50,
            fsync: FsyncPolicy::Never,
            memtable_max_readings: 5_000,
        }
    }
}

/// The three throughputs plus footprint numbers.
#[derive(Debug, Clone, Serialize)]
pub struct StorageEngineResult {
    /// Total readings written.
    pub readings: usize,
    /// Distinct sensors.
    pub sensors: usize,
    /// Fsync policy used, CLI spelling.
    pub fsync: String,
    /// Durable ingest throughput, readings/second.
    pub ingest_per_sec: f64,
    /// In-memory baseline ingest throughput, readings/second (what the
    /// WAL + seal path costs relative to no durability at all).
    pub memtable_ingest_per_sec: f64,
    /// Cold scan throughput over sealed segments, readings/second.
    pub scan_per_sec: f64,
    /// Recovery throughput (reopen: segment indexing + WAL replay),
    /// readings/second.
    pub recovery_per_sec: f64,
    /// Recovery wall time, milliseconds.
    pub recovery_ms: f64,
    /// Sealed segments after ingest + flush.
    pub segments: usize,
    /// Memtable seals performed during ingest.
    pub seals: u64,
    /// Bytes on disk after flush.
    pub disk_bytes: u64,
    /// Raw size of the data (16 B per reading) divided by disk bytes.
    pub compression_ratio: f64,
}

fn synthetic_columns(sensor: usize, start: usize, len: usize) -> ReadingBatch {
    // Periodic 1 Hz timestamps with a slowly drifting integer value —
    // the shape monitoring data actually has, which the delta-of-delta
    // codec is built for.
    let mut batch = ReadingBatch::with_capacity(len);
    for i in 0..len {
        let seq = (start + i) as u64;
        batch.push(
            1_000_000 + (sensor as i64) * 17 + (seq as i64 % 97) - 48,
            Timestamp(seq * NS_PER_SEC + (sensor as u64)),
        );
    }
    batch
}

fn topics(n: usize) -> Vec<Topic> {
    (0..n)
        .map(|i| Topic::parse(&format!("/rack{:02}/node{:03}/power", i % 8, i)).unwrap())
        .collect()
}

/// Runs the full ingest → scan → recovery cycle in `dir` (created and
/// removed by the caller; must be empty).
pub fn run(config: &StorageEngineConfig, dir: &Path) -> StorageEngineResult {
    let total = config.sensors * config.readings_per_sensor;
    let topics = topics(config.sensors);
    let durable_config = DurableConfig {
        fsync: config.fsync,
        memtable_max_readings: config.memtable_max_readings,
        ..DurableConfig::default()
    };

    // --- In-memory baseline ingest. ---
    let mem = StorageBackend::new();
    let t0 = Instant::now();
    for (s, topic) in topics.iter().enumerate() {
        let mut done = 0;
        while done < config.readings_per_sensor {
            let len = config.batch.min(config.readings_per_sensor - done);
            mem.insert_columns(topic, &synthetic_columns(s, done, len));
            done += len;
        }
    }
    let memtable_ingest_per_sec = total as f64 / t0.elapsed().as_secs_f64();
    drop(mem);

    // --- Durable ingest (journal-before-ack + automatic seals). ---
    let db = DurableBackend::open(dir, durable_config.clone()).expect("open bench dir");
    let t0 = Instant::now();
    for (s, topic) in topics.iter().enumerate() {
        let mut done = 0;
        while done < config.readings_per_sensor {
            let len = config.batch.min(config.readings_per_sensor - done);
            db.insert_columns(topic, &synthetic_columns(s, done, len))
                .expect("durable insert");
            done += len;
        }
    }
    let ingest_per_sec = total as f64 / t0.elapsed().as_secs_f64();
    db.flush().expect("flush");
    let seals = db.engine_stats().seals;
    let segments = db.engine_stats().sealed_segments;
    let disk_bytes = db.disk_bytes();

    // --- Cold scans over sealed segments. ---
    let t0 = Instant::now();
    let mut scanned = 0usize;
    for topic in &topics {
        scanned += db.query(topic, Timestamp::ZERO, Timestamp::MAX).len();
    }
    let scan_per_sec = scanned as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(scanned, total, "scan must see every ingested reading");
    drop(db);

    // --- Recovery: reopen the directory from scratch. ---
    let t0 = Instant::now();
    let db = DurableBackend::open(dir, durable_config).expect("reopen bench dir");
    let recovery_elapsed = t0.elapsed();
    let rec = db.recovery();
    assert_eq!(
        rec.segment_readings + rec.wal_readings,
        total,
        "recovery must account for every reading"
    );

    StorageEngineResult {
        readings: total,
        sensors: config.sensors,
        fsync: match config.fsync {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::EveryN(_) => "batch".into(),
            FsyncPolicy::Never => "never".into(),
        },
        ingest_per_sec,
        memtable_ingest_per_sec,
        scan_per_sec,
        recovery_per_sec: total as f64 / recovery_elapsed.as_secs_f64(),
        recovery_ms: recovery_elapsed.as_secs_f64() * 1000.0,
        segments,
        seals,
        disk_bytes,
        compression_ratio: (total as f64 * 16.0) / disk_bytes.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_consistent_numbers() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oda-bench-storage-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = StorageEngineConfig {
            sensors: 10,
            readings_per_sensor: 200,
            ..StorageEngineConfig::quick()
        };
        let result = run(&config, &dir);
        assert_eq!(result.readings, 2000);
        assert!(result.ingest_per_sec > 0.0);
        assert!(result.scan_per_sec > 0.0);
        assert!(result.recovery_per_sec > 0.0);
        assert!(result.segments >= 1, "run must seal at least one segment");
        assert!(result.disk_bytes > 0);
        assert!(
            result.compression_ratio > 1.0,
            "periodic data must compress ({}x)",
            result.compression_ratio
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
