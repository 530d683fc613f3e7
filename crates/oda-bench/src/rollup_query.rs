//! Rollup-tier query bench: raw-scan vs tier-served aggregation.
//!
//! The continuous-aggregation tiers exist for exactly one reason: an
//! aggregate query over hours of history should not decode hours of
//! raw readings. This harness seeds a durable engine with 1 Hz data,
//! seals it into compressed raw + rollup segments, then times the same
//! `query_agg` request twice per range — once with the tier planner
//! disabled (raw scan + fold) and once tier-served — and reports the
//! speedup. Every timed pair is first checked frame-for-frame equal,
//! so the bench doubles as an equivalence smoke test: a tier answer
//! that is fast but different is a bug, not a result.
//!
//! Results land in `bench-results/rollup_query.json`.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_storage::{DurableBackend, DurableConfig, FsyncPolicy, StorageEngine};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wintermute::prelude::QueryEngine;

/// Workload shape.
#[derive(Debug, Clone)]
pub struct RollupQueryConfig {
    /// Distinct sensors seeded (each query aggregates one sensor).
    pub sensors: usize,
    /// Seeded history per sensor, seconds of 1 Hz data.
    pub span_s: u64,
    /// Query ranges to time, seconds back from the end of the series.
    pub ranges_s: Vec<u64>,
    /// Aggregation step (grid bucket width), seconds.
    pub step_s: u64,
    /// Timed iterations per (sensor, range) pair.
    pub iterations: usize,
    /// Query-engine cache ring slots — the raw cache the planner
    /// stitches at the recent boundary.
    pub cache_slots: usize,
    /// Seal threshold: small enough that the history lands in sealed
    /// (compressed) raw and rollup segments, not the memtable.
    pub memtable_max_readings: usize,
}

impl RollupQueryConfig {
    /// Full run: 4 sensors x 6 h of 1 Hz data, ranges 1 h / 3 h / 6 h.
    pub fn paper() -> RollupQueryConfig {
        RollupQueryConfig {
            sensors: 4,
            span_s: 6 * 3600,
            ranges_s: vec![3600, 3 * 3600, 6 * 3600],
            step_s: 10,
            iterations: 20,
            cache_slots: 512,
            memtable_max_readings: 20_000,
        }
    }

    /// Smoke run for CI: one sensor, ~1 h of data, one range.
    pub fn quick() -> RollupQueryConfig {
        RollupQueryConfig {
            sensors: 2,
            span_s: 4200,
            ranges_s: vec![3600],
            step_s: 10,
            iterations: 3,
            cache_slots: 128,
            memtable_max_readings: 5_000,
        }
    }
}

/// One timed (range, step) row of the comparison.
#[derive(Debug, Clone, Serialize)]
pub struct RollupQueryRow {
    /// Query range, seconds.
    pub range_s: u64,
    /// Grid step, seconds.
    pub step_s: u64,
    /// Raw-scan (planner disabled) latency, milliseconds per query.
    pub raw_ms: f64,
    /// Tier-served latency, milliseconds per query.
    pub tier_ms: f64,
    /// `raw_ms / tier_ms`.
    pub speedup: f64,
    /// Grid buckets served from rollup frames (one sampled plan).
    pub buckets_from_tier: usize,
    /// Grid buckets re-aggregated from raw (the recent-boundary stitch).
    pub buckets_from_raw: usize,
    /// Tier width the planner picked, nanoseconds.
    pub tier_ns: u64,
}

/// The full report.
#[derive(Debug, Clone, Serialize)]
pub struct RollupQueryResult {
    /// Total readings seeded.
    pub readings: usize,
    /// Distinct sensors.
    pub sensors: usize,
    /// Sealed rollup segments on disk after maintenance.
    pub rollup_segments: usize,
    /// One row per query range.
    pub rows: Vec<RollupQueryRow>,
}

fn topics(n: usize) -> Vec<Topic> {
    (0..n)
        .map(|i| Topic::parse(&format!("/rack{:02}/node{:03}/power", i % 8, i)).unwrap())
        .collect()
}

/// Drifting 1 Hz power-style signal; same shape the storage bench uses.
fn value_at(sensor: usize, ts_s: u64) -> i64 {
    1_000_000 + (sensor as i64) * 17 + (ts_s as i64 % 97) - 48
}

/// Seeds the engine, seals the history, then times raw vs tier-served
/// aggregation per range. `dir` is created and removed by the caller.
pub fn run(config: &RollupQueryConfig, dir: &Path) -> RollupQueryResult {
    let topics = topics(config.sensors);
    let db = Arc::new(
        DurableBackend::open(
            dir,
            DurableConfig {
                fsync: FsyncPolicy::Never,
                memtable_max_readings: config.memtable_max_readings,
                ..DurableConfig::default()
            },
        )
        .expect("open bench dir"),
    );

    let qe = QueryEngine::with_storage(
        config.cache_slots,
        Arc::clone(&db) as Arc<dyn dcdb_storage::StorageEngine>,
    );

    // Seed the way a live collect agent accumulates history: bulk of
    // the span through the columnar path, time-major across sensors, so
    // the memtable seals itself into raw + rollup segments as the data
    // streams in; the most recent tail through the per-reading engine
    // path so the cache ring, the memtable, and the hot rollup frames
    // all hold their live share. Nothing is force-sealed: the recent
    // boundary looks exactly like steady-state operation.
    const CHUNK: u64 = 1_000;
    let tail_s = (2 * config.cache_slots as u64).min(config.span_s / 2);
    let bulk_end = config.span_s - tail_s;
    let mut ts_s = 1u64;
    while ts_s <= bulk_end {
        let len = CHUNK.min(bulk_end - ts_s + 1);
        for (s, topic) in topics.iter().enumerate() {
            let mut batch = ReadingBatch::with_capacity(len as usize);
            for t in ts_s..ts_s + len {
                batch.push(value_at(s, t), Timestamp::from_secs(t));
            }
            db.insert_columns(topic, &batch).expect("seed insert");
        }
        ts_s += len;
    }
    for ts_s in bulk_end + 1..=config.span_s {
        for (s, topic) in topics.iter().enumerate() {
            qe.insert(
                topic,
                SensorReading::new(value_at(s, ts_s), Timestamp::from_secs(ts_s)),
            );
        }
    }

    let step_ns = config.step_s * NS_PER_SEC;
    let mut rows = Vec::new();
    for &range_s in &config.ranges_s {
        let lo = Timestamp::from_secs(config.span_s.saturating_sub(range_s) + 1);
        let hi = Timestamp::from_secs(config.span_s);

        // Equivalence gate before timing, per sensor: the fast answer
        // must be the same answer. Doubles as warm-up, so the timed
        // loops measure steady-state serving, not first-touch decode.
        let mut sample_tier = None;
        for topic in &topics {
            let tier = qe.query_agg_planned(topic, lo, hi, step_ns, true);
            let raw = qe.query_agg_planned(topic, lo, hi, step_ns, false);
            assert_eq!(
                tier.frames, raw.frames,
                "range {range_s}s {topic}: tier-served frames diverged from raw"
            );
            sample_tier = Some(tier);
        }
        let sample_tier = sample_tier.expect("at least one sensor");

        let t0 = Instant::now();
        for i in 0..config.iterations {
            let topic = &topics[i % topics.len()];
            let series = qe.query_agg_planned(topic, lo, hi, step_ns, false);
            assert!(!series.frames.is_empty());
        }
        let raw_ms = t0.elapsed().as_secs_f64() * 1000.0 / config.iterations as f64;

        let t0 = Instant::now();
        for i in 0..config.iterations {
            let topic = &topics[i % topics.len()];
            let series = qe.query_agg_planned(topic, lo, hi, step_ns, true);
            assert!(!series.frames.is_empty());
        }
        let tier_ms = t0.elapsed().as_secs_f64() * 1000.0 / config.iterations as f64;

        rows.push(RollupQueryRow {
            range_s,
            step_s: config.step_s,
            raw_ms,
            tier_ms,
            speedup: raw_ms / tier_ms.max(f64::MIN_POSITIVE),
            buckets_from_tier: sample_tier.plan.buckets_from_tier,
            buckets_from_raw: sample_tier.plan.buckets_from_raw,
            tier_ns: sample_tier.plan.tier_ns,
        });
    }

    RollupQueryResult {
        readings: config.sensors * config.span_s as usize,
        sensors: config.sensors,
        rollup_segments: db.engine_stats().rollup_segments,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_equivalent_and_reports_rows() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oda-rollup-query-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = RollupQueryConfig::quick();
        config.span_s = 1200;
        config.ranges_s = vec![600];
        config.iterations = 1;
        let result = run(&config, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(result.readings, 2 * 1200);
        assert_eq!(result.rows.len(), 1);
        let row = &result.rows[0];
        assert_eq!(row.tier_ns, 10 * NS_PER_SEC);
        assert!(row.buckets_from_tier > 0, "{row:?}");
    }
}
