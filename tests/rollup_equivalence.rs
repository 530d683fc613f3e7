//! Property tests for the continuous-aggregation rollup path: the
//! tier-aware planner must be an *optimisation*, never a different
//! answer. For any seeded series — duplicates, out-of-order arrivals,
//! seals straddling tier boundaries — and any (range, step) request,
//! the tier-served aggregate equals the same aggregate computed from
//! raw readings, both before and after a crash-recovery replay
//! (rollup frames are rebuilt from the WAL-recovered raw truth, never
//! trusted across a crash).
//!
//! The harness mirrors the PR-5 failure-injection pattern: 48 seeds,
//! `std::mem::forget` as the crash, a reopen as the recovery.

use dcdb_wintermute::dcdb_common::{SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_storage::{
    DurableBackend, DurableConfig, FsyncPolicy, HealthConfig, StorageEngine,
};
use dcdb_wintermute::wintermute::prelude::*;
use std::sync::Arc;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

const NS: u64 = 1_000_000_000;

/// Steps to exercise: raw-only (1 s and the indivisible 7 s), the 10 s
/// tier exactly, multiples served from it, and the 5 min tier.
const STEPS_NS: [u64; 6] = [NS, 7 * NS, 10 * NS, 30 * NS, 300 * NS, 600 * NS];

fn small_config() -> DurableConfig {
    DurableConfig {
        fsync: FsyncPolicy::Never,
        // Small memtable: seals happen mid-series, so tier frames end
        // up split across sealed rollup segments and hot accumulators,
        // and seal points straddle bucket boundaries.
        memtable_max_readings: 120,
        health: HealthConfig {
            retry_backoff_base_ms: 0,
            ..HealthConfig::default()
        },
        ..DurableConfig::default()
    }
}

/// Asserts the tier-planned answer equals the raw-scan answer for
/// every step width, on every topic — the frames must match bucket
/// for bucket (count, sum, min, max, and the derived avg).
fn assert_tier_equals_raw(qe: &QueryEngine, topics: &[Topic], seed: u64, phase: &str) {
    for topic in topics {
        for &step in &STEPS_NS {
            let tiered = qe.query_agg_planned(topic, Timestamp::ZERO, Timestamp::MAX, step, true);
            let raw = qe.query_agg_planned(topic, Timestamp::ZERO, Timestamp::MAX, step, false);
            assert_eq!(
                tiered.frames.len(),
                raw.frames.len(),
                "seed {seed} {phase} {topic} step {}s: bucket count diverged \
                 (plan: {:?})",
                step / NS,
                tiered.plan,
            );
            for (tf, rf) in tiered.frames.iter().zip(raw.frames.iter()) {
                assert_eq!(
                    (tf.bucket_ns, tf.count, tf.sum, tf.min, tf.max),
                    (rf.bucket_ns, rf.count, rf.sum, rf.min, rf.max),
                    "seed {seed} {phase} {topic} step {}s bucket {}: \
                     tier-served aggregate diverged from raw (plan: {:?})",
                    step / NS,
                    tf.bucket_ns / NS,
                    tiered.plan,
                );
                assert_eq!(
                    tf.avg(),
                    rf.avg(),
                    "seed {seed} {phase} {topic}: derived avg diverged"
                );
            }
        }
    }
}

/// 48 seeds × (in-flight check + post-crash check): tier-served
/// avg/min/max/count equals the raw-computed aggregate over any seeded
/// series, across tier boundaries, and again after the engine is
/// crashed and the rollups are rebuilt from WAL replay.
#[test]
fn tier_served_aggregates_equal_raw_across_seeds_and_crash_recovery() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dcdb-rollup-equiv-{}", std::process::id()));
    let topics: Vec<Topic> = (0..3).map(|n| t(&format!("/n{n}/power"))).collect();

    for seed in 1..=48u64 {
        std::fs::remove_dir_all(&dir).ok();
        let db = Arc::new(DurableBackend::open(&dir, small_config()).unwrap());
        // A small cache forces the recent-boundary stitch: old buckets
        // come from storage, the newest from the cache ring.
        let qe = QueryEngine::with_storage(32, Arc::clone(&db) as Arc<dyn StorageEngine>);
        let mut rng = Rng(0x5EED_0000_0000_0000 | seed);

        // A seeded series with everything the accumulator hates:
        // mostly-ascending timestamps with occasional out-of-order
        // jumps back, duplicate timestamps (overwrite semantics), and
        // values spanning sign changes. Time range ~0..1200 s crosses
        // many 10 s buckets and several 5 min buckets.
        let mut clock_s = 1u64;
        for _ in 0..300 {
            let topic = &topics[(rng.next() % topics.len() as u64) as usize];
            let ts_s = match rng.next() % 10 {
                // Out-of-order: jump back into an already-folded bucket.
                0 => clock_s.saturating_sub(1 + rng.next() % 40).max(1),
                // Duplicate: overwrite the reading at the current clock.
                1 => clock_s,
                _ => {
                    clock_s += 1 + rng.next() % 7;
                    clock_s
                }
            };
            let value = (rng.next() as i64) % 100_000 - 50_000;
            qe.insert(topic, SensorReading::new(value, Timestamp::from_secs(ts_s)));
        }
        // Maintenance seals segments (raw and rollup) mid-series.
        db.maintain(Timestamp::from_secs(clock_s)).unwrap();

        assert_tier_equals_raw(&qe, &topics, seed, "pre-crash");
        let stats = db.engine_stats();
        assert!(
            stats.rollup_folds + stats.rollup_recomputes > 0,
            "seed {seed}: rollups were never exercised"
        );

        // Crash: no Drop, no flush. The WAL tail is whatever is on
        // disk; rollup frames are NOT journaled and must be rebuilt.
        // The queued maintenance finishes first, as a killed process's
        // thread would stop.
        drop(qe);
        db.settle().unwrap();
        std::mem::forget(db);

        let db = Arc::new(DurableBackend::open(&dir, small_config()).unwrap());
        // Cold cache after the "restart": every answer now comes from
        // recovered storage + rebuilt rollups.
        let qe = QueryEngine::with_storage(32, Arc::clone(&db) as Arc<dyn StorageEngine>);
        assert_tier_equals_raw(&qe, &topics, seed, "post-recovery");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The tier/raw stitch boundary mirrors the PR-3 Absolute-mode test:
/// frames cover the sealed past, the raw tail covers the unsealed
/// recent window, and a reading at the boundary aggregates exactly
/// once — total count over the grid equals the number of distinct
/// readings, for every step.
#[test]
fn tier_raw_boundary_counts_each_reading_exactly_once() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dcdb-rollup-boundary-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Arc::new(DurableBackend::open(&dir, small_config()).unwrap());
    let qe = QueryEngine::with_storage(8, Arc::clone(&db) as Arc<dyn StorageEngine>);
    let topic = t("/n0/power");
    // One reading per second for 10 minutes; the small memtable seals
    // several times, so rollup segments, hot frames, raw segments and
    // the 8-slot cache ring all hold a share of the series.
    for i in 1..=600u64 {
        qe.insert(
            &topic,
            SensorReading::new(i as i64, Timestamp::from_secs(i)),
        );
    }
    db.maintain(Timestamp::from_secs(600)).unwrap();

    for &step in &STEPS_NS {
        let series = qe.query_agg(&topic, Timestamp::ZERO, Timestamp::MAX, step);
        let total: u64 = series.frames.iter().map(|f| f.count).sum();
        assert_eq!(
            total,
            600,
            "step {}s: readings double-counted or lost at the tier/raw \
             boundary (plan: {:?})",
            step / NS,
            series.plan
        );
        let sum: i64 = series.frames.iter().map(|f| f.sum).sum();
        assert_eq!(sum, (1..=600).sum::<i64>(), "step {}s: sum", step / NS);
    }
    std::fs::remove_dir_all(&dir).ok();
}
