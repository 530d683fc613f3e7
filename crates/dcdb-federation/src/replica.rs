//! Primary→replica replication within one shard.
//!
//! Each shard of the federation can run as a **replica pair**: the
//! primary acks ingest after journaling (the hot path is untouched) and
//! its [`TappedEngine`] streams the acked, WAL-ordered batches onto a
//! bounded [`JournalTail`]. The [`ReplicaLink`] is the pump between
//! that tail and the standby's own engine: every pump applies queued
//! entries to the replica, so at any instant the conservation identity
//!
//! ```text
//! acked == durable_on_primary + replicating + durable_on_replica_only
//! ```
//!
//! holds — a reading the primary acknowledged is either still queued on
//! the tail (`replicating`, the observable lag) or already applied on
//! the replica; after a promotion the `durable_on_replica_only` term is
//! what answers queries until the old primary rejoins.
//!
//! **Catch-up** ([`catch_up`]) is the anti-entropy path used when a
//! node (re)joins as a standby: a per-sensor scan of the source engine
//! bounded below by the destination's watermark
//! ([`StorageEngine::watermark`]). The tail is attached *before* the
//! scan, so the scan and the stream overlap rather than gap — and
//! because every engine dedups equal timestamps, the overlap is
//! idempotent: replay can never duplicate an acked reading. The same
//! argument makes a tail overflow recoverable: the dropped entries are
//! still on the source engine, and a fresh catch-up resynchronizes the
//! standby exactly.

use dcdb_common::error::Result;
use dcdb_common::time::Timestamp;
use dcdb_storage::{JournalTail, StorageEngine, TappedEngine};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counters of one shard's replication stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaLinkStats {
    /// Tail entries applied to the standby so far.
    pub applied_entries: u64,
    /// Readings applied to the standby so far.
    pub applied_readings: u64,
    /// Entries currently queued (replication lag, entries).
    pub lag_entries: usize,
    /// Age of the oldest queued entry, ms (replication lag, time).
    pub lag_ms: u64,
    /// Tail entries lost to overflow (each forces an anti-entropy
    /// resync before the stream is trusted again).
    pub overflowed: u64,
}

/// The pump between a primary's journal tail and its standby's engine.
pub struct ReplicaLink {
    tail: JournalTail,
    applied_entries: AtomicU64,
    applied_readings: AtomicU64,
    /// Set while the standby needs an anti-entropy catch-up before the
    /// stream alone is trusted: at (re)join until the first scan
    /// completes, and after any tail overflow not yet resynced.
    dirty: AtomicBool,
    /// Tail-overflow count already covered by a completed resync.
    resynced_through: AtomicU64,
}

impl ReplicaLink {
    /// Attaches a fresh tail on `primary` and returns the link feeding
    /// the standby. Attach before any catch-up scan of the primary so
    /// stream and scan overlap instead of gapping.
    pub fn attach(primary: &TappedEngine, tail_capacity: usize) -> ReplicaLink {
        ReplicaLink {
            tail: primary.attach_tail(tail_capacity),
            applied_entries: AtomicU64::new(0),
            applied_readings: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            resynced_through: AtomicU64::new(0),
        }
    }

    /// Marks the stream untrusted until a catch-up completes — set at
    /// rejoin time, where the standby is missing the primary's history.
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Whether the standby needs an anti-entropy catch-up before the
    /// stream alone accounts for every acked reading (pending join
    /// scan, or tail overflow past the last completed resync).
    pub fn needs_resync(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
            || self.tail.dropped() > self.resynced_through.load(Ordering::Acquire)
    }

    /// Records a completed catch-up: overflow up to now is covered and
    /// the join scan (if pending) is done.
    pub fn note_resynced(&self) {
        self.resynced_through
            .store(self.tail.dropped(), Ordering::Release);
        self.dirty.store(false, Ordering::Release);
    }

    /// Applies up to `budget` queued entries to `standby`, in ack
    /// order. Returns entries applied. An entry the standby refuses
    /// (its own disk is failing) goes back to the head of the tail with
    /// everything polled after it, so the stream stays gap-free and the
    /// next pump retries from the same entry.
    pub fn pump(&self, standby: &dyn StorageEngine, budget: usize) -> Result<usize> {
        let mut entries = self.tail.poll(budget.max(1));
        let mut outcome = Ok(entries.len());
        for (i, e) in entries.iter().enumerate() {
            if let Err(err) = standby.insert_columns(&e.topic, &e.batch) {
                self.tail.requeue(entries.split_off(i));
                outcome = Err(err);
                break;
            }
            self.applied_readings
                .fetch_add(e.batch.len() as u64, Ordering::Relaxed);
        }
        self.applied_entries
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        outcome
    }

    /// Drains the whole tail into `standby` (promotion path: apply the
    /// in-flight `replicating` term before the standby starts serving).
    /// Bounded by the tail's own capacity — the queue cannot grow while
    /// its primary is dead.
    pub fn drain(&self, standby: &dyn StorageEngine) -> Result<usize> {
        let mut total = 0;
        loop {
            let n = self.pump(standby, 1024)?;
            total += n;
            if n == 0 {
                return Ok(total);
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReplicaLinkStats {
        ReplicaLinkStats {
            applied_entries: self.applied_entries.load(Ordering::Relaxed),
            applied_readings: self.applied_readings.load(Ordering::Relaxed),
            lag_entries: self.tail.lag_entries(),
            lag_ms: self.tail.lag_ms(),
            overflowed: self.tail.dropped(),
        }
    }
}

/// What one anti-entropy catch-up copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatchUpReport {
    /// Sensors scanned on the source.
    pub topics: usize,
    /// Readings inserted into the destination.
    pub readings_copied: u64,
    /// Sensors skipped entirely because the destination watermark
    /// already covered the source.
    pub topics_current: usize,
}

/// Copies everything `src` stores that `dst` is missing, per sensor,
/// bounded below by `dst`'s watermark. Idempotent: equal timestamps
/// dedup on insert, so running catch-up concurrently with a live tail
/// (or twice) never duplicates a reading.
pub fn catch_up(src: &dyn StorageEngine, dst: &dyn StorageEngine) -> Result<CatchUpReport> {
    let mut report = CatchUpReport::default();
    for topic in src.topics() {
        report.topics += 1;
        let wm = dst.watermark(&topic);
        // Scan from the watermark itself (not past it) and filter: the
        // watermark reading re-inserts as a dedup no-op and a sensor
        // with no destination history copies whole.
        let missing = src.query(&topic, wm.unwrap_or(Timestamp::ZERO), Timestamp::MAX);
        let newer: Vec<_> = match wm {
            Some(w) => missing.into_iter().filter(|r| r.ts > w).collect(),
            None => missing,
        };
        if newer.is_empty() {
            if wm.is_some() {
                report.topics_current += 1;
            }
            continue;
        }
        dst.insert_batch(&topic, &newer)?;
        report.readings_copied += newer.len() as u64;
    }
    Ok(report)
}

/// Splits one user-facing seed into independent sub-seeds for the
/// layered fault injectors — re-exported from
/// [`dcdb_common::sim::derive_seed`], where the implementation now
/// lives so every harness shares one splitter.
pub use dcdb_common::sim::derive_seed;

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::reading::SensorReading;
    use dcdb_common::topic::Topic;
    use dcdb_storage::{DurableBackend, DurableConfig, FaultConfig, FaultIo, StorageBackend};
    use std::sync::Arc;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    #[test]
    fn pump_preserves_the_conservation_identity() {
        let primary = TappedEngine::wrap(Arc::new(StorageBackend::new()));
        let standby = StorageBackend::new();
        let link = ReplicaLink::attach(&primary, 64);
        for i in 1..=10u64 {
            primary.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        // acked(10) == on_primary(10); replicating(10) + replica_only(0)
        let s = link.stats();
        assert_eq!(s.lag_entries, 10);
        assert_eq!(link.pump(&standby, 4).unwrap(), 4);
        let s = link.stats();
        assert_eq!(s.lag_entries, 6);
        assert_eq!(s.applied_readings, 4);
        assert_eq!(link.drain(&standby).unwrap(), 6);
        assert_eq!(link.stats().lag_entries, 0);
        assert_eq!(
            standby
                .query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            10,
            "every acked reading reached the standby exactly once"
        );
    }

    /// Regression: `pump` used to poll a budget's worth of entries and
    /// abort on the first one the standby refused, silently dropping it
    /// and everything polled after it — acked readings gone from the
    /// stream with no overflow counted, so no resync either. Found by
    /// the `dcdb-sim` ledger (`compound`, seed 0xD1CE, `small`: 64 of
    /// 1 331 accepted readings missing after the promotions).
    #[test]
    fn a_refused_entry_stays_on_the_stream_with_everything_after_it() {
        let dir = std::env::temp_dir().join(format!("dcdb-replica-pump-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let io = Arc::new(FaultIo::std(FaultConfig::quiet(1)));
        let standby =
            DurableBackend::open_with(Arc::clone(&io) as _, &dir, DurableConfig::default())
                .unwrap();
        let primary = TappedEngine::wrap(Arc::new(StorageBackend::new()));
        let link = ReplicaLink::attach(&primary, 64);
        for i in 1..=6u64 {
            primary.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        assert_eq!(link.pump(&standby, 2).unwrap(), 2);
        // The standby's disk starts failing: the third entry is refused.
        io.set_config(FaultConfig {
            eio_prob: 1.0,
            ..FaultConfig::quiet(1)
        });
        assert!(link.pump(&standby, 64).is_err());
        let s = link.stats();
        assert_eq!((s.applied_entries, s.lag_entries), (2, 4), "{s:?}");
        // Once it heals, the next pass resumes at the refused entry.
        io.clear_faults();
        assert_eq!(link.drain(&standby).unwrap(), 4);
        let got = standby.query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX);
        let values: Vec<i64> = got.iter().map(|r| r.value).collect();
        assert_eq!(values, vec![1, 2, 3, 4, 5, 6], "every acked reading, once");
        assert_eq!(link.stats().overflowed, 0);
        drop(standby);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn catch_up_is_watermark_bounded_and_idempotent() {
        let src = StorageBackend::new();
        let dst = StorageBackend::new();
        for i in 1..=20u64 {
            src.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        for i in 1..=12u64 {
            dst.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        let report = catch_up(&src, &dst).unwrap();
        assert_eq!(report.readings_copied, 8, "only past the watermark");
        assert_eq!(
            dst.query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            20
        );
        // Second run: nothing to do, nothing duplicated.
        let report = catch_up(&src, &dst).unwrap();
        assert_eq!(report.readings_copied, 0);
        assert_eq!(report.topics_current, 1);
        assert_eq!(
            dst.query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            20
        );
    }

    #[test]
    fn overlapping_stream_and_catch_up_never_duplicate() {
        let primary = TappedEngine::wrap(Arc::new(StorageBackend::new()));
        for i in 1..=5u64 {
            primary.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        // Join protocol: attach the tail first, then scan — writes
        // landing between the two appear in both; dedup absorbs them.
        let standby = StorageBackend::new();
        let link = ReplicaLink::attach(&primary, 64);
        primary.insert(&t("/r0/n0/power"), r(6, 6)).unwrap();
        catch_up(primary.inner().as_ref(), &standby).unwrap();
        assert_eq!(
            standby
                .query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            6,
            "scan covered pre-attach history and the overlap"
        );
        link.drain(&standby).unwrap();
        assert_eq!(
            standby
                .query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            6,
            "stream replay of the overlap deduped"
        );
    }

    #[test]
    fn derive_seed_lanes_are_independent_and_deterministic() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }
}
