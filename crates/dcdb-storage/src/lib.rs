//! # dcdb-storage — embedded time-series storage backend
//!
//! DCDB persists all monitoring data in Apache Cassandra (paper §IV-A).
//! This crate provides an embedded substitute with the same shape: a
//! keyspace of per-sensor series partitioned by time window, serving the
//! two access patterns the stack needs — append-mostly writes from the
//! Collect Agent and time-range reads from the Wintermute Query Engine
//! when a request misses the sensor caches (paper §V-B).
//!
//! Two engines implement the common [`StorageEngine`] trait:
//!
//! * [`backend::StorageBackend`] — the sharded in-memory keyspace;
//! * [`engine::DurableBackend`] — the log-structured durable engine
//!   layering a write-ahead log ([`wal`]), compressed immutable sealed
//!   segments ([`segment`], [`compress`]), rollup tiers ([`rollup`])
//!   and compaction on top of the in-memory backend used as its
//!   memtable.
//!
//! Readings have one shape at rest: every write travels as a columnar
//! [`ReadingBatch`] (one record kind in the journal, one insert path
//! per layer: a group of batches, of which a single batch is the group
//! of one), a memtable partition is a pair of `ts`/`values` columns,
//! and a seal hands those columns to the block codec. Rows
//! (`SensorReading`) exist only where a read API returns them
//! ([`StorageEngine::query`], [`StorageEngine::latest`]).
//!
//! Supporting modules: [`series`] (one sensor's partitioned series),
//! [`sealed`] (the one sealed-file container raw and rollup segments
//! share), [`crc`] (checksums shared by the on-disk formats).

#![warn(missing_docs)]

pub mod backend;
pub mod compress;
pub mod crc;
pub mod engine;
pub mod health;
pub mod io;
pub mod rollup;
pub mod sealed;
pub mod segment;
pub mod series;
pub mod tail;
pub mod wal;

pub use backend::{StorageBackend, StorageStats};
pub use engine::{DurableBackend, DurableConfig, EngineStats, InsertAck, RecoveryReport};
pub use health::{
    HealthConfig, HealthCore, HealthState, ReplayCounters, StorageHealthReport, TimeInState,
};
pub use io::{FaultConfig, FaultIo, FaultIoStats, StdIo, StorageIo};
pub use rollup::{AggFrame, RollupConfig, RollupStats, TierSpec, DEFAULT_TIER_WIDTHS_NS};
pub use series::{Series, DEFAULT_PARTITION_NS};
pub use tail::{JournalTail, TailEntry, TappedEngine};
pub use wal::FsyncPolicy;

use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::Result;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;

/// The storage abstraction the rest of the stack programs against.
///
/// Both the volatile [`StorageBackend`] and the durable
/// [`DurableBackend`] implement it, so the Collect Agent and the Query
/// Engine take an `Arc<dyn StorageEngine>` and pick durability at
/// deployment time. Write methods return a [`Result`] so a durable
/// engine can refuse to acknowledge data it failed to journal; the
/// in-memory engine never fails.
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
    /// Inserts a columnar batch for `topic` — the one write method an
    /// engine implements.
    fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()>;
    /// Inserts a group of batches in order and returns the indices of
    /// the entries the engine refused, ascending — empty (and
    /// unallocated) when it acknowledged them all. An engine that can
    /// journal a group cheaper than its entries one by one overrides
    /// this; what is stored and acknowledged is the same either way.
    fn insert_many(&self, group: &[(Topic, ReadingBatch)]) -> Vec<usize> {
        let refused = |(i, (topic, batch)): (usize, &(Topic, ReadingBatch))| {
            self.insert_columns(topic, batch).is_err().then_some(i)
        };
        group.iter().enumerate().filter_map(refused).collect()
    }
    /// Convenience: inserts one reading as a one-element batch.
    fn insert(&self, topic: &Topic, r: SensorReading) -> Result<()> {
        self.insert_batch(topic, &[r])
    }
    /// Convenience: transposes `readings` into a batch and inserts it.
    fn insert_batch(&self, topic: &Topic, readings: &[SensorReading]) -> Result<()> {
        self.insert_columns(topic, &ReadingBatch::from_readings(readings))
    }
    /// Readings for `topic` with `t0 <= ts <= t1`, timestamp-ordered.
    fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading>;
    /// The newest reading for `topic`.
    fn latest(&self, topic: &Topic) -> Option<SensorReading>;
    /// Timestamp of the oldest stored reading for `topic`. Engines
    /// override this with an index lookup; the default materializes a
    /// full range query.
    fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
        self.query(topic, Timestamp::ZERO, Timestamp::MAX)
            .first()
            .map(|r| r.ts)
    }
    /// True when any data exists for `topic`.
    fn contains(&self, topic: &Topic) -> bool;
    /// All topics with stored data.
    fn topics(&self) -> Vec<Topic>;
    /// Drops data strictly older than `cutoff`; returns readings evicted.
    fn evict_before(&self, cutoff: Timestamp) -> usize;
    /// Counter snapshot.
    fn stats(&self) -> StorageStats;
    /// Makes all acknowledged data durable (no-op for volatile engines).
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    /// One background maintenance pass (sealing, compaction, retention).
    fn maintain(&self, _now: Timestamp) -> Result<()> {
        Ok(())
    }
    /// Health report, for engines that track one (`None` for volatile
    /// engines, which cannot fail).
    fn health(&self) -> Option<StorageHealthReport> {
        None
    }
    /// Bucket widths (ns) of the continuous-aggregation rollup tiers
    /// this engine maintains, ascending; empty when the engine keeps no
    /// rollups (the planner then answers every aggregate from raw).
    fn rollup_tiers(&self) -> Vec<u64> {
        Vec::new()
    }
    /// Aggregate frames of the `width_ns` tier whose buckets overlap
    /// `[t0, t1]`, ascending by bucket. Engines without rollups return
    /// no frames and the planner falls back to raw readings.
    fn query_frames(
        &self,
        _topic: &Topic,
        _width_ns: u64,
        _t0: Timestamp,
        _t1: Timestamp,
    ) -> Vec<AggFrame> {
        Vec::new()
    }
    /// Per-sensor last-applied watermark: the newest stored timestamp
    /// for `topic`. Replication catch-up replays a source engine only
    /// past the destination's watermark; because every engine dedups
    /// equal timestamps, replay across the boundary is idempotent.
    fn watermark(&self, topic: &Topic) -> Option<Timestamp> {
        self.latest(topic).map(|r| r.ts)
    }
    /// All per-sensor watermarks, one `(topic, newest ts)` pair per
    /// stored sensor — the anti-entropy summary a catch-up exchanges.
    fn watermarks(&self) -> Vec<(Topic, Timestamp)> {
        self.topics()
            .into_iter()
            .filter_map(|t| self.watermark(&t).map(|ts| (t, ts)))
            .collect()
    }
}
