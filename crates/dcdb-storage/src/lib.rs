//! # dcdb-storage — embedded time-series storage backend
//!
//! DCDB persists all monitoring data in Apache Cassandra (paper §IV-A).
//! This crate provides an embedded substitute with the same shape: a
//! keyspace of per-sensor series partitioned by time window, serving the
//! two access patterns the stack needs — append-mostly writes from the
//! Collect Agent and time-range reads from the Wintermute Query Engine
//! when a request misses the sensor caches (paper §V-B).
//!
//! One engine implements the [`StorageEngine`] trait:
//! [`engine::DurableBackend`] layers a write-ahead log ([`wal`]),
//! compressed sealed segments ([`segment`], [`compress`]), rollup tiers
//! ([`rollup`]) and compaction over an in-memory memtable
//! ([`backend::StorageBackend`]), on a data directory ([`StdIo`]) or an
//! in-memory disk ([`MemIo`], [`DurableBackend::in_memory`]).
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
//!
//! The crate does not replicate. A federation replica pair streams a
//! primary's acknowledged writes to its standby in
//! `dcdb_federation::replica`, through the same [`StorageEngine`]
//! trait: [`StorageEngine::insert_many`] for each pump and
//! [`StorageEngine::watermark`] for catch-up.

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
pub mod wal;

pub use backend::StorageBackend;
pub use engine::{
    DurableBackend, DurableConfig, EngineStats, InsertAck, RecoveryReport, StorageStats,
};
pub use health::{
    HealthConfig, HealthCore, HealthState, ReplayCounters, StorageHealthReport, TimeInState,
};
pub use io::{FaultConfig, FaultIo, FaultIoStats, MemIo, StdIo, StorageIo};
pub use rollup::{AggFrame, RollupConfig, RollupStats, TierSpec, DEFAULT_TIER_WIDTHS_NS};
pub use series::{Series, DEFAULT_PARTITION_NS};
pub use wal::FsyncPolicy;

use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::Result;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;

/// The storage abstraction the rest of the stack programs against.
///
/// [`DurableBackend`] implements it, so the Collect Agent and the Query
/// Engine take an `Arc<dyn StorageEngine>` whatever disk sits beneath;
/// the federation's replica tap and test doubles wrap one. Write
/// methods return a [`Result`] so the engine can refuse to acknowledge
/// data it failed to journal.
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
    /// Timestamp of the oldest stored reading for `topic`, from the
    /// index rather than a range query.
    fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp>;
    /// True when any data exists for `topic`.
    fn contains(&self, topic: &Topic) -> bool;
    /// All topics with stored data.
    fn topics(&self) -> Vec<Topic>;
    /// Drops data strictly older than `cutoff`; returns readings evicted.
    fn evict_before(&self, cutoff: Timestamp) -> usize;
    /// Counter snapshot.
    fn stats(&self) -> StorageStats;
    /// Makes all acknowledged data durable: seals the memtable and
    /// fsyncs the journal.
    fn flush(&self) -> Result<()>;
    /// One background maintenance pass (sealing, compaction, retention).
    fn maintain(&self, now: Timestamp) -> Result<()>;
    /// The health report; [`DurableBackend`] always keeps one.
    fn health(&self) -> Option<StorageHealthReport>;
    /// Bucket widths (ns) of the continuous-aggregation rollup tiers
    /// this engine maintains, ascending; empty when rollups are off
    /// (the planner then answers every aggregate from raw).
    fn rollup_tiers(&self) -> Vec<u64>;
    /// Aggregate frames of the `width_ns` tier whose buckets overlap
    /// `[t0, t1]`, ascending by bucket; none when the engine keeps no
    /// such tier, and the planner falls back to raw readings.
    fn query_frames(
        &self,
        topic: &Topic,
        width_ns: u64,
        t0: Timestamp,
        t1: Timestamp,
    ) -> Vec<AggFrame>;
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
