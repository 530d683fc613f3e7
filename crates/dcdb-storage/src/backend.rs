//! The storage backend: a keyspace of per-sensor series.
//!
//! Stands in for the Apache Cassandra cluster DCDB writes to
//! (paper §IV-A). The API surface is exactly what the Collect Agent and
//! the Wintermute Query Engine need: batched inserts keyed by topic,
//! time-range queries, latest-value lookups, and retention eviction.
//!
//! Concurrency model: the topic map is split into [`SHARD_COUNT`]
//! shards, each a `RwLock<HashMap>` selected by topic hash, plus a
//! `Mutex` per series. Concurrent writers to *different* sensors never
//! contend on a series lock, and first-insert map writes only stall the
//! 1-in-[`SHARD_COUNT`] slice of readers that hash to the same shard
//! (the common case: one collect agent thread per pusher stream).

use crate::series::{Series, DEFAULT_PARTITION_NS};
use dcdb_common::batch::ReadingBatch;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked topic-map shards.
pub const SHARD_COUNT: usize = 16;

/// Aggregate counters for footprint reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct StorageStats {
    /// Total readings currently stored.
    pub readings: usize,
    /// Number of sensors with at least one reading.
    pub sensors: usize,
    /// Total inserts performed (including overwrites).
    pub inserts: u64,
    /// Total range queries served.
    pub queries: u64,
}

type Shard = RwLock<HashMap<Topic, Arc<Mutex<Series>>>>;

/// The embedded time-series store.
pub struct StorageBackend {
    shards: [Shard; SHARD_COUNT],
    hasher: BuildHasherDefault<DefaultHasher>,
    partition_ns: u64,
    inserts: AtomicU64,
    queries: AtomicU64,
}

impl StorageBackend {
    /// Creates a backend with the default (10-minute) partitioning.
    pub fn new() -> Self {
        Self::with_partition_ns(DEFAULT_PARTITION_NS)
    }

    /// Creates a backend with a custom partition duration.
    pub fn with_partition_ns(partition_ns: u64) -> Self {
        StorageBackend {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hasher: BuildHasherDefault::default(),
            partition_ns,
            inserts: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    fn shard(&self, topic: &Topic) -> &Shard {
        &self.shards[self.hasher.hash_one(topic) as usize % SHARD_COUNT]
    }

    fn series_for(&self, topic: &Topic) -> Arc<Mutex<Series>> {
        let shard = self.shard(topic);
        if let Some(s) = shard.read().get(topic) {
            return Arc::clone(s);
        }
        let mut map = shard.write();
        Arc::clone(
            map.entry(topic.clone())
                .or_insert_with(|| Arc::new(Mutex::new(Series::new(self.partition_ns)))),
        )
    }

    /// Inserts a columnar batch for `topic` under one series lock,
    /// without re-interleaving the columns into rows first.
    pub fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) {
        self.inserts
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.series_for(topic).lock().insert_columns(batch);
    }

    /// Range query: readings of `topic` with `t0 <= ts <= t1`.
    /// Returns an empty vector for unknown sensors.
    pub fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        match self.shard(topic).read().get(topic) {
            Some(s) => s.lock().query(t0, t1),
            None => Vec::new(),
        }
    }

    /// The whole series of `topic` as one timestamp-ordered batch (empty
    /// for unknown sensors) — the shape seals and the journal write.
    pub fn columns(&self, topic: &Topic) -> ReadingBatch {
        match self.shard(topic).read().get(topic) {
            Some(s) => s.lock().columns(),
            None => ReadingBatch::new(),
        }
    }

    /// The most recent reading of `topic`.
    pub fn latest(&self, topic: &Topic) -> Option<SensorReading> {
        self.shard(topic)
            .read()
            .get(topic)
            .and_then(|s| s.lock().latest())
    }

    /// Timestamp of the oldest stored reading of `topic`, without
    /// materializing a range query — used by the aggregate planner to
    /// clamp open-ended ranges to the data extent.
    pub fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
        self.shard(topic)
            .read()
            .get(topic)
            .and_then(|s| s.lock().oldest())
            .map(|r| r.ts)
    }

    /// True if the backend has ever stored data for `topic`.
    pub fn contains(&self, topic: &Topic) -> bool {
        self.shard(topic).read().contains_key(topic)
    }

    /// All topics with stored data, unordered.
    pub fn topics(&self) -> Vec<Topic> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.read().keys().cloned());
        }
        all
    }

    /// Evicts data older than `cutoff` from every series (retention).
    /// Returns the total number of evicted readings. Shards are visited
    /// one at a time so eviction never stalls the whole keyspace.
    pub fn evict_before(&self, cutoff: Timestamp) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let all: Vec<Arc<Mutex<Series>>> = shard.read().values().map(Arc::clone).collect();
            evicted += all
                .iter()
                .map(|s| s.lock().evict_before(cutoff))
                .sum::<usize>();
        }
        evicted
    }

    /// Counter snapshot, aggregated across shards.
    pub fn stats(&self) -> StorageStats {
        let mut readings = 0;
        let mut sensors = 0;
        for shard in &self.shards {
            let map = shard.read();
            for s in map.values() {
                let len = s.lock().len();
                readings += len;
                if len > 0 {
                    sensors += 1;
                }
            }
        }
        StorageStats {
            readings,
            sensors,
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
        }
    }
}

impl crate::StorageEngine for StorageBackend {
    fn insert_columns(
        &self,
        topic: &Topic,
        batch: &ReadingBatch,
    ) -> dcdb_common::error::Result<()> {
        StorageBackend::insert_columns(self, topic, batch);
        Ok(())
    }
    fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        StorageBackend::query(self, topic, t0, t1)
    }
    fn latest(&self, topic: &Topic) -> Option<SensorReading> {
        StorageBackend::latest(self, topic)
    }
    fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
        StorageBackend::oldest_ts(self, topic)
    }
    fn contains(&self, topic: &Topic) -> bool {
        StorageBackend::contains(self, topic)
    }
    fn topics(&self) -> Vec<Topic> {
        StorageBackend::topics(self)
    }
    fn evict_before(&self, cutoff: Timestamp) -> usize {
        StorageBackend::evict_before(self, cutoff)
    }
    fn stats(&self) -> StorageStats {
        StorageBackend::stats(self)
    }
}

impl Default for StorageBackend {
    fn default() -> Self {
        StorageBackend::new()
    }
}

impl std::fmt::Debug for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("StorageBackend")
            .field("sensors", &s.sensors)
            .field("readings", &s.readings)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageEngine;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    #[test]
    fn insert_query_per_topic() {
        let db = StorageBackend::new();
        db.insert(&t("/n1/power"), r(100, 1)).unwrap();
        db.insert(&t("/n1/power"), r(110, 2)).unwrap();
        db.insert(&t("/n2/power"), r(200, 1)).unwrap();
        let q = db.query(&t("/n1/power"), Timestamp::ZERO, Timestamp::from_secs(10));
        assert_eq!(q.len(), 2);
        assert_eq!(q[1].value, 110);
        assert_eq!(db.latest(&t("/n2/power")).unwrap().value, 200);
        assert!(db
            .query(&t("/nope/x"), Timestamp::ZERO, Timestamp::MAX)
            .is_empty());
    }

    #[test]
    fn batch_insert() {
        let db = StorageBackend::new();
        let batch: Vec<SensorReading> = (0..100).map(|i| r(i, i as u64)).collect();
        db.insert_batch(&t("/n/s"), &batch).unwrap();
        let s = db.stats();
        assert_eq!(s.readings, 100);
        assert_eq!(s.sensors, 1);
        assert_eq!(s.inserts, 100);
    }

    #[test]
    fn eviction_across_sensors() {
        let db = StorageBackend::with_partition_ns(10 * 1_000_000_000);
        for n in 0..4 {
            let topic = t(&format!("/n{n}/s"));
            for i in 0..40u64 {
                db.insert(&topic, r(i as i64, i)).unwrap();
            }
        }
        let evicted = db.evict_before(Timestamp::from_secs(20));
        assert_eq!(evicted, 4 * 20);
        assert_eq!(db.stats().readings, 4 * 20);
    }

    #[test]
    fn concurrent_writers_distinct_sensors() {
        let db = Arc::new(StorageBackend::new());
        let mut handles = vec![];
        for n in 0..8 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let topic = t(&format!("/n{n}/s"));
                for i in 0..1000u64 {
                    db.insert(&topic, r(i as i64, i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = db.stats();
        assert_eq!(s.readings, 8000);
        assert_eq!(s.sensors, 8);
    }

    #[test]
    fn concurrent_same_sensor_is_consistent() {
        let db = Arc::new(StorageBackend::new());
        let topic = t("/shared/s");
        let mut handles = vec![];
        for part in 0..4u64 {
            let db = Arc::clone(&db);
            let topic = topic.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    db.insert(&topic, r(0, part * 10_000 + i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.stats().readings, 2000);
        let q = db.query(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert!(q.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn topics_spread_across_shards() {
        let db = StorageBackend::new();
        for n in 0..200 {
            db.insert(&t(&format!("/rack{}/node{n}/power", n % 8)), r(n, 1))
                .unwrap();
        }
        let populated = db.shards.iter().filter(|s| !s.read().is_empty()).count();
        // 200 hashed topics should land in (nearly) every one of the 16
        // shards; require a clear majority to keep the test robust.
        assert!(populated > SHARD_COUNT / 2, "only {populated} shards used");
        assert_eq!(db.stats().sensors, 200);
        assert_eq!(db.topics().len(), 200);
    }

    #[test]
    fn trait_object_round_trip() {
        let db: Arc<dyn StorageEngine> = Arc::new(StorageBackend::new());
        db.insert(&t("/n/s"), r(5, 9)).unwrap();
        db.insert_batch(&t("/n/s"), &[r(6, 10), r(7, 11)]).unwrap();
        assert_eq!(db.latest(&t("/n/s")).unwrap().value, 7);
        assert_eq!(
            db.query(&t("/n/s"), Timestamp::ZERO, Timestamp::MAX).len(),
            3
        );
        assert!(db.contains(&t("/n/s")));
        assert_eq!(db.stats().readings, 3);
        db.flush().unwrap();
        db.maintain(Timestamp::MAX).unwrap();
        assert_eq!(db.evict_before(Timestamp::MAX), 3);
    }

    #[test]
    fn topics_lists_known_sensors() {
        let db = StorageBackend::new();
        db.insert(&t("/a/x"), r(1, 1)).unwrap();
        db.insert(&t("/b/y"), r(1, 1)).unwrap();
        let mut topics: Vec<String> = db.topics().iter().map(|t| t.as_str().to_string()).collect();
        topics.sort();
        assert_eq!(topics, vec!["/a/x", "/b/y"]);
        assert!(db.contains(&t("/a/x")));
        assert!(!db.contains(&t("/c/z")));
    }
}
