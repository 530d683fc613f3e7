//! The memtable of [`crate::engine::DurableBackend`]: a keyspace of
//! per-sensor series — one sorted column pair each ([`Series`]) —
//! holding recent readings until a seal writes them out: columnar
//! inserts keyed by topic, time-range queries, latest/oldest lookups,
//! whole series for a seal, exact retention eviction.
//!
//! Concurrency model: the topic map is split into [`SHARD_COUNT`]
//! shards, each a `RwLock<HashMap>` selected by topic hash, plus a
//! `Mutex` per series. Concurrent writers to *different* sensors never
//! contend on a series lock, and first-insert map writes only stall the
//! 1-in-[`SHARD_COUNT`] slice of readers that hash to the same shard
//! (the common case: one collect agent thread per pusher stream).

use crate::series::Series;
use dcdb_common::batch::ReadingBatch;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

/// Number of independently locked topic-map shards.
pub const SHARD_COUNT: usize = 16;

type Shard = RwLock<HashMap<Topic, Arc<Mutex<Series>>>>;

/// The memtable. See the module docs.
pub struct StorageBackend {
    shards: [Shard; SHARD_COUNT],
    hasher: BuildHasherDefault<DefaultHasher>,
}

impl StorageBackend {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        StorageBackend {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hasher: BuildHasherDefault::default(),
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
        Arc::clone(map.entry(topic.clone()).or_default())
    }

    /// Inserts a columnar batch for `topic` under one series lock,
    /// without re-interleaving the columns into rows first.
    pub fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) {
        self.series_for(topic).lock().insert_columns(batch);
    }

    /// Range query: readings of `topic` with `t0 <= ts <= t1`.
    /// Returns an empty vector for unknown sensors.
    pub fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
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

    /// Evicts every reading older than `cutoff` from every series
    /// (retention). Returns the total number of evicted readings.
    /// Shards are visited one at a time so eviction never stalls the
    /// whole keyspace.
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

    /// Readings stored, summed across shards.
    pub fn readings(&self) -> usize {
        let mut readings = 0;
        for shard in &self.shards {
            readings += shard.read().values().map(|s| s.lock().len()).sum::<usize>();
        }
        readings
    }
}

impl Default for StorageBackend {
    fn default() -> Self {
        StorageBackend::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }
    fn put(db: &StorageBackend, topic: &Topic, readings: &[SensorReading]) {
        db.insert_columns(topic, &ReadingBatch::from_readings(readings));
    }

    #[test]
    fn insert_query_per_topic() {
        let db = StorageBackend::new();
        put(&db, &t("/n1/power"), &[r(100, 1)]);
        put(&db, &t("/n1/power"), &[r(110, 2)]);
        put(&db, &t("/n2/power"), &[r(200, 1)]);
        let q = db.query(&t("/n1/power"), Timestamp::ZERO, Timestamp::from_secs(10));
        assert_eq!(q.len(), 2);
        assert_eq!(q[1].value, 110);
        assert_eq!(db.latest(&t("/n2/power")).unwrap().value, 200);
        assert_eq!(db.oldest_ts(&t("/n1/power")), Some(Timestamp::from_secs(1)));
        assert!(db
            .query(&t("/nope/x"), Timestamp::ZERO, Timestamp::MAX)
            .is_empty());
    }

    #[test]
    fn batch_insert() {
        let db = StorageBackend::new();
        let batch: Vec<SensorReading> = (0..100).map(|i| r(i, i as u64)).collect();
        put(&db, &t("/n/s"), &batch);
        assert_eq!(db.readings(), 100);
        assert_eq!(db.topics().len(), 1);
        assert_eq!(db.columns(&t("/n/s")).len(), 100);
    }

    #[test]
    fn eviction_across_sensors() {
        let db = StorageBackend::new();
        for n in 0..4 {
            let topic = t(&format!("/n{n}/s"));
            for i in 0..40u64 {
                put(&db, &topic, &[r(i as i64, i)]);
            }
        }
        let evicted = db.evict_before(Timestamp::from_secs(20));
        assert_eq!(evicted, 4 * 20);
        assert_eq!(db.readings(), 4 * 20);
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
                    put(&db, &topic, &[r(i as i64, i)]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.readings(), 8000);
        assert_eq!(db.topics().len(), 8);
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
                    put(&db, &topic, &[r(0, part * 10_000 + i)]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.readings(), 2000);
        let q = db.query(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert!(q.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn topics_spread_across_shards() {
        let db = StorageBackend::new();
        for n in 0..200 {
            put(
                &db,
                &t(&format!("/rack{}/node{n}/power", n % 8)),
                &[r(n, 1)],
            );
        }
        let populated = db.shards.iter().filter(|s| !s.read().is_empty()).count();
        // 200 hashed topics should land in (nearly) every one of the 16
        // shards; require a clear majority to keep the test robust.
        assert!(populated > SHARD_COUNT / 2, "only {populated} shards used");
        assert_eq!(db.topics().len(), 200);
    }

    #[test]
    fn topics_lists_known_sensors() {
        let db = StorageBackend::new();
        put(&db, &t("/a/x"), &[r(1, 1)]);
        put(&db, &t("/b/y"), &[r(1, 1)]);
        let mut topics: Vec<String> = db.topics().iter().map(|t| t.as_str().to_string()).collect();
        topics.sort();
        assert_eq!(topics, vec!["/a/x", "/b/y"]);
        assert!(db.contains(&t("/a/x")));
        assert!(!db.contains(&t("/c/z")));
    }
}
