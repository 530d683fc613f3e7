//! A single sensor's time series, partitioned by time.
//!
//! DCDB's Storage Backend is Apache Cassandra with rows partitioned by
//! (sensor, time window); this module reproduces the same layout in
//! memory: readings live in fixed-duration *partitions* keyed by their
//! start timestamp, so range queries touch only the partitions that
//! overlap the requested window and retention eviction drops whole
//! partitions at once.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use std::collections::BTreeMap;

/// Default partition duration: 10 minutes, mirroring DCDB's Cassandra
/// schema granularity.
pub const DEFAULT_PARTITION_NS: u64 = 600 * 1_000_000_000;

/// One sensor's partitioned series.
#[derive(Debug, Clone)]
pub struct Series {
    partition_ns: u64,
    /// partition start timestamp (ns) -> columns sorted by timestamp.
    partitions: BTreeMap<u64, ReadingBatch>,
    len: usize,
}

impl Series {
    /// Creates a series with the given partition duration.
    pub fn new(partition_ns: u64) -> Self {
        assert!(partition_ns > 0, "partition duration must be positive");
        Series {
            partition_ns,
            partitions: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of stored readings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no readings are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions currently held.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    fn partition_start(&self, ts_ns: u64) -> u64 {
        ts_ns / self.partition_ns * self.partition_ns
    }

    /// Inserts one reading. Readings may arrive out of order (facility
    /// data is asynchronous, paper §II-B); each partition keeps itself
    /// sorted. Duplicate timestamps overwrite the previous value, which
    /// makes replays idempotent.
    pub fn insert(&mut self, r: SensorReading) {
        let ts = r.ts.as_nanos();
        let part = self.partitions.entry(self.partition_start(ts)).or_default();
        match part.ts.binary_search(&ts) {
            Ok(i) => part.values[i] = r.value,
            Err(i) => {
                part.ts.insert(i, ts);
                part.values.insert(i, r.value);
                self.len += 1;
            }
        }
    }

    /// Inserts a columnar batch (the collect agent's normal write path).
    ///
    /// Consecutive readings with strictly ascending timestamps that land
    /// in the same partition are detected as a *run* and bulk-appended
    /// column to column when they extend the partition's tail — the
    /// shape in-order samplers produce — skipping the per-reading binary
    /// search. Out-of-order or duplicate readings go through
    /// [`Series::insert`] (sorted insert, duplicate timestamps
    /// overwrite).
    pub fn insert_columns(&mut self, batch: &ReadingBatch) {
        let (ts, values) = (&batch.ts, &batch.values);
        let mut i = 0;
        while i < ts.len() {
            let key = self.partition_start(ts[i]);
            let end = key.saturating_add(self.partition_ns);
            let mut j = i + 1;
            while j < ts.len() && ts[j] > ts[j - 1] && ts[j] < end {
                j += 1;
            }
            let part = self.partitions.entry(key).or_default();
            if part.ts.last().is_none_or(|&last| last < ts[i]) {
                part.ts.extend_from_slice(&ts[i..j]);
                part.values.extend_from_slice(&values[i..j]);
                self.len += j - i;
            } else {
                for k in i..j {
                    self.insert(SensorReading::new(values[k], Timestamp(ts[k])));
                }
            }
            i = j;
        }
    }

    /// All readings with `t0 <= ts <= t1`, in timestamp order.
    pub fn query(&self, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        if t1 < t0 || self.len == 0 {
            return Vec::new();
        }
        let (t0, t1) = (t0.as_nanos(), t1.as_nanos());
        let mut out = Vec::new();
        for (_, part) in self.partitions.range(self.partition_start(t0)..=t1) {
            let lo = part.ts.partition_point(|&ts| ts < t0);
            let hi = part.ts.partition_point(|&ts| ts <= t1);
            let rows = part.ts[lo..hi].iter().zip(&part.values[lo..hi]);
            out.extend(rows.map(|(&ts, &value)| SensorReading::new(value, Timestamp(ts))));
        }
        out
    }

    /// The whole series as one batch, in timestamp order — what seals
    /// and journal rotations write out.
    pub fn columns(&self) -> ReadingBatch {
        let mut out = ReadingBatch::with_capacity(self.len);
        for part in self.partitions.values() {
            out.ts.extend_from_slice(&part.ts);
            out.values.extend_from_slice(&part.values);
        }
        out
    }

    /// The most recent reading.
    pub fn latest(&self) -> Option<SensorReading> {
        let part = self.partitions.values().next_back()?;
        part.get(part.len().checked_sub(1)?)
    }

    /// The oldest stored reading.
    pub fn oldest(&self) -> Option<SensorReading> {
        self.partitions.values().next()?.get(0)
    }

    /// Drops all partitions that end before `cutoff` (retention).
    /// Returns the number of readings evicted.
    pub fn evict_before(&mut self, cutoff: Timestamp) -> usize {
        let mut evicted = 0;
        // A partition [start, start + partition_ns) ends at or before the
        // cutoff iff start <= cutoff - partition_ns.
        let Some(last_evictable) = cutoff.as_nanos().checked_sub(self.partition_ns) else {
            return 0;
        };
        let keys: Vec<u64> = self
            .partitions
            .range(..=last_evictable)
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            if let Some(p) = self.partitions.remove(&k) {
                evicted += p.len();
            }
        }
        self.len -= evicted;
        evicted
    }
}

impl Default for Series {
    fn default() -> Self {
        Series::new(DEFAULT_PARTITION_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::time::NS_PER_SEC;

    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    #[test]
    fn insert_and_query_in_order() {
        let mut s = Series::new(100 * NS_PER_SEC);
        for i in 0..500 {
            s.insert(r(i as i64, i));
        }
        assert_eq!(s.len(), 500);
        assert_eq!(s.partition_count(), 5);
        let q = s.query(Timestamp::from_secs(98), Timestamp::from_secs(103));
        let vals: Vec<i64> = q.iter().map(|x| x.value).collect();
        assert_eq!(vals, vec![98, 99, 100, 101, 102, 103]);
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut s = Series::default();
        for &sec in &[5u64, 1, 9, 3, 7] {
            s.insert(r(sec as i64, sec));
        }
        let q = s.query(Timestamp::ZERO, Timestamp::from_secs(100));
        let ts: Vec<u64> = q.iter().map(|x| x.ts.as_secs()).collect();
        assert_eq!(ts, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn duplicate_timestamp_overwrites() {
        let mut s = Series::default();
        s.insert(r(1, 10));
        s.insert(r(2, 10));
        assert_eq!(s.len(), 1);
        assert_eq!(s.latest().unwrap().value, 2);
    }

    #[test]
    fn query_boundaries_inclusive() {
        let mut s = Series::default();
        s.insert_columns(&ReadingBatch::from_readings(&[r(1, 1), r(2, 2), r(3, 3)]));
        let q = s.query(Timestamp::from_secs(2), Timestamp::from_secs(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].value, 2);
        assert!(s
            .query(Timestamp::from_secs(3), Timestamp::from_secs(1))
            .is_empty());
    }

    #[test]
    fn query_across_partition_boundary() {
        let mut s = Series::new(10 * NS_PER_SEC);
        for i in 0..30 {
            s.insert(r(i as i64, i));
        }
        let q = s.query(Timestamp::from_secs(8), Timestamp::from_secs(21));
        assert_eq!(q.len(), 14);
        assert_eq!(q.first().unwrap().value, 8);
        assert_eq!(q.last().unwrap().value, 21);
    }

    #[test]
    fn latest_and_oldest() {
        let mut s = Series::new(10 * NS_PER_SEC);
        assert!(s.latest().is_none());
        assert!(s.oldest().is_none());
        s.insert_columns(&ReadingBatch::from_readings(&[
            r(5, 5),
            r(25, 25),
            r(15, 15),
        ]));
        assert_eq!(s.latest().unwrap().value, 25);
        assert_eq!(s.oldest().unwrap().value, 5);
    }

    #[test]
    fn eviction_drops_whole_partitions() {
        let mut s = Series::new(10 * NS_PER_SEC);
        for i in 0..40 {
            s.insert(r(i as i64, i));
        }
        // Partitions: [0,10) [10,20) [20,30) [30,40).
        let evicted = s.evict_before(Timestamp::from_secs(20));
        assert_eq!(evicted, 20);
        assert_eq!(s.len(), 20);
        assert_eq!(s.oldest().unwrap().ts.as_secs(), 20);
        // Cutoff inside a partition does not evict it.
        let evicted = s.evict_before(Timestamp::from_secs(35));
        assert_eq!(evicted, 10);
        assert_eq!(s.oldest().unwrap().ts.as_secs(), 30);
    }

    #[test]
    fn columnar_insert_matches_row_insert() {
        // In-order, out-of-order, duplicate and cross-partition shapes
        // must all agree with the per-reading insert path.
        let shapes: Vec<Vec<(i64, u64)>> = vec![
            (0..500).map(|i| (i as i64, i as u64)).collect(),
            vec![(1, 5), (2, 1), (3, 9), (4, 3), (5, 7)],
            vec![(1, 10), (2, 10), (3, 10)],
            vec![(1, 95), (2, 105), (3, 99), (4, 101), (5, 250)],
            vec![],
        ];
        for shape in shapes {
            let rows: Vec<SensorReading> = shape.iter().map(|&(v, s)| r(v, s)).collect();
            let mut by_row = Series::new(100 * NS_PER_SEC);
            for &x in &rows {
                by_row.insert(x);
            }
            let mut by_col = Series::new(100 * NS_PER_SEC);
            by_col.insert_columns(&ReadingBatch::from_readings(&rows));
            assert_eq!(by_col.columns(), by_row.columns());
            assert_eq!(by_col.len(), by_row.len());
        }
    }

    #[test]
    fn random_batch_interleavings_match_row_insert() {
        // Batches mixing in-order runs, late readings, exact duplicates
        // and partition crossings, fed across many calls: the columnar
        // path must leave the series exactly as one `insert` per
        // reading does, whatever was already stored.
        let mut state = 0x5EED_C01D_2026_0928u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let mut by_row = Series::new(50);
            let mut by_col = Series::new(50);
            let mut clock = next() % 100;
            for _ in 0..1 + next() % 12 {
                let mut batch = ReadingBatch::new();
                for _ in 0..next() % 40 {
                    let ts = match next() % 8 {
                        0 => clock.saturating_sub(next() % 120), // late
                        1 => clock,                              // duplicate
                        _ => {
                            clock += 1 + next() % 9;
                            clock
                        }
                    };
                    batch.push(next() as i64, Timestamp(ts));
                }
                by_col.insert_columns(&batch);
                batch.iter().for_each(|r| by_row.insert(r));
                assert_eq!(by_col.columns(), by_row.columns(), "case {case}");
                assert_eq!(by_col.len(), by_row.len(), "case {case}");
            }
            assert!(by_col.columns().is_strictly_ascending());
            assert_eq!(
                by_col.query(Timestamp::ZERO, Timestamp::MAX),
                by_col.columns().to_readings()
            );
        }
    }

    #[test]
    fn columnar_insert_appends_across_calls() {
        let mut s = Series::new(10 * NS_PER_SEC);
        s.insert_columns(&ReadingBatch::from_columns(vec![1, 2, 3], vec![10, 20, 30]));
        // Second batch extends the same partition's tail: still a run.
        s.insert_columns(&ReadingBatch::from_columns(vec![4, 5], vec![40, 50]));
        // Overwrite of an existing timestamp takes the slow path.
        s.insert_columns(&ReadingBatch::from_columns(vec![3], vec![99]));
        assert_eq!(s.len(), 5);
        let q = s.query(Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(
            q.iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![10, 20, 99, 40, 50]
        );
        assert!(q.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn columns_are_globally_sorted() {
        let mut s = Series::new(NS_PER_SEC);
        for &sec in &[9u64, 2, 7, 4, 0] {
            s.insert(r(sec as i64, sec));
        }
        let all = s.columns();
        assert_eq!(all.values, vec![0, 2, 4, 7, 9]);
        assert!(all.is_strictly_ascending());
    }
}
