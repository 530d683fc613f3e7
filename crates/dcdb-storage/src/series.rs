//! A single sensor's time series: one timestamp-sorted column pair.
//!
//! DCDB's Storage Backend is Apache Cassandra with rows partitioned by
//! (sensor, time window), so a range query reads only the partitions
//! that overlap it. The memtable keeps no such split: a series holds
//! what its sensor stored since the last seal (all sensors together
//! hold at most `DurableConfig::memtable_max_readings`), and long
//! histories are split by time in the sealed segments instead. One
//! sorted column pair per sensor answers a range with two binary
//! searches and evicts an exact prefix, and a sensor that has stored
//! one reading costs two small column buffers, not a partition index.
//! The price falls on out-of-order data: a late reading shifts every
//! newer reading of the series, and eviction moves everything that
//! remains, so both cost grows with the series rather than with one
//! time window. In-order runs, the shape samplers produce, only append;
//! no benchmark workload sends out-of-order readings, so that cost is
//! unmeasured.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;

/// One sensor's readings, strictly ascending by timestamp.
#[derive(Debug, Clone, Default)]
pub struct Series {
    cols: ReadingBatch,
}

impl Series {
    /// Number of stored readings.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when no readings are stored.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// True when `ts` is newer than every stored reading.
    fn extends_tail(&self, ts: u64) -> bool {
        self.cols.ts.last().is_none_or(|&last| last < ts)
    }

    /// Inserts one reading. Readings may arrive out of order (facility
    /// data is asynchronous, paper §II-B); the columns stay sorted.
    /// Duplicate timestamps overwrite the previous value, which makes
    /// replays idempotent.
    pub fn insert(&mut self, r: SensorReading) {
        let ts = r.ts.as_nanos();
        if self.extends_tail(ts) {
            self.cols.push(r.value, r.ts);
            return;
        }
        match self.cols.ts.binary_search(&ts) {
            Ok(i) => self.cols.values[i] = r.value,
            Err(i) => {
                self.cols.ts.insert(i, ts);
                self.cols.values.insert(i, r.value);
            }
        }
    }

    /// Inserts a columnar batch (the collect agent's normal write path).
    ///
    /// Consecutive readings with strictly ascending timestamps form a
    /// *run*; a run that extends the tail — the shape in-order samplers
    /// produce — is appended column to column without a per-reading
    /// search. Other runs go through [`Series::insert`] (sorted insert,
    /// duplicate timestamps overwrite).
    pub fn insert_columns(&mut self, batch: &ReadingBatch) {
        let (ts, values) = (&batch.ts, &batch.values);
        let mut i = 0;
        while i < ts.len() {
            let mut j = i + 1;
            while j < ts.len() && ts[j] > ts[j - 1] {
                j += 1;
            }
            if self.extends_tail(ts[i]) {
                self.cols.ts.extend_from_slice(&ts[i..j]);
                self.cols.values.extend_from_slice(&values[i..j]);
            } else {
                for k in i..j {
                    self.insert(SensorReading::new(values[k], Timestamp(ts[k])));
                }
            }
            i = j;
        }
    }

    /// Puts an older generation of this sensor's readings under the
    /// series: where both hold a timestamp the series' reading wins, as
    /// in a merged read. A seal that failed hands its memtable back so.
    pub(crate) fn insert_older(&mut self, older: &ReadingBatch) {
        let newer = std::mem::replace(&mut self.cols, older.clone());
        self.insert_columns(&newer);
    }

    /// All readings with `t0 <= ts <= t1`, in timestamp order.
    pub fn query(&self, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        if t1 < t0 {
            return Vec::new();
        }
        let ts = &self.cols.ts;
        let lo = ts.partition_point(|&t| t < t0.as_nanos());
        let hi = ts.partition_point(|&t| t <= t1.as_nanos());
        let rows = ts[lo..hi].iter().zip(&self.cols.values[lo..hi]);
        rows.map(|(&ts, &value)| SensorReading::new(value, Timestamp(ts)))
            .collect()
    }

    /// The whole series as one batch, in timestamp order — what seals
    /// and journal rotations write out.
    pub fn columns(&self) -> ReadingBatch {
        self.cols.clone()
    }

    /// The most recent reading.
    pub fn latest(&self) -> Option<SensorReading> {
        self.cols.get(self.len().checked_sub(1)?)
    }

    /// The oldest stored reading.
    pub fn oldest(&self) -> Option<SensorReading> {
        self.cols.get(0)
    }

    /// Drops every reading older than `cutoff` (retention). Returns the
    /// number of readings evicted.
    pub fn evict_before(&mut self, cutoff: Timestamp) -> usize {
        let n = self.cols.ts.partition_point(|&t| t < cutoff.as_nanos());
        self.cols.ts.drain(..n);
        self.cols.values.drain(..n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    #[test]
    fn insert_and_query_in_order() {
        let mut s = Series::default();
        for i in 0..500 {
            s.insert(r(i as i64, i));
        }
        assert_eq!(s.len(), 500);
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
        let mut s = Series::default();
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
        let mut s = Series::default();
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
    fn columnar_insert_matches_row_insert() {
        // In-order, out-of-order, duplicate and tail-crossing shapes
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
            let mut by_row = Series::default();
            for &x in &rows {
                by_row.insert(x);
            }
            let mut by_col = Series::default();
            by_col.insert_columns(&ReadingBatch::from_readings(&rows));
            assert_eq!(by_col.columns(), by_row.columns());
            assert_eq!(by_col.len(), by_row.len());
        }
    }

    #[test]
    fn random_batch_interleavings_match_row_insert() {
        // Batches mixing in-order runs, late readings and exact
        // duplicates, fed across many calls: the columnar path must
        // leave the series exactly as one `insert` per reading does,
        // whatever was already stored.
        let mut state = 0x5EED_C01D_2026_0928u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let mut by_row = Series::default();
            let mut by_col = Series::default();
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
        let mut s = Series::default();
        s.insert_columns(&ReadingBatch::from_columns(vec![1, 2, 3], vec![10, 20, 30]));
        // Second batch extends the tail: still a run.
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
        let mut s = Series::default();
        for &sec in &[9u64, 2, 7, 4, 0] {
            s.insert(r(sec as i64, sec));
        }
        let all = s.columns();
        assert_eq!(all.values, vec![0, 2, 4, 7, 9]);
        assert!(all.is_strictly_ascending());
    }

    /// One step against the series and its reference model.
    #[derive(Debug, Clone)]
    enum Op {
        /// A batch of `len` readings from `start`, `step` apart: an
        /// in-order run when it lands past the tail, late otherwise.
        Run {
            start: u64,
            step: u64,
            len: u64,
            value: i64,
        },
        /// Readings at arbitrary timestamps: out of order and, in a
        /// range this small, often duplicates.
        Scatter(Vec<(u64, i64)>),
        Evict(u64),
        Query(u64, u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..400, 1u64..4, 0u64..24, any::<i64>()).prop_map(|(start, step, len, value)| {
                Op::Run {
                    start,
                    step,
                    len,
                    value,
                }
            }),
            prop::collection::vec((0u64..400, any::<i64>()), 0..12).prop_map(Op::Scatter),
            (0u64..420).prop_map(Op::Evict),
            (0u64..420, 0u64..420).prop_map(|(a, b)| Op::Query(a, b)),
        ]
    }

    fn row((&ts, &value): (&u64, &i64)) -> SensorReading {
        SensorReading::new(value, Timestamp(ts))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The series against a `BTreeMap<ts, value>` with the same
        /// overwrite rule: after every step the two hold the same rows,
        /// `latest`/`oldest` are the map's ends, a range query is the
        /// map's range, and eviction drops exactly the keys below the
        /// cutoff.
        #[test]
        fn series_matches_a_sorted_map(ops in prop::collection::vec(op(), 1..40)) {
            let mut series = Series::default();
            let mut model: BTreeMap<u64, i64> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Run { start, step, len, value } => {
                        let ts: Vec<u64> = (0..len).map(|k| start + k * step).collect();
                        let values: Vec<i64> =
                            (0..len as i64).map(|k| value.wrapping_add(k)).collect();
                        for (&t, &v) in ts.iter().zip(&values) {
                            model.insert(t, v);
                        }
                        series.insert_columns(&ReadingBatch::from_columns(ts, values));
                    }
                    Op::Scatter(rows) => {
                        let mut batch = ReadingBatch::new();
                        for &(t, v) in &rows {
                            model.insert(t, v);
                            batch.push(v, Timestamp(t));
                        }
                        series.insert_columns(&batch);
                    }
                    Op::Evict(cutoff) => {
                        let kept = model.split_off(&cutoff);
                        let expired = std::mem::replace(&mut model, kept).len();
                        prop_assert_eq!(series.evict_before(Timestamp(cutoff)), expired);
                    }
                    Op::Query(t0, t1) => {
                        let want: Vec<SensorReading> = if t0 <= t1 {
                            model.range(t0..=t1).map(row).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(series.query(Timestamp(t0), Timestamp(t1)), want);
                    }
                }
                prop_assert_eq!(series.len(), model.len());
                let rows: Vec<SensorReading> = model.iter().map(row).collect();
                prop_assert_eq!(series.columns().to_readings(), rows);
                prop_assert_eq!(series.latest(), model.last_key_value().map(row));
                prop_assert_eq!(series.oldest(), model.first_key_value().map(row));
            }
        }
    }
}
