//! Primary→standby replication within one shard: one stream.
//!
//! Each shard of the federation can run as a **replica pair**. The
//! primary's engine is a [`NodeEngine`]: every insert its inner engine
//! acknowledges is appended, in ack order, to an attached
//! [`ReplicaStream`] — a bounded queue. The ack itself is unchanged
//! (journal-before-ack stays inside the inner engine), and only acked
//! entries are streamed. [`ReplicaStream::pump`] hands the standby a
//! budget of queued entries as one [`StorageEngine::insert_many`] group,
//! so a durable standby journals a pump the way the Collect Agent
//! journals a drain. At any instant the conservation identity
//!
//! ```text
//! acked == durable_on_primary + replicating + durable_on_replica_only
//! ```
//!
//! holds: a reading the primary acknowledged is either still queued
//! (`replicating`, the observable lag) or already on the standby; after a
//! promotion the `durable_on_replica_only` term answers queries until the
//! old primary rejoins.
//!
//! The stream needs a **resync** when the standby is missing history the
//! stream will never carry: a node that (re)joins as standby, or an
//! overflow of the bounded queue (the newest entries are turned away and
//! counted, never silently). Both only set one flag; the next pump runs
//! `catch_up` — a per-sensor scan of the primary bounded below by the
//! standby's watermark ([`StorageEngine::watermark`]) — before it applies
//! anything queued. Every engine dedups equal timestamps, so an entry the
//! scan already copied re-applies as a no-op, and so does an entry a
//! refused group put back.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_storage::{AggFrame, StorageEngine, StorageHealthReport, StorageStats};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Bound of a shard's replication stream, entries. Overflow is counted
/// and forces a resync — never silent loss.
pub(crate) const TAIL_CAPACITY: usize = 4096;

/// Max entries one pump hands the standby.
pub(crate) const PUMP_BUDGET: usize = 512;

/// Counters of one shard's replication stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Entries currently queued (replication lag, entries).
    pub lag_entries: usize,
    /// Age of the oldest queued entry, ms (replication lag, time).
    pub lag_ms: u64,
    /// Entries turned away by overflow since attach (each forces a
    /// resync).
    pub overflowed: u64,
}

/// What a promotion drain could not hand the standby.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainLoss {
    /// Readings of the entries the standby refused.
    pub refused: u64,
    /// A resync was pending: the standby lacks history only the dead
    /// primary held, uncountable from here.
    pub resync_dropped: bool,
}

/// One acknowledged write and the instant it was streamed.
type Entry = ((Topic, ReadingBatch), Instant);

#[derive(Default)]
struct StreamState {
    queue: VecDeque<Entry>,
    overflowed: u64,
    /// Set while the standby needs a catch-up before the queue alone
    /// accounts for every acked reading.
    resync: bool,
}

/// The bounded, ack-ordered stream of a primary's acknowledged writes.
pub struct ReplicaStream {
    state: Mutex<StreamState>,
    capacity: usize,
}

impl ReplicaStream {
    /// One replication pass: a catch-up from `primary` first if a
    /// resync is pending, then up to `budget` queued entries into
    /// `standby` as one group. Returns entries applied. Entries from the
    /// first one the standby refuses onward stay at the head of the
    /// stream with their original enqueue times, and the pass errs.
    pub fn pump(
        &self,
        primary: &dyn StorageEngine,
        standby: &dyn StorageEngine,
        budget: usize,
    ) -> Result<usize> {
        if std::mem::take(&mut self.state.lock().resync) {
            if let Err(err) = catch_up(primary, standby) {
                self.state.lock().resync = true;
                return Err(err);
            }
        }
        // Nothing is taken while a resync is pending (an overflow since
        // the catch-up): an entry newer than the turned-away one would
        // lift the standby's watermark past it, and the catch-up would
        // then skip it.
        let (group, at): (Vec<_>, Vec<_>) = {
            let mut state = self.state.lock();
            if state.resync {
                return Ok(0);
            }
            let n = budget.max(1).min(state.queue.len());
            state.queue.drain(..n).unzip()
        };
        let Some(&first) = standby.insert_many(&group).first() else {
            return Ok(group.len());
        };
        let mut state = self.state.lock();
        for entry in group.into_iter().zip(at).skip(first).rev() {
            state.queue.push_front(entry);
        }
        Err(DcdbError::InvalidState(format!(
            "standby refused replication entry {first} of a group"
        )))
    }

    /// Promotion path: offers every queued entry to `standby` once, in
    /// groups of `PUMP_BUDGET`, before it serves (the `replicating`
    /// term of the identity). The primary is dead, so the queue cannot
    /// grow and a pending resync cannot run: both are lost with the
    /// stream and reported.
    pub fn drain(&self, standby: &dyn StorageEngine) -> DrainLoss {
        let (queue, resync_dropped) = {
            let mut state = self.state.lock();
            let resync = std::mem::take(&mut state.resync);
            (std::mem::take(&mut state.queue), resync)
        };
        let group: Vec<_> = queue.into_iter().map(|(entry, _)| entry).collect();
        let mut refused = 0;
        for chunk in group.chunks(PUMP_BUDGET) {
            let lens = standby.insert_many(chunk).into_iter();
            refused += lens.map(|i| chunk[i].1.len() as u64).sum::<u64>();
        }
        DrainLoss {
            refused,
            resync_dropped,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReplicaStats {
        let state = self.state.lock();
        ReplicaStats {
            lag_entries: state.queue.len(),
            lag_ms: state
                .queue
                .front()
                .map_or(0, |(_, at)| at.elapsed().as_millis() as u64),
            overflowed: state.overflowed,
        }
    }

    fn push(&self, entries: impl Iterator<Item = (Topic, ReadingBatch)>) {
        let mut state = self.state.lock();
        for entry in entries.filter(|(_, batch)| !batch.is_empty()) {
            if state.queue.len() >= self.capacity {
                // Never evict the head: a refused group's entries wait
                // there, below a watermark no catch-up scans under.
                state.overflowed += 1;
                state.resync = true;
            } else {
                state.queue.push_back((entry, Instant::now()));
            }
        }
    }
}

impl std::fmt::Debug for ReplicaStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ReplicaStream").field(&self.stats()).finish()
    }
}

/// A node's storage engine: forwards everything to the inner engine and
/// streams each insert it acknowledged to the attached
/// [`ReplicaStream`], if any. A reading is on the stream if and only if
/// the caller saw it acknowledged.
#[derive(Debug)]
pub struct NodeEngine {
    inner: Arc<dyn StorageEngine>,
    stream: Mutex<Option<Arc<ReplicaStream>>>,
}

impl NodeEngine {
    /// Wraps `inner` with no stream attached.
    pub fn wrap(inner: Arc<dyn StorageEngine>) -> Arc<NodeEngine> {
        Arc::new(NodeEngine {
            inner,
            stream: Mutex::new(None),
        })
    }

    /// Attaches a fresh stream of `capacity` entries, replacing any
    /// previous one; inserts acked from here on are streamed. With
    /// `resync` the first pump catches the standby up on the history
    /// before the attach (a node rejoining as standby).
    pub fn attach(&self, capacity: usize, resync: bool) -> Arc<ReplicaStream> {
        let stream = Arc::new(ReplicaStream {
            state: Mutex::new(StreamState {
                resync,
                ..StreamState::default()
            }),
            capacity: capacity.max(1),
        });
        *self.stream.lock() = Some(Arc::clone(&stream));
        stream
    }
}

impl StorageEngine for NodeEngine {
    fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
        self.inner.insert_columns(topic, batch)?;
        if let Some(stream) = self.stream.lock().as_ref() {
            stream.push(std::iter::once((topic.clone(), batch.clone())));
        }
        Ok(())
    }

    fn insert_many(&self, group: &[(Topic, ReadingBatch)]) -> Vec<usize> {
        let refused = self.inner.insert_many(group);
        if let Some(stream) = self.stream.lock().as_ref() {
            // `refused` is ascending: walk it beside the group.
            let mut next_refused = refused.iter().copied().peekable();
            let acked = group
                .iter()
                .enumerate()
                .filter(|(i, _)| next_refused.next_if_eq(i).is_none())
                .map(|(_, entry)| entry.clone());
            stream.push(acked);
        }
        refused
    }

    fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        self.inner.query(topic, t0, t1)
    }

    fn latest(&self, topic: &Topic) -> Option<SensorReading> {
        self.inner.latest(topic)
    }

    fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
        self.inner.oldest_ts(topic)
    }

    fn contains(&self, topic: &Topic) -> bool {
        self.inner.contains(topic)
    }

    fn topics(&self) -> Vec<Topic> {
        self.inner.topics()
    }

    fn evict_before(&self, cutoff: Timestamp) -> usize {
        self.inner.evict_before(cutoff)
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn maintain(&self, now: Timestamp) -> Result<()> {
        self.inner.maintain(now)
    }

    fn health(&self) -> Option<StorageHealthReport> {
        self.inner.health()
    }

    fn rollup_tiers(&self) -> Vec<u64> {
        self.inner.rollup_tiers()
    }

    fn query_frames(
        &self,
        topic: &Topic,
        width_ns: u64,
        t0: Timestamp,
        t1: Timestamp,
    ) -> Vec<AggFrame> {
        self.inner.query_frames(topic, width_ns, t0, t1)
    }
}

/// Copies everything `src` stores that `dst` is missing, per sensor,
/// bounded below by `dst`'s watermark. Idempotent: equal timestamps
/// dedup on insert, so running it beside a live stream (or twice) never
/// duplicates a reading.
fn catch_up(src: &dyn StorageEngine, dst: &dyn StorageEngine) -> Result<()> {
    for topic in src.topics() {
        let wm = dst.watermark(&topic);
        // Scan from the watermark itself (not past it) and filter: a
        // sensor with no destination history copies whole.
        let mut newer = src.query(&topic, wm.unwrap_or(Timestamp::ZERO), Timestamp::MAX);
        newer.retain(|r| wm.is_none_or(|w| r.ts > w));
        if !newer.is_empty() {
            dst.insert_batch(&topic, &newer)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_storage::{DurableBackend, DurableConfig, FaultConfig, FaultIo, StdIo};

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    fn all(engine: &dyn StorageEngine, topic: &str) -> Vec<i64> {
        let got = engine.query(&t(topic), Timestamp::ZERO, Timestamp::MAX);
        got.iter().map(|r| r.value).collect()
    }

    /// An engine that records each write it is handed, or refuses them
    /// all.
    #[derive(Debug, Default)]
    struct Recorder {
        refuse: bool,
        got: Mutex<Vec<(Topic, usize)>>,
    }

    impl StorageEngine for Recorder {
        fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
            if self.refuse {
                return Err(DcdbError::InvalidState("refused".into()));
            }
            self.got.lock().push((topic.clone(), batch.len()));
            Ok(())
        }
        fn query(&self, _: &Topic, _: Timestamp, _: Timestamp) -> Vec<SensorReading> {
            Vec::new()
        }
        fn latest(&self, _: &Topic) -> Option<SensorReading> {
            None
        }
        fn contains(&self, _: &Topic) -> bool {
            false
        }
        fn topics(&self) -> Vec<Topic> {
            Vec::new()
        }
        fn oldest_ts(&self, _: &Topic) -> Option<Timestamp> {
            None
        }
        fn evict_before(&self, _: Timestamp) -> usize {
            0
        }
        fn stats(&self) -> StorageStats {
            StorageStats::default()
        }
        fn flush(&self) -> Result<()> {
            Ok(())
        }
        fn maintain(&self, _: Timestamp) -> Result<()> {
            Ok(())
        }
        fn health(&self) -> Option<StorageHealthReport> {
            None
        }
        fn rollup_tiers(&self) -> Vec<u64> {
            Vec::new()
        }
        fn query_frames(&self, _: &Topic, _: u64, _: Timestamp, _: Timestamp) -> Vec<AggFrame> {
            Vec::new()
        }
    }

    #[test]
    fn acked_inserts_stream_in_ack_order() {
        let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        let stream = primary.attach(16, false);
        primary.insert(&t("/r0/n2/power"), r(1, 1)).unwrap();
        primary
            .insert_batch(&t("/r0/n0/power"), &[r(2, 2), r(3, 3)])
            .unwrap();
        let batch = ReadingBatch::from_readings(&[r(4, 4)]);
        primary.insert_columns(&t("/r0/n1/power"), &batch).unwrap();
        assert_eq!(stream.stats().lag_entries, 3);
        let standby = Recorder::default();
        assert_eq!(stream.pump(primary.as_ref(), &standby, 10).unwrap(), 3);
        let expected = [
            ("/r0/n2/power", 1),
            ("/r0/n0/power", 2),
            ("/r0/n1/power", 1),
        ];
        let expected: Vec<_> = expected.iter().map(|(s, n)| (t(s), *n)).collect();
        assert_eq!(*standby.got.lock(), expected, "ack order, gap-free");
        assert_eq!(stream.stats(), ReplicaStats::default());
    }

    #[test]
    fn overflow_turns_the_newest_away_counts_them_and_sets_resync() {
        let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        let stream = primary.attach(2, false);
        for i in 0..5 {
            primary
                .insert(&t("/r0/n0/power"), r(i, i as u64 + 1))
                .unwrap();
        }
        let s = stream.stats();
        assert_eq!((s.lag_entries, s.overflowed), (2, 3), "overflow is loud");
        assert!(stream.state.lock().resync);
        // The turned-away readings are still on the primary: the pump's
        // catch-up recovers them, and the queued two re-apply as no-ops.
        let standby = DurableBackend::in_memory();
        assert_eq!(stream.pump(primary.as_ref(), &standby, 10).unwrap(), 2);
        assert!(!stream.state.lock().resync);
        assert_eq!(all(&standby, "/r0/n0/power"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn an_unattached_engine_streams_nothing_and_its_watermark_tracks_latest() {
        let engine = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        engine.insert(&t("/r0/n0/power"), r(1, 5)).unwrap();
        let stream = engine.attach(4, false);
        assert_eq!(stream.stats().lag_entries, 0, "nothing before the attach");
        assert_eq!(
            engine.watermark(&t("/r0/n0/power")),
            Some(Timestamp::from_secs(5))
        );
        assert_eq!(engine.watermark(&t("/r0/n9/power")), None);
    }

    #[test]
    fn refused_writes_are_never_streamed() {
        let refusing = Arc::new(Recorder {
            refuse: true,
            ..Recorder::default()
        });
        let engine = NodeEngine::wrap(refusing);
        let stream = engine.attach(4, false);
        assert!(engine.insert(&t("/r0/n0/power"), r(1, 1)).is_err());
        let group = [(t("/r0/n1/power"), ReadingBatch::from_readings(&[r(2, 2)]))];
        assert_eq!(engine.insert_many(&group), vec![0]);
        assert_eq!(stream.stats().lag_entries, 0, "unacked writes stay off");
    }

    #[test]
    fn pump_and_drain_preserve_the_conservation_identity() {
        let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        let standby = DurableBackend::in_memory();
        let stream = primary.attach(64, false);
        for i in 1..=10u64 {
            primary.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        // acked(10) == on_primary(10); replicating(10) + replica_only(0)
        assert_eq!(stream.stats().lag_entries, 10);
        assert_eq!(stream.pump(primary.as_ref(), &standby, 4).unwrap(), 4);
        assert_eq!(stream.stats().lag_entries, 6);
        assert_eq!(stream.drain(&standby), DrainLoss::default());
        assert_eq!(stream.stats().lag_entries, 0);
        let expected: Vec<i64> = (1..=10).collect();
        assert_eq!(all(&standby, "/r0/n0/power"), expected, "each once");
    }

    /// A standby over an in-memory engine that refuses any batch
    /// holding a timestamp in `refuse` — one entry of a group, not the
    /// whole group, as a durable engine refuses chunk by chunk.
    #[derive(Debug)]
    struct Picky {
        inner: DurableBackend,
        refuse: Mutex<Vec<Timestamp>>,
    }

    impl Picky {
        fn new() -> Picky {
            Picky {
                inner: DurableBackend::in_memory(),
                refuse: Mutex::default(),
            }
        }
    }

    impl StorageEngine for Picky {
        fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
            let refuse = self.refuse.lock();
            if batch.iter().any(|r| refuse.contains(&r.ts)) {
                return Err(DcdbError::InvalidState("refused".into()));
            }
            self.inner.insert_columns(topic, batch)
        }
        fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
            self.inner.query(topic, t0, t1)
        }
        fn latest(&self, topic: &Topic) -> Option<SensorReading> {
            self.inner.latest(topic)
        }
        fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
            self.inner.oldest_ts(topic)
        }
        fn contains(&self, topic: &Topic) -> bool {
            self.inner.contains(topic)
        }
        fn topics(&self) -> Vec<Topic> {
            self.inner.topics()
        }
        fn evict_before(&self, cutoff: Timestamp) -> usize {
            self.inner.evict_before(cutoff)
        }
        fn stats(&self) -> StorageStats {
            self.inner.stats()
        }
        fn flush(&self) -> Result<()> {
            self.inner.flush()
        }
        fn maintain(&self, now: Timestamp) -> Result<()> {
            self.inner.maintain(now)
        }
        fn health(&self) -> Option<StorageHealthReport> {
            StorageEngine::health(&self.inner)
        }
        fn rollup_tiers(&self) -> Vec<u64> {
            self.inner.rollup_tiers()
        }
        fn query_frames(
            &self,
            topic: &Topic,
            width: u64,
            t0: Timestamp,
            t1: Timestamp,
        ) -> Vec<AggFrame> {
            self.inner.query_frames(topic, width, t0, t1)
        }
    }

    /// Regression: overflow once dropped the oldest entries — the ones a
    /// partly refused group had put back, below a watermark the
    /// group's accepted later entry had lifted, so the catch-up never
    /// copied them.
    #[test]
    fn a_partly_refused_group_survives_an_overflow_and_arrives_once() {
        let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        let stream = primary.attach(4, false);
        let standby = Picky::new();
        let topic = t("/r0/n0/power");
        for i in 1..=2u64 {
            primary.insert(&topic, r(i as i64, i)).unwrap();
        }
        assert_eq!(stream.pump(primary.as_ref(), &standby, 8).unwrap(), 2);
        // Entry 3 is refused, entry 4 of the same sensor is accepted:
        // the standby's watermark is 4, and 3 goes back to the head.
        *standby.refuse.lock() = vec![Timestamp::from_secs(3)];
        for i in 3..=4u64 {
            primary.insert(&topic, r(i as i64, i)).unwrap();
        }
        assert!(stream.pump(primary.as_ref(), &standby, 8).is_err());
        assert_eq!(standby.watermark(&topic), Some(Timestamp::from_secs(4)));
        // The stream fills up and overflows while the standby refuses.
        for i in 5..=7u64 {
            primary.insert(&topic, r(i as i64, i)).unwrap();
        }
        assert!(stream.pump(primary.as_ref(), &standby, 8).is_err());
        assert_eq!(stream.stats().overflowed, 1);
        standby.refuse.lock().clear();
        while stream.pump(primary.as_ref(), &standby, 8).unwrap() > 0 {}
        let expected: Vec<i64> = (1..=7).collect();
        assert_eq!(all(&standby, "/r0/n0/power"), expected, "each exactly once");
    }

    #[test]
    fn a_drain_counts_exactly_the_readings_the_standby_refused() {
        let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        let stream = primary.attach(8, false);
        primary.insert(&t("/r0/n0/power"), r(1, 1)).unwrap();
        let two = [r(2, 2), r(3, 3)];
        primary.insert_batch(&t("/r0/n1/power"), &two).unwrap();
        primary.insert(&t("/r0/n2/power"), r(4, 4)).unwrap();
        let standby = Picky::new();
        *standby.refuse.lock() = vec![Timestamp::from_secs(3)];
        // Offered once each: the refused batch counts its two readings,
        // and the entry after it still lands.
        let loss = stream.drain(&standby);
        assert_eq!((loss.refused, loss.resync_dropped), (2, false));
        assert_eq!(all(&standby, "/r0/n0/power"), vec![1]);
        assert_eq!(all(&standby, "/r0/n2/power"), vec![4]);
        assert_eq!(stream.stats().lag_entries, 0);
    }

    /// Regression: `pump` once dropped everything after an entry the
    /// standby refused — acked readings gone from the stream with no
    /// overflow counted, so no resync either. Found by the `dcdb-sim`
    /// ledger (`compound`, seed 0xD1CE, `small`).
    #[test]
    fn a_refused_group_stays_on_the_stream_from_its_first_refused_entry() {
        let dir = std::env::temp_dir().join(format!("dcdb-replica-pump-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let io = Arc::new(FaultIo::new(Arc::new(StdIo), FaultConfig::quiet(1)));
        let standby =
            DurableBackend::open_with(Arc::clone(&io) as _, &dir, DurableConfig::default())
                .unwrap();
        let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        let stream = primary.attach(64, false);
        for i in 1..=6u64 {
            primary.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        assert_eq!(stream.pump(primary.as_ref(), &standby, 2).unwrap(), 2);
        // The standby's disk starts failing: the whole group is refused.
        io.set_config(FaultConfig {
            eio_prob: 1.0,
            ..FaultConfig::quiet(1)
        });
        assert!(stream.pump(primary.as_ref(), &standby, 64).is_err());
        assert_eq!(stream.stats().lag_entries, 4);
        // Once it heals, the drain resumes at the refused entry.
        io.clear_faults();
        assert_eq!(stream.drain(&standby), DrainLoss::default());
        assert_eq!(all(&standby, "/r0/n0/power"), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(stream.stats().overflowed, 0);
        drop(standby);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn catch_up_is_watermark_bounded_and_idempotent() {
        let src = DurableBackend::in_memory();
        let dst = DurableBackend::in_memory();
        for i in 1..=20u64 {
            src.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        for i in 1..=12u64 {
            dst.insert(&t("/r0/n0/power"), r(-(i as i64), i)).unwrap();
        }
        catch_up(&src, &dst).unwrap();
        // Only past the watermark: the first twelve keep dst's values.
        let expected: Vec<i64> = (1..=12).map(|i| -i).chain(13..=20).collect();
        assert_eq!(all(&dst, "/r0/n0/power"), expected);
        catch_up(&src, &dst).unwrap();
        assert_eq!(all(&dst, "/r0/n0/power"), expected, "nothing duplicated");
    }

    #[test]
    fn a_resync_and_the_overlapping_stream_never_duplicate() {
        let primary = NodeEngine::wrap(Arc::new(DurableBackend::in_memory()));
        for i in 1..=5u64 {
            primary.insert(&t("/r0/n0/power"), r(i as i64, i)).unwrap();
        }
        // Join protocol: attach with a resync pending — writes landing
        // after the attach are both scanned and streamed; dedup absorbs
        // the overlap.
        let standby = DurableBackend::in_memory();
        let stream = primary.attach(64, true);
        primary.insert(&t("/r0/n0/power"), r(6, 6)).unwrap();
        assert_eq!(stream.pump(primary.as_ref(), &standby, 64).unwrap(), 1);
        assert_eq!(all(&standby, "/r0/n0/power"), vec![1, 2, 3, 4, 5, 6]);
    }
}
