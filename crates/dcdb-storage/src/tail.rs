//! Journal tailing: the replication feed of an acknowledged-write
//! stream.
//!
//! The paper's production tier survives node churn because Collect
//! Agents are redundant per island (§VI); the federation reproduces
//! that with primary/replica shard pairs. The replica needs the
//! primary's acknowledged writes *in ack order* — exactly the order the
//! WAL assigns — without touching the hot path's latency. This module
//! provides that feed:
//!
//! * [`TappedEngine`] wraps any [`StorageEngine`] and, after each
//!   insert the inner engine acknowledged, appends the batch to an
//!   attached [`JournalTail`] — a bounded in-memory queue. The tap
//!   costs one enqueue per acked insert; the ack itself is unchanged
//!   (journal-before-ack stays inside the wrapped engine). A group
//!   ([`StorageEngine::insert_many`]) is forwarded whole and tapped
//!   entry by entry, in order, skipping the ones the engine refused.
//! * [`JournalTail`] is the consumer half: the replication pump polls
//!   entries and applies them to the standby engine. Lag is observable
//!   as entries queued plus the age of the oldest queued entry.
//! * If the consumer falls behind the bounded queue, the oldest entries
//!   are dropped and counted ([`JournalTail::dropped`]): the tail has a
//!   *gap* and the consumer must run an anti-entropy catch-up (a
//!   watermark-bounded scan of the source engine) before trusting the
//!   stream again. Overflow is loud, never silent.
//!
//! The per-sensor **watermark** ([`StorageEngine::watermark`]) is what
//! makes catch-up cheap and idempotent: replay only needs readings
//! newer than the destination's newest stored timestamp, and storage
//! dedups equal timestamps, so replaying across the watermark boundary
//! can never duplicate a reading.

use crate::backend::StorageStats;
use crate::health::StorageHealthReport;
use crate::rollup::AggFrame;
use crate::StorageEngine;
use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::Result;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One acknowledged write, in ack (WAL) order.
#[derive(Debug, Clone)]
pub struct TailEntry {
    /// Monotonic sequence number assigned at ack time; gaps in the
    /// numbers a consumer observes mean the bounded queue overflowed.
    pub seq: u64,
    /// The sensor the batch belongs to.
    pub topic: Topic,
    /// The acknowledged readings, columnar.
    pub batch: ReadingBatch,
}

struct TailShared {
    queue: Mutex<VecDeque<(TailEntry, Instant)>>,
    capacity: usize,
    /// Entries evicted by overflow since attach: a nonzero delta means
    /// the stream has a gap and the consumer must anti-entropy resync.
    dropped: AtomicU64,
}

/// The consumer half of a tapped engine's acknowledged-write stream.
///
/// Created by [`TappedEngine::attach_tail`]; detached (and the
/// producer's enqueues stop) by attaching a new tail.
pub struct JournalTail {
    shared: Arc<TailShared>,
}

impl JournalTail {
    /// Removes and returns up to `max` entries in ack order.
    pub fn poll(&self, max: usize) -> Vec<TailEntry> {
        let mut queue = self.shared.queue.lock();
        let take = max.min(queue.len());
        queue.drain(..take).map(|(e, _)| e).collect()
    }

    /// Puts polled entries the consumer could not apply back at the head
    /// of the queue, in their original order, so the next poll sees
    /// them first: a poll only consumes what was applied.
    pub fn requeue(&self, entries: Vec<TailEntry>) {
        let mut queue = self.shared.queue.lock();
        for entry in entries.into_iter().rev() {
            queue.push_front((entry, Instant::now()));
        }
    }

    /// Entries currently queued (replication lag in entries).
    pub fn lag_entries(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// Age of the oldest queued entry, milliseconds (replication lag in
    /// time); 0 when the queue is empty.
    pub fn lag_ms(&self) -> u64 {
        self.shared
            .queue
            .lock()
            .front()
            .map(|(_, at)| at.elapsed().as_millis() as u64)
            .unwrap_or(0)
    }

    /// Entries lost to overflow since attach. A consumer seeing this
    /// grow must treat the stream as gapped and resync from the source
    /// engine (watermark-bounded scan) before relying on it again.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

/// A [`StorageEngine`] wrapper that streams every acknowledged insert
/// into an attached [`JournalTail`].
///
/// All reads and maintenance forward untouched; writes forward and, on
/// success only, tap the batch. Acks are therefore exactly the inner
/// engine's acks — a reading appears on the tail if and only if the
/// caller saw it acknowledged.
pub struct TappedEngine {
    inner: Arc<dyn StorageEngine>,
    tail: Mutex<Option<Arc<TailShared>>>,
    seq: AtomicU64,
    /// Acked inserts streamed to a tail (for conservation accounting).
    streamed: AtomicU64,
}

impl std::fmt::Debug for TappedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TappedEngine")
            .field("inner", &self.inner)
            .field("attached", &self.tail.lock().is_some())
            .field("streamed", &self.streamed.load(Ordering::Relaxed))
            .finish()
    }
}

impl TappedEngine {
    /// Wraps `inner`; no tail is attached yet (the tap is free until
    /// one is).
    pub fn wrap(inner: Arc<dyn StorageEngine>) -> Arc<TappedEngine> {
        Arc::new(TappedEngine {
            inner,
            tail: Mutex::new(None),
            seq: AtomicU64::new(0),
            streamed: AtomicU64::new(0),
        })
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &Arc<dyn StorageEngine> {
        &self.inner
    }

    /// Attaches a bounded tail (capacity in entries), replacing any
    /// previous one. Entries acked from this call on are streamed; the
    /// consumer covers history older than the attach with a
    /// watermark-bounded catch-up scan.
    pub fn attach_tail(&self, capacity: usize) -> JournalTail {
        let shared = Arc::new(TailShared {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        });
        *self.tail.lock() = Some(Arc::clone(&shared));
        JournalTail { shared }
    }

    /// Acked inserts streamed to a tail since wrap.
    pub fn streamed(&self) -> u64 {
        self.streamed.load(Ordering::Relaxed)
    }

    fn tap(&self, topic: &Topic, batch: ReadingBatch) {
        if batch.is_empty() {
            return;
        }
        let tail = self.tail.lock();
        let Some(shared) = tail.as_ref() else {
            return;
        };
        let entry = TailEntry {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            topic: topic.clone(),
            batch,
        };
        let mut queue = shared.queue.lock();
        while queue.len() >= shared.capacity {
            queue.pop_front();
            shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back((entry, Instant::now()));
        self.streamed.fetch_add(1, Ordering::Relaxed);
    }
}

impl StorageEngine for TappedEngine {
    fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
        self.inner.insert_columns(topic, batch)?;
        self.tap(topic, batch.clone());
        Ok(())
    }

    fn insert_many(&self, group: &[(Topic, ReadingBatch)]) -> Vec<usize> {
        let refused = self.inner.insert_many(group);
        if self.tail.lock().is_none() {
            return refused;
        }
        // `refused` is ascending: walk it beside the group.
        let mut next_refused = refused.iter().copied().peekable();
        for (i, (topic, batch)) in group.iter().enumerate() {
            if next_refused.next_if_eq(&i).is_none() {
                self.tap(topic, batch.clone());
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageBackend;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    #[test]
    fn acked_inserts_stream_to_the_tail_in_order() {
        let engine = TappedEngine::wrap(Arc::new(StorageBackend::new()));
        let tail = engine.attach_tail(16);
        engine.insert(&t("/r0/n0/power"), r(1, 1)).unwrap();
        engine
            .insert_batch(&t("/r0/n0/power"), &[r(2, 2), r(3, 3)])
            .unwrap();
        engine
            .insert_columns(&t("/r0/n1/power"), &ReadingBatch::from_readings(&[r(4, 4)]))
            .unwrap();
        assert_eq!(tail.lag_entries(), 3);
        let entries = tail.poll(10);
        assert_eq!(entries.len(), 3);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "ack order, gap-free");
        assert_eq!(entries[1].batch.len(), 2);
        assert_eq!(tail.lag_entries(), 0);
        assert_eq!(tail.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_is_counted_not_silent() {
        let engine = TappedEngine::wrap(Arc::new(StorageBackend::new()));
        let tail = engine.attach_tail(2);
        for i in 0..5 {
            engine
                .insert(&t("/r0/n0/power"), r(i, i as u64 + 1))
                .unwrap();
        }
        assert_eq!(tail.lag_entries(), 2);
        assert_eq!(tail.dropped(), 3, "overflow is loud");
        let entries = tail.poll(10);
        assert_eq!(entries[0].seq, 3, "oldest surviving entry");
        // The data itself is still on the engine: catch-up recovers it.
        assert_eq!(
            engine
                .query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            5
        );
    }

    #[test]
    fn detached_tap_is_free_and_watermark_tracks_latest() {
        let engine = TappedEngine::wrap(Arc::new(StorageBackend::new()));
        engine.insert(&t("/r0/n0/power"), r(1, 5)).unwrap();
        assert_eq!(engine.streamed(), 0, "no tail attached, nothing streamed");
        assert_eq!(
            engine.watermark(&t("/r0/n0/power")),
            Some(Timestamp::from_secs(5))
        );
        assert_eq!(engine.watermark(&t("/r0/n9/power")), None);
    }

    #[test]
    fn failed_inserts_never_reach_the_tail() {
        // A read-only StorageEngine stub that refuses every write.
        #[derive(Debug)]
        struct Refusing;
        impl StorageEngine for Refusing {
            fn insert_columns(&self, _: &Topic, _: &ReadingBatch) -> Result<()> {
                Err(dcdb_common::error::DcdbError::InvalidState(
                    "refused".into(),
                ))
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
            fn evict_before(&self, _: Timestamp) -> usize {
                0
            }
            fn stats(&self) -> StorageStats {
                StorageStats::default()
            }
        }
        let engine = TappedEngine::wrap(Arc::new(Refusing));
        let tail = engine.attach_tail(4);
        assert!(engine.insert(&t("/r0/n0/power"), r(1, 1)).is_err());
        assert_eq!(tail.lag_entries(), 0, "unacked writes are not replicated");
    }
}
