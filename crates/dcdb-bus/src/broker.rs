//! The in-process message broker.
//!
//! DCDB runs an MQTT broker inside every Collect Agent; Pushers publish
//! sensor frames to it and any component may subscribe with topic
//! filters. This module reproduces those semantics in-process:
//!
//! * QoS 0 (fire-and-forget) delivery, like DCDB's data path;
//! * wildcard subscriptions backed by a topic trie, so routing cost is
//!   proportional to topic depth rather than subscriber count;
//! * one hop: `publish` matches and enqueues on the caller's thread, so
//!   a message's fate is decided when `publish` returns and the bus is
//!   deterministic by construction;
//! * **bounded queues**: every subscriber queue carries a capacity
//!   bound and an [`OverflowPolicy`], so a slow subscriber or a publish
//!   storm degrades by policy (block / drop-newest / drop-oldest)
//!   instead of growing memory without limit. Queue depth, high-water
//!   marks and drop counters are exported per subscriber via
//!   [`Broker::metrics`] / [`BusHandle::metrics`].

use crate::filter::{FilterSegment, TopicFilter};
use crate::queue::{BoundedQueue, OverflowPolicy, PushOutcome, QueueMetricsSnapshot};
use bytes::Bytes;
use dcdb_common::error::DcdbError;
use dcdb_common::topic::Topic;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A routed message: topic plus opaque payload.
///
/// `Topic` and [`Bytes`] are both reference-counted, so cloning a message
/// for fan-out is two atomic increments.
#[derive(Debug, Clone)]
pub struct Message {
    /// The topic the message was published to.
    pub topic: Topic,
    /// Opaque payload (sensor frames use [`crate::codec`]).
    pub payload: Bytes,
}

/// Unique id of one subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SubId(u64);

/// Queue sizing and overflow behaviour for a broker.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Default capacity of each subscriber queue.
    pub sub_depth: usize,
    /// Default overflow policy of each subscriber queue. `DropOldest`
    /// keeps publishers non-blocking (QoS 0). `Block` gives lossless
    /// backpressure by parking the publishing thread inside `publish`
    /// until the subscriber pops, so it requires the consumer to run on
    /// another thread than the publisher.
    pub sub_policy: OverflowPolicy,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            sub_depth: 8_192,
            sub_policy: OverflowPolicy::DropOldest,
        }
    }
}

/// Per-subscription overrides for [`BusHandle::subscribe_with`].
#[derive(Debug, Clone, Default)]
pub struct SubscribeOptions {
    /// Queue capacity; broker default when `None`.
    pub depth: Option<usize>,
    /// Overflow policy; broker default when `None`.
    pub policy: Option<OverflowPolicy>,
    /// Human-readable label shown in the metrics registry.
    pub label: Option<String>,
}

impl SubscribeOptions {
    /// Sets the queue capacity.
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Sets the overflow policy.
    pub fn policy(mut self, policy: OverflowPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the metrics label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Counters exposed by the broker for footprint accounting.
#[derive(Debug, Default)]
pub struct BusStats {
    published: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

/// A point-in-time snapshot of [`BusStats`].
///
/// Accounting is per *copy* offered to a subscriber: every copy ends up
/// either `delivered` (admitted to the subscriber queue and never
/// evicted) or `dropped` (dead subscriber, drop-newest rejection, or
/// drop-oldest eviction — an eviction moves the evicted copy from
/// `delivered` to `dropped`). With a single subscriber matching every
/// topic, `published == delivered + dropped` holds across policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStatsSnapshot {
    /// Messages accepted from publishers.
    pub published: u64,
    /// Message copies currently admitted to subscriber queues (consumed
    /// or still queued), net of later evictions.
    pub delivered: u64,
    /// Copies dropped: dead subscriber, full queue (drop-newest), or
    /// evicted (drop-oldest).
    pub dropped: u64,
    /// Always 0: there is no router queue to lose a message at. Kept
    /// because frozen `pipeline-bench/` reads it; the next `[benchmark]`
    /// PR deletes it (ROADMAP item 1b).
    pub router_dropped: u64,
}

/// Metrics for one live subscription, as exported by
/// [`Broker::metrics`].
#[derive(Debug, Clone)]
pub struct SubscriptionMetrics {
    /// Label supplied at subscribe time (or a generated one).
    pub label: String,
    /// The subscription's topic filter.
    pub filter: String,
    /// Queue counters: depth, high-water, drops.
    pub queue: QueueMetricsSnapshot,
}

/// Full bus metrics: broker counters and one entry per live
/// subscription.
#[derive(Debug, Clone)]
pub struct BusMetricsSnapshot {
    /// Broker-level counters.
    pub stats: BusStatsSnapshot,
    /// Always `None`: there is no router queue. Kept because frozen
    /// `pipeline-bench/` reads it; the next `[benchmark]` PR deletes it
    /// (ROADMAP item 1b).
    pub router: Option<QueueMetricsSnapshot>,
    /// Per-subscription queue metrics.
    pub subscriptions: Vec<SubscriptionMetrics>,
}

/// Subscription trie: one node per filter path prefix.
#[derive(Default)]
struct TrieNode {
    literal: HashMap<String, TrieNode>,
    single: Option<Box<TrieNode>>,
    /// Subscriptions whose filter ends with `#` here.
    multi: Vec<SubId>,
    /// Subscriptions whose filter ends exactly here.
    terminal: Vec<SubId>,
}

impl TrieNode {
    fn insert(&mut self, segs: &[FilterSegment], id: SubId) {
        match segs.first() {
            None => self.terminal.push(id),
            Some(FilterSegment::MultiLevel) => self.multi.push(id),
            Some(FilterSegment::Literal(l)) => self
                .literal
                .entry(l.clone())
                .or_default()
                .insert(&segs[1..], id),
            Some(FilterSegment::SingleLevel) => self
                .single
                .get_or_insert_with(Default::default)
                .insert(&segs[1..], id),
        }
    }

    fn remove(&mut self, segs: &[FilterSegment], id: SubId) {
        match segs.first() {
            None => self.terminal.retain(|&x| x != id),
            Some(FilterSegment::MultiLevel) => self.multi.retain(|&x| x != id),
            Some(FilterSegment::Literal(l)) => {
                if let Some(child) = self.literal.get_mut(l) {
                    child.remove(&segs[1..], id);
                }
            }
            Some(FilterSegment::SingleLevel) => {
                if let Some(child) = self.single.as_mut() {
                    child.remove(&segs[1..], id);
                }
            }
        }
    }

    fn collect(&self, segs: &[&str], out: &mut Vec<SubId>) {
        out.extend_from_slice(&self.multi);
        match segs.first() {
            None => out.extend_from_slice(&self.terminal),
            Some(&seg) => {
                if let Some(child) = self.literal.get(seg) {
                    child.collect(&segs[1..], out);
                }
                if let Some(child) = self.single.as_deref() {
                    child.collect(&segs[1..], out);
                }
            }
        }
    }
}

struct SinkEntry {
    queue: Arc<BoundedQueue<Message>>,
    filter: TopicFilter,
    label: String,
}

struct Inner {
    config: BusConfig,
    trie: RwLock<TrieNode>,
    sinks: RwLock<HashMap<SubId, SinkEntry>>,
    next_id: AtomicU64,
    stats: BusStats,
}

impl Inner {
    fn publish(&self, topic: Topic, payload: Bytes) {
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        let mut ids = Vec::new();
        self.trie
            .read()
            .collect(&topic.segments().collect::<Vec<_>>(), &mut ids);
        if ids.is_empty() {
            return;
        }
        // A `Block` queue parks the publisher inside `push`, so no
        // broker lock may be held across it: take the matched queues
        // out from under the read guard first.
        let targets: Vec<(SubId, Arc<BoundedQueue<Message>>)> = {
            let sinks = self.sinks.read();
            ids.into_iter()
                .filter_map(|id| sinks.get(&id).map(|e| (id, Arc::clone(&e.queue))))
                .collect()
        };
        let msg = Message { topic, payload };
        let mut dead: Vec<SubId> = Vec::new();
        for (id, queue) in targets {
            match queue.push(msg.clone()) {
                PushOutcome::Enqueued => {
                    self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                }
                // `Evicted`: the new copy was admitted but an older
                // delivered copy was evicted — net effect is one more
                // drop, delivered unchanged.
                PushOutcome::Evicted | PushOutcome::DroppedNewest => {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
                PushOutcome::Closed => {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    dead.push(id);
                }
            }
        }
        if !dead.is_empty() {
            // A disconnected subscriber must leave *both* indexes: the
            // sink map and the routing trie. Leaving it in the trie
            // would match every subsequent publish forever, inflating
            // `dropped` and growing garbage nodes.
            let mut trie = self.trie.write();
            let mut sinks = self.sinks.write();
            for id in dead {
                if let Some(entry) = sinks.remove(&id) {
                    trie.remove(entry.filter.segments(), id);
                    entry.queue.close_tx();
                }
            }
        }
    }

    fn subscribe(self: &Arc<Self>, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        let id = SubId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let depth = opts.depth.unwrap_or(self.config.sub_depth);
        let policy = opts.policy.unwrap_or(self.config.sub_policy);
        let label = opts.label.unwrap_or_else(|| format!("sub-{}", id.0));
        let queue = BoundedQueue::new(depth, policy);
        let mut trie = self.trie.write();
        let mut sinks = self.sinks.write();
        trie.insert(filter.segments(), id);
        sinks.insert(
            id,
            SinkEntry {
                queue: Arc::clone(&queue),
                filter: filter.clone(),
                label,
            },
        );
        drop(sinks);
        drop(trie);
        Subscription {
            id,
            filter,
            queue,
            inner: Arc::clone(self),
        }
    }

    fn unsubscribe(&self, filter: &TopicFilter, id: SubId) {
        let mut trie = self.trie.write();
        let mut sinks = self.sinks.write();
        trie.remove(filter.segments(), id);
        sinks.remove(&id);
    }

    fn stats_snapshot(&self) -> BusStatsSnapshot {
        BusStatsSnapshot {
            published: self.stats.published.load(Ordering::Relaxed),
            delivered: self.stats.delivered.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            router_dropped: 0,
        }
    }

    fn metrics_snapshot(&self) -> BusMetricsSnapshot {
        let subscriptions = self
            .sinks
            .read()
            .values()
            .map(|entry| SubscriptionMetrics {
                label: entry.label.clone(),
                filter: entry.filter.as_str().to_string(),
                queue: entry.queue.metrics(),
            })
            .collect();
        BusMetricsSnapshot {
            stats: self.stats_snapshot(),
            router: None,
            subscriptions,
        }
    }
}

/// The broker: the subscription indexes and counters that cheap
/// [`BusHandle`]s publish into and subscribe on. It owns no thread;
/// handles and subscriptions outlive it.
pub struct Broker {
    inner: Arc<Inner>,
}

impl Broker {
    /// Creates a broker with default queue bounds.
    pub fn new() -> Broker {
        Broker::with_config(BusConfig::default())
    }

    /// Creates a broker with explicit subscriber queue bounds and
    /// overflow policy.
    pub fn with_config(config: BusConfig) -> Broker {
        Broker {
            inner: Arc::new(Inner {
                config,
                trie: RwLock::new(TrieNode::default()),
                sinks: RwLock::new(HashMap::new()),
                next_id: AtomicU64::new(0),
                stats: BusStats::default(),
            }),
        }
    }

    /// A cloneable handle for publishing and subscribing.
    pub fn handle(&self) -> BusHandle {
        BusHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Does nothing: everything published is already routed. Kept
    /// because frozen `pipeline-bench/` calls it; the next `[benchmark]`
    /// PR deletes it (ROADMAP item 1b).
    pub fn flush(&self) {}

    /// Snapshot of the broker counters.
    pub fn stats(&self) -> BusStatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// Full metrics: broker counters and per-subscription queue depth /
    /// high-water / drop counters.
    pub fn metrics(&self) -> BusMetricsSnapshot {
        self.inner.metrics_snapshot()
    }

    /// Number of live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.inner.sinks.read().len()
    }
}

impl Default for Broker {
    fn default() -> Self {
        Broker::new()
    }
}

/// The publish/subscribe surface of the bus, shared by the real
/// [`BusHandle`] and by fault-injecting wrappers such as
/// [`crate::chaos::ChaosBus`].
///
/// Components that *deliver* data (the Pusher's supervised connection,
/// the Collect Agent's ingest path) talk to the bus through this trait
/// so a test or benchmark can substitute a chaos layer without touching
/// the component: every failure mode the wrapper injects exercises the
/// exact production code path.
pub trait MessageBus: Send + Sync {
    /// Publishes a payload to `topic` (QoS 0). An `Err` means the bus
    /// refused the publish (simulated outage; the in-process broker
    /// never refuses); QoS-0 callers count the loss or spool the
    /// payload and carry on.
    fn publish(&self, topic: Topic, payload: Bytes) -> Result<(), DcdbError>;

    /// Publishes a columnar batch as one frame — the packed columns go
    /// to the wire without a row transpose.
    fn publish_batch(
        &self,
        topic: Topic,
        batch: &dcdb_common::batch::ReadingBatch,
    ) -> Result<(), DcdbError> {
        self.publish(topic, crate::codec::encode_batch(batch))
    }

    /// Convenience: transposes `readings` into a batch and publishes it.
    fn publish_readings(
        &self,
        topic: Topic,
        readings: &[dcdb_common::reading::SensorReading],
    ) -> Result<(), DcdbError> {
        self.publish_batch(
            topic,
            &dcdb_common::batch::ReadingBatch::from_readings(readings),
        )
    }

    /// Subscribes with explicit queue depth, overflow policy, and
    /// metrics label.
    fn subscribe_with(&self, filter: TopicFilter, opts: SubscribeOptions) -> Subscription;

    /// Broker counter snapshot.
    fn stats(&self) -> BusStatsSnapshot;
}

/// Cloneable publish/subscribe handle onto a [`Broker`].
#[derive(Clone)]
pub struct BusHandle {
    inner: Arc<Inner>,
}

impl MessageBus for BusHandle {
    fn publish(&self, topic: Topic, payload: Bytes) -> Result<(), DcdbError> {
        self.inner.publish(topic, payload);
        Ok(())
    }

    fn subscribe_with(&self, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        self.inner.subscribe(filter, opts)
    }

    fn stats(&self) -> BusStatsSnapshot {
        self.inner.stats_snapshot()
    }
}

impl BusHandle {
    /// Subscribes with a topic filter and the broker's default queue
    /// bound and overflow policy.
    pub fn subscribe(&self, filter: TopicFilter) -> Subscription {
        self.inner.subscribe(filter, SubscribeOptions::default())
    }

    /// Subscribes with explicit queue depth, overflow policy, and
    /// metrics label.
    pub fn subscribe_with(&self, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        self.inner.subscribe(filter, opts)
    }

    /// Convenience: subscribe to a filter string, parsing it first.
    pub fn subscribe_str(&self, filter: &str) -> Result<Subscription, DcdbError> {
        Ok(self.subscribe(TopicFilter::parse(filter)?))
    }

    /// Full bus metrics (same as [`Broker::metrics`]).
    pub fn metrics(&self) -> BusMetricsSnapshot {
        self.inner.metrics_snapshot()
    }

    /// Broker counter snapshot (same as [`Broker::stats`]).
    pub fn stats(&self) -> BusStatsSnapshot {
        self.inner.stats_snapshot()
    }
}

/// A live subscription; unsubscribes on drop.
pub struct Subscription {
    id: SubId,
    filter: TopicFilter,
    queue: Arc<BoundedQueue<Message>>,
    inner: Arc<Inner>,
}

impl Subscription {
    /// The filter this subscription was created with.
    pub fn filter(&self) -> &TopicFilter {
        &self.filter
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Message, DcdbError> {
        self.queue
            .pop()
            .map_err(|_| DcdbError::Disconnected("broker closed".into()))
    }

    /// Non-blocking receive; `Ok(None)` when the queue is empty.
    pub fn try_recv(&self) -> Result<Option<Message>, DcdbError> {
        self.queue
            .try_pop()
            .map_err(|_| DcdbError::Disconnected("broker closed".into()))
    }

    /// Receive with a timeout; `Ok(None)` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, DcdbError> {
        self.queue
            .pop_timeout(timeout)
            .map_err(|_| DcdbError::Disconnected("broker closed".into()))
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        while let Ok(Some(m)) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// Number of messages currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Queue counters for this subscription: depth, high-water mark,
    /// drop counters.
    pub fn metrics(&self) -> QueueMetricsSnapshot {
        self.queue.metrics()
    }

    /// Closes the receiving side without unsubscribing — simulates a
    /// subscriber that died without cleanup. The broker detects this on
    /// the next delivery attempt and garbage-collects the subscription
    /// from both the sink map and the routing trie.
    #[cfg(test)]
    pub(crate) fn simulate_disconnect(&self) {
        self.queue.close_rx();
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Wake publishers parked on a full `Block` queue (they return
        // `Closed`) before waiting for the index locks.
        self.queue.close_rx();
        self.inner.unsubscribe(&self.filter, self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::reading::SensorReading;
    use dcdb_common::time::Timestamp;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    #[test]
    fn publish_routes_to_matching_subscribers() {
        let broker = Broker::new();
        let bus = broker.handle();
        let power = bus.subscribe_str("/+/power").unwrap();
        let all = bus.subscribe_str("/#").unwrap();
        let temps = bus.subscribe_str("/+/temp").unwrap();

        bus.publish(t("/n1/power"), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(power.queued(), 1);
        assert_eq!(all.queued(), 1);
        assert_eq!(temps.queued(), 0);
        let m = power.try_recv().unwrap().unwrap();
        assert_eq!(m.topic.as_str(), "/n1/power");
        assert_eq!(&m.payload[..], b"x");
    }

    #[test]
    fn published_messages_are_routed_when_publish_returns() {
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_str("/a/#").unwrap();
        for i in 0..100 {
            bus.publish(t(&format!("/a/s{i}")), Bytes::new()).unwrap();
            assert_eq!(sub.queued(), i + 1);
        }
        let stats = broker.stats();
        assert_eq!(stats.published, 100);
        assert_eq!(stats.delivered, 100);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn unsubscribe_on_drop() {
        let broker = Broker::new();
        let bus = broker.handle();
        {
            let _sub = bus.subscribe_str("/x/#").unwrap();
            assert_eq!(broker.subscriber_count(), 1);
        }
        assert_eq!(broker.subscriber_count(), 0);
        bus.publish(t("/x/y"), Bytes::new()).unwrap();
        assert_eq!(broker.stats().delivered, 0);
    }

    #[test]
    fn overlapping_filters_each_get_a_copy() {
        let broker = Broker::new();
        let bus = broker.handle();
        let a = bus.subscribe_str("/r1/#").unwrap();
        let b = bus.subscribe_str("/r1/+/power").unwrap();
        let c = bus.subscribe_str("/r1/n1/power").unwrap();
        bus.publish(t("/r1/n1/power"), Bytes::new()).unwrap();
        assert_eq!(a.queued() + b.queued() + c.queued(), 3);
    }

    #[test]
    fn readings_round_trip_over_bus() {
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_str("/n1/power").unwrap();
        let batch = vec![
            SensorReading::new(100, Timestamp::from_secs(1)),
            SensorReading::new(105, Timestamp::from_secs(2)),
        ];
        bus.publish_readings(t("/n1/power"), &batch).unwrap();
        let msg = sub.try_recv().unwrap().unwrap();
        assert_eq!(
            crate::codec::decode_batch(msg.payload)
                .unwrap()
                .to_readings(),
            batch
        );
    }

    #[test]
    fn no_subscribers_is_fine() {
        let broker = Broker::new();
        let bus = broker.handle();
        bus.publish(t("/lonely"), Bytes::new()).unwrap();
        assert_eq!(broker.stats().published, 1);
        assert_eq!(broker.stats().delivered, 0);
    }

    #[test]
    fn handles_and_subscriptions_outlive_the_broker() {
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_str("/a/#").unwrap();
        drop(broker);
        bus.publish(t("/a/b"), Bytes::new()).unwrap();
        assert_eq!(sub.queued(), 1);
    }

    #[test]
    fn multithreaded_publishers() {
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_str("/#").unwrap();
        let mut handles = vec![];
        for p in 0..4 {
            let bus = bus.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    bus.publish(t(&format!("/p{p}/s{i}")), Bytes::new())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sub.queued(), 1000);
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_str("/quiet/#").unwrap();
        let got = sub.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn drain_empties_queue() {
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_str("/d/#").unwrap();
        for i in 0..5 {
            bus.publish(t(&format!("/d/{i}")), Bytes::new()).unwrap();
        }
        assert_eq!(sub.drain().len(), 5);
        assert_eq!(sub.queued(), 0);
    }

    #[test]
    fn dead_subscription_is_removed_from_trie() {
        // Regression: a disconnected sink used to be removed from the
        // sink map but never from the trie, so the stale SubId matched
        // every subsequent publish and `dropped` grew forever.
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_str("/x/#").unwrap();
        sub.simulate_disconnect();

        // First delivery attempt fails and garbage-collects the sub.
        bus.publish(t("/x/1"), Bytes::new()).unwrap();
        assert_eq!(broker.stats().dropped, 1);
        assert_eq!(broker.subscriber_count(), 0);

        // Subsequent publishes no longer match anything: the counter
        // stays stable because the trie entry is gone too.
        for i in 0..10 {
            bus.publish(t(&format!("/x/{i}")), Bytes::new()).unwrap();
        }
        assert_eq!(broker.stats().dropped, 1);
        assert_eq!(broker.stats().delivered, 0);
        drop(sub); // second unsubscribe is harmless
        assert_eq!(broker.subscriber_count(), 0);
    }

    #[test]
    fn bounded_subscription_drop_oldest_keeps_freshest() {
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_with(
            TopicFilter::parse("/s/#").unwrap(),
            SubscribeOptions::default()
                .depth(4)
                .policy(OverflowPolicy::DropOldest)
                .label("tiny"),
        );
        for i in 0..10u64 {
            bus.publish_readings(
                t("/s/x"),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i + 1))],
            )
            .unwrap();
        }
        assert_eq!(sub.queued(), 4);
        let m = sub.metrics();
        assert_eq!(m.high_water, 4);
        assert_eq!(m.dropped_oldest, 6);
        assert!(m.conserved());
        // Survivors are the 4 freshest, in order.
        let vals: Vec<i64> = sub
            .drain()
            .into_iter()
            .map(|m| crate::codec::decode_batch(m.payload).unwrap().values[0])
            .collect();
        assert_eq!(vals, vec![6, 7, 8, 9]);
        // Bus-level invariant: every published copy is delivered or
        // dropped.
        let stats = broker.stats();
        assert_eq!(stats.published, stats.delivered + stats.dropped);
    }

    #[test]
    fn metrics_registry_reports_per_subscriber_queues() {
        let broker = Broker::new();
        let bus = broker.handle();
        let _a = bus.subscribe_with(
            TopicFilter::parse("/a/#").unwrap(),
            SubscribeOptions::default().label("reader-a"),
        );
        let _b = bus.subscribe_str("/b/#").unwrap();
        for i in 0..7 {
            bus.publish(t(&format!("/a/{i}")), Bytes::new()).unwrap();
        }
        let m = broker.metrics();
        assert_eq!(m.subscriptions.len(), 2);
        let a = m
            .subscriptions
            .iter()
            .find(|s| s.label == "reader-a")
            .expect("labelled sub");
        assert_eq!(a.filter, "/a/#");
        assert_eq!(a.queue.depth, 7);
        assert_eq!(a.queue.high_water, 7);
        assert_eq!(a.queue.offered, 7);
        assert_eq!(a.queue.dequeued, 0);
        let b = m.subscriptions.iter().find(|s| s.filter == "/b/#").unwrap();
        assert_eq!(b.label, "sub-1");
        assert_eq!(b.queue.offered, 0);
        assert_eq!(b.queue.capacity, BusConfig::default().sub_depth);
        assert_eq!(m.stats, broker.stats());
    }

    #[test]
    fn dropping_a_full_block_subscription_releases_the_publisher() {
        // A publisher parked on a full `Block` queue holds no broker
        // lock, and dropping the subscription closes the queue before
        // it waits for one: neither side can wedge the other.
        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe_with(
            TopicFilter::parse("/b/#").unwrap(),
            SubscribeOptions::default()
                .depth(1)
                .policy(OverflowPolicy::Block),
        );
        let publisher = std::thread::spawn(move || {
            for i in 0..3 {
                bus.publish(t(&format!("/b/{i}")), Bytes::new()).unwrap();
            }
        });
        // The second push has been offered to the full queue: the
        // publisher is inside it.
        while sub.metrics().offered < 2 {
            std::thread::yield_now();
        }
        let dropper = std::thread::spawn(move || drop(sub));
        // A deadlock must fail the test, not hang it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !(publisher.is_finished() && dropper.is_finished()) {
            assert!(
                std::time::Instant::now() < deadline,
                "publisher and dropper wedged each other"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        publisher.join().unwrap();
        dropper.join().unwrap();
        assert_eq!(broker.subscriber_count(), 0);
        assert_eq!(broker.stats().published, 3);
    }
}
