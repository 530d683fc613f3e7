//! The in-process message broker.
//!
//! DCDB runs an MQTT broker inside every Collect Agent; Pushers publish
//! sensor frames to it and any component may subscribe with topic
//! filters. This module reproduces those semantics in-process:
//!
//! * QoS 0 (fire-and-forget) delivery, like DCDB's data path;
//! * wildcard subscriptions kept in one list and matched against each
//!   publish: every composition has one subscriber per broker, the
//!   Collect Agent on `/#`, so the list is the whole index;
//! * one hop: `publish` matches and enqueues on the caller's thread, so
//!   a message's fate is decided when `publish` returns and the bus is
//!   deterministic by construction;
//! * **bounded queues**: every subscriber queue carries a capacity
//!   bound and an [`OverflowPolicy`], so a slow subscriber or a publish
//!   storm sheds by policy (drop-newest / drop-oldest) instead of
//!   growing memory without limit, and a publish never waits on a
//!   subscriber. Queue depth, high-water marks and drop counters are
//!   exported per subscriber via [`Broker::metrics`] /
//!   [`BusHandle::metrics`].

use crate::filter::TopicFilter;
use crate::queue::{BoundedQueue, OverflowPolicy, PushOutcome, QueueMetricsSnapshot};
use bytes::Bytes;
use dcdb_common::error::DcdbError;
use dcdb_common::topic::Topic;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Queue sizing and overflow behaviour for a broker.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Default capacity of each subscriber queue.
    pub sub_depth: usize,
    /// Default overflow policy of each subscriber queue: which message
    /// a full queue sheds (QoS 0; `DropOldest` keeps the freshest).
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

/// Per-subscription options for [`BusHandle::subscribe_with`]. Every
/// queue's capacity and overflow policy come from the broker's
/// [`BusConfig`].
#[derive(Debug, Clone, Default)]
pub struct SubscribeOptions {
    /// Human-readable label shown in the metrics registry.
    pub label: Option<String>,
}

impl SubscribeOptions {
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
/// evicted) or `dropped` (drop-newest rejection or drop-oldest
/// eviction — an eviction moves the evicted copy from
/// `delivered` to `dropped`). With a single subscriber matching every
/// topic, `published == delivered + dropped` holds across policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStatsSnapshot {
    /// Messages accepted from publishers.
    pub published: u64,
    /// Message copies currently admitted to subscriber queues (consumed
    /// or still queued), net of later evictions.
    pub delivered: u64,
    /// Copies dropped: full queue (drop-newest) or evicted
    /// (drop-oldest).
    pub dropped: u64,
    /// Always 0: there is no router queue to lose a message at. Kept
    /// because frozen `pipeline-bench/` reads it; the next `[benchmark]`
    /// PR deletes it (ROADMAP item 1b).
    pub router_dropped: u64,
}

/// Metrics for one live subscription, as exported by
/// [`Broker::metrics`].
#[derive(Debug, Clone, serde::Serialize)]
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

struct SinkEntry {
    queue: Arc<BoundedQueue<Message>>,
    filter: TopicFilter,
    label: String,
}

struct Inner {
    config: BusConfig,
    /// Every live subscription, in subscription order. A subscription
    /// is identified by its queue.
    sinks: RwLock<Vec<SinkEntry>>,
    /// Subscriptions ever made; names the unlabelled ones.
    subscribed: AtomicU64,
    stats: BusStats,
}

impl Inner {
    fn publish(&self, topic: Topic, payload: Bytes) {
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        // A push never waits, so it runs under the list's read guard.
        let msg = Message { topic, payload };
        let sinks = self.sinks.read();
        for entry in sinks.iter().filter(|e| e.filter.matches(&msg.topic)) {
            match entry.queue.push(msg.clone()) {
                PushOutcome::Enqueued => {
                    self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                }
                // `Evicted`: the new copy was admitted but an older
                // delivered copy was evicted — net effect is one more
                // drop, delivered unchanged.
                PushOutcome::Evicted | PushOutcome::DroppedNewest => {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn subscribe(self: &Arc<Self>, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        let n = self.subscribed.fetch_add(1, Ordering::Relaxed);
        let label = opts.label.unwrap_or_else(|| format!("sub-{n}"));
        let queue = BoundedQueue::new(self.config.sub_depth, self.config.sub_policy);
        self.sinks.write().push(SinkEntry {
            queue: Arc::clone(&queue),
            filter: filter.clone(),
            label,
        });
        Subscription {
            filter,
            queue,
            inner: Arc::clone(self),
        }
    }

    fn unsubscribe(&self, queue: &Arc<BoundedQueue<Message>>) {
        self.sinks.write().retain(|e| !Arc::ptr_eq(&e.queue, queue));
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
            .iter()
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

/// The broker: the subscription list and counters that cheap
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
                sinks: RwLock::new(Vec::new()),
                subscribed: AtomicU64::new(0),
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
    filter: TopicFilter,
    queue: Arc<BoundedQueue<Message>>,
    inner: Arc<Inner>,
}

impl Subscription {
    /// The filter this subscription was created with.
    pub fn filter(&self) -> &TopicFilter {
        &self.filter
    }

    /// Takes the oldest queued message; `None` when the queue is empty.
    pub fn try_recv(&self) -> Option<Message> {
        self.queue.try_pop()
    }

    /// Takes the oldest queued message if `take` accepts it; a refused
    /// message stays first in line. `take` runs under the queue's lock,
    /// so it must be quick.
    pub fn try_recv_if(&self, take: impl FnOnce(&Message) -> bool) -> Option<Message> {
        self.queue.try_pop_if(take)
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Message> {
        std::iter::from_fn(|| self.try_recv()).collect()
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
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.inner.unsubscribe(&self.queue);
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
        let m = power.try_recv().unwrap();
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
        let msg = sub.try_recv().unwrap();
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
    fn bounded_subscription_drop_oldest_keeps_freshest() {
        let broker = Broker::with_config(BusConfig {
            sub_depth: 4,
            sub_policy: OverflowPolicy::DropOldest,
        });
        let bus = broker.handle();
        let sub = bus.subscribe_with(
            TopicFilter::parse("/s/#").unwrap(),
            SubscribeOptions::default().label("tiny"),
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
}
