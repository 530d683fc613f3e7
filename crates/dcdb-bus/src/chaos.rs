//! Deterministic fault injection for the bus.
//!
//! The production deployments behind the paper (CooLMUC-3, months of
//! continuous operation) saw broker restarts, slow agents and transient
//! partitions as routine events; the follow-up deployment report singles
//! out transport resilience as what production ODA demanded beyond the
//! prototype. [`ChaosBus`] makes those failures *reproducible*: it wraps
//! a real [`BusHandle`] behind the same [`MessageBus`] surface and
//! injects faults from a seeded schedule, so an outage observed in a
//! test or bench replays bit-for-bit from the same seed.
//!
//! Injected fault classes:
//!
//! * **refuse-publish windows** — `publish` returns
//!   [`DcdbError::Disconnected`] while virtual time is inside an outage
//!   window (a broker restart as the publisher sees it);
//! * **per-message drop probability** — the publish is accepted but the
//!   message silently never arrives (lossy network, QoS 0);
//! * **delivery delay** — messages are held in a buffer and released to
//!   the inner bus once virtual time passes `publish time + delay`;
//! * **partitions** — publishes whose topic falls under a partitioned
//!   prefix are refused (one pusher cut off from the agent while the
//!   rest of the system keeps flowing).
//!
//! The wrapper is clocked by *virtual time*: it ticks from a shared
//! [`SimClock`] — the driver calls [`ChaosBus::advance`] with every
//! tick timestamp (a monotonic `fetch_max`, so out-of-order ticks can
//! never rewind an outage window), or hands the same clock to the
//! storage and delivery fault layers so one timeline drives compound
//! failures. When an [`EventTrace`] is attached, every injected fault
//! is appended to the canonical trace whose hash witnesses replay
//! determinism.

use crate::broker::{BusHandle, BusStatsSnapshot, MessageBus, SubscribeOptions, Subscription};
use crate::filter::TopicFilter;
use bytes::Bytes;
use dcdb_common::error::DcdbError;
use dcdb_common::sim::{EventTrace, SimClock};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The full fault schedule of a [`ChaosBus`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the drop-probability RNG (and anything else the
    /// schedule derives); identical seeds replay identical fault
    /// sequences.
    pub seed: u64,
    /// Probability in `[0, 1]` that an accepted publish is silently
    /// lost (never reaches the inner bus).
    pub drop_prob: f64,
    /// Delivery delay applied to every accepted publish, nanoseconds of
    /// virtual time (`0` = deliver inline).
    pub delay_ns: u64,
    /// Refuse-publish windows `[start_ns, end_ns)` in virtual time,
    /// affecting every topic (a full broker outage).
    pub outages: Vec<(u64, u64)>,
}

impl ChaosConfig {
    /// A schedule that injects nothing (a transparent wrapper).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_prob: 0.0,
            delay_ns: 0,
            outages: Vec::new(),
        }
    }

    /// Adds a full-bus outage window, milliseconds of virtual time.
    pub fn with_outage_ms(mut self, start_ms: u64, end_ms: u64) -> ChaosConfig {
        self.outages
            .push((start_ms * 1_000_000, end_ms * 1_000_000));
        self
    }

    /// Generates `count` non-overlapping outage windows inside
    /// `[0, horizon_ns)` from the seed alone: the property tests replay
    /// arbitrary-looking outage patterns from a single number. Window
    /// lengths are uniform in `[min_len_ns, max_len_ns]`.
    pub fn seeded_outages(
        seed: u64,
        horizon_ns: u64,
        count: usize,
        min_len_ns: u64,
        max_len_ns: u64,
    ) -> Vec<(u64, u64)> {
        assert!(min_len_ns <= max_len_ns && max_len_ns > 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5BAD);
        // Slice the horizon into `count` equal lanes and place one
        // window per lane: windows never overlap and never reorder, so
        // the schedule is valid for any draw.
        let lane = horizon_ns / count.max(1) as u64;
        let mut outages = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let len = rng.gen_range(min_len_ns..=max_len_ns).min(lane.max(1) - 1);
            let slack = lane.saturating_sub(len).max(1);
            let start = i * lane + rng.gen_range(0..slack);
            outages.push((start, start + len));
        }
        outages
    }
}

/// Counters exported by [`ChaosBus::metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosMetricsSnapshot {
    /// Publishes refused by an outage window.
    pub refused_outage: u64,
    /// Publishes refused by an active partition.
    pub refused_partition: u64,
    /// Publishes accepted but silently dropped (`drop_prob`).
    pub dropped: u64,
    /// Publishes currently held in the delay buffer.
    pub delayed_pending: usize,
    /// Delayed publishes released to the inner bus so far.
    pub released: u64,
    /// Publishes forwarded to the inner bus inline (no delay).
    pub passed: u64,
}

impl ChaosMetricsSnapshot {
    /// Total publishes refused at the chaos layer.
    pub fn refused_total(&self) -> u64 {
        self.refused_outage + self.refused_partition
    }
}

/// A message parked in the delay buffer, ordered by release time then
/// publish sequence so ties release in publish order.
struct Delayed {
    release_ns: u64,
    seq: u64,
    topic: Topic,
    payload: Bytes,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.release_ns == other.release_ns && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest release
        // (then lowest sequence) surfaces first.
        (other.release_ns, other.seq).cmp(&(self.release_ns, self.seq))
    }
}

struct ChaosState {
    inner: Arc<dyn MessageBus>,
    config: ChaosConfig,
    clock: Arc<SimClock>,
    trace: Mutex<Option<EventTrace>>,
    was_outage: AtomicBool,
    rng: Mutex<StdRng>,
    delayed: Mutex<BinaryHeap<Delayed>>,
    /// Prefixes partitioned at runtime via [`ChaosBus::partition`].
    manual_partitions: Mutex<Vec<String>>,
    seq: AtomicU64,
    refused_outage: AtomicU64,
    refused_partition: AtomicU64,
    dropped: AtomicU64,
    released: AtomicU64,
    passed: AtomicU64,
}

impl ChaosState {
    fn record(&self, at_ns: u64, detail: &str) {
        if let Some(trace) = self.trace.lock().as_ref() {
            trace.record(Timestamp(at_ns), "bus", detail);
        }
    }

    fn in_outage(&self, now: u64) -> bool {
        self.config
            .outages
            .iter()
            .any(|&(start, end)| now >= start && now < end)
    }

    fn partitioned(&self, topic: &Topic) -> bool {
        let path = topic.as_str();
        self.manual_partitions.lock().iter().any(|prefix| {
            path == prefix
                || (path.starts_with(prefix.as_str())
                    && path.as_bytes().get(prefix.len()) == Some(&b'/'))
        })
    }

    fn release_due(&self, now: u64) {
        let before = self.released.load(Ordering::Relaxed);
        loop {
            let msg = {
                let mut delayed = self.delayed.lock();
                match delayed.peek() {
                    Some(d) if d.release_ns <= now => delayed.pop(),
                    _ => break,
                }
            };
            if let Some(d) = msg {
                self.released.fetch_add(1, Ordering::Relaxed);
                // The inner bus may refuse; at this point the
                // publisher has long moved on — QoS 0, the loss is
                // the inner bus's to count.
                let _ = self.inner.publish(d.topic, d.payload);
            }
        }
        let released = self.released.load(Ordering::Relaxed) - before;
        if released > 0 {
            self.record(now, &format!("released {released}"));
        }
    }
}

/// A fault-injecting [`MessageBus`] wrapper around a real
/// [`BusHandle`]. Cloning shares the schedule, clock and counters, so
/// every pusher in a simulation can hold a clone of the same chaos
/// layer.
#[derive(Clone)]
pub struct ChaosBus {
    state: Arc<ChaosState>,
}

impl ChaosBus {
    /// Wraps `inner` with the given fault schedule, on a private clock.
    pub fn new(inner: BusHandle, config: ChaosConfig) -> ChaosBus {
        ChaosBus::over(Arc::new(inner), config, SimClock::new())
    }

    /// Wraps any [`MessageBus`] — a raw handle, a federation front-end,
    /// another wrapper — ticking from a shared [`SimClock`], so the bus
    /// chaos layer and the storage/delivery fault layers can observe
    /// one timeline from one `advance`.
    pub fn over(inner: Arc<dyn MessageBus>, config: ChaosConfig, clock: Arc<SimClock>) -> ChaosBus {
        let rng = StdRng::seed_from_u64(config.seed);
        ChaosBus {
            state: Arc::new(ChaosState {
                inner,
                config,
                clock,
                trace: Mutex::new(None),
                was_outage: AtomicBool::new(false),
                rng: Mutex::new(rng),
                delayed: Mutex::new(BinaryHeap::new()),
                manual_partitions: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                refused_outage: AtomicU64::new(0),
                refused_partition: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                released: AtomicU64::new(0),
                passed: AtomicU64::new(0),
            }),
        }
    }

    /// Attaches the canonical event trace: injected faults (outage
    /// transitions, drops, partitions, delayed releases) are appended
    /// with virtual timestamps from here on.
    pub fn set_trace(&self, trace: EventTrace) {
        *self.state.trace.lock() = Some(trace);
    }

    /// The shared virtual clock this wrapper ticks from.
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.state.clock)
    }

    /// Advances virtual time: outage windows are evaluated
    /// against the latest `advance`d timestamp, and any delayed message
    /// whose release time has passed is forwarded to the inner bus (in
    /// release order). The underlying [`SimClock`] is monotonic
    /// (`fetch_max`), so a stale out-of-order tick can never rewind an
    /// outage window. Call once per driver tick.
    pub fn advance(&self, now: Timestamp) {
        let effective = self.state.clock.advance_to(now).as_nanos();
        let in_outage = self.state.in_outage(effective);
        if in_outage != self.state.was_outage.swap(in_outage, Ordering::AcqRel) {
            self.state.record(
                effective,
                if in_outage {
                    "outage-enter"
                } else {
                    "outage-exit"
                },
            );
        }
        self.state.release_due(effective);
    }

    /// Cuts every topic under `prefix` off from the bus until
    /// [`ChaosBus::heal`] — a runtime-controlled partition on top of
    /// the scheduled ones.
    pub fn partition(&self, prefix: &str) {
        let mut parts = self.state.manual_partitions.lock();
        if !parts.iter().any(|p| p == prefix) {
            parts.push(prefix.to_string());
            self.state
                .record(self.state.clock.now_ns(), &format!("partition {prefix}"));
        }
    }

    /// Removes a runtime partition installed by [`ChaosBus::partition`].
    pub fn heal(&self, prefix: &str) {
        let mut parts = self.state.manual_partitions.lock();
        let before = parts.len();
        parts.retain(|p| p != prefix);
        if parts.len() != before {
            self.state
                .record(self.state.clock.now_ns(), &format!("heal {prefix}"));
        }
    }

    /// True while the current virtual time is inside an outage window.
    pub fn in_outage(&self) -> bool {
        self.state.in_outage(self.state.clock.now_ns())
    }

    /// The wrapped bus (bypasses fault injection — used by consumers
    /// that subscribe rather than publish).
    pub fn inner(&self) -> &Arc<dyn MessageBus> {
        &self.state.inner
    }

    /// Fault-injection counters.
    pub fn metrics(&self) -> ChaosMetricsSnapshot {
        ChaosMetricsSnapshot {
            refused_outage: self.state.refused_outage.load(Ordering::Relaxed),
            refused_partition: self.state.refused_partition.load(Ordering::Relaxed),
            dropped: self.state.dropped.load(Ordering::Relaxed),
            delayed_pending: self.state.delayed.lock().len(),
            released: self.state.released.load(Ordering::Relaxed),
            passed: self.state.passed.load(Ordering::Relaxed),
        }
    }
}

impl MessageBus for ChaosBus {
    fn publish(&self, topic: Topic, payload: Bytes) -> Result<(), DcdbError> {
        let now = self.state.clock.now_ns();
        if self.state.in_outage(now) {
            self.state.refused_outage.fetch_add(1, Ordering::Relaxed);
            return Err(DcdbError::Disconnected("chaos: broker outage".into()));
        }
        if self.state.partitioned(&topic) {
            self.state.refused_partition.fetch_add(1, Ordering::Relaxed);
            return Err(DcdbError::Disconnected(format!(
                "chaos: partitioned from {topic}"
            )));
        }
        if self.state.config.drop_prob > 0.0
            && self.state.rng.lock().gen_bool(self.state.config.drop_prob)
        {
            // Accepted-then-lost: the publisher sees success, the wire
            // ate the frame. This is the one fault a QoS-0 publisher
            // cannot observe, so it is counted here.
            let n = self.state.dropped.fetch_add(1, Ordering::Relaxed) + 1;
            self.state.record(now, &format!("drop {n} {topic}"));
            return Ok(());
        }
        if self.state.config.delay_ns > 0 {
            self.state.delayed.lock().push(Delayed {
                release_ns: now + self.state.config.delay_ns,
                seq: self.state.seq.fetch_add(1, Ordering::Relaxed),
                topic,
                payload,
            });
            return Ok(());
        }
        self.state.passed.fetch_add(1, Ordering::Relaxed);
        self.state.inner.publish(topic, payload)
    }

    fn subscribe_with(&self, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        self.state.inner.subscribe_with(filter, opts)
    }

    fn stats(&self) -> BusStatsSnapshot {
        self.state.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use dcdb_common::reading::SensorReading;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn outage_window_refuses_then_recovers() {
        let broker = Broker::new();
        let chaos = ChaosBus::new(
            broker.handle(),
            ChaosConfig::quiet(1).with_outage_ms(100, 200),
        );
        let sub = broker.handle().subscribe_str("/#").unwrap();

        chaos.advance(ms(50));
        assert!(chaos.publish(t("/a"), Bytes::new()).is_ok());
        chaos.advance(ms(150));
        assert!(chaos.in_outage());
        assert!(chaos.publish(t("/a"), Bytes::new()).is_err());
        chaos.advance(ms(250));
        assert!(!chaos.in_outage());
        assert!(chaos.publish(t("/a"), Bytes::new()).is_ok());

        assert_eq!(sub.queued(), 2);
        let m = chaos.metrics();
        assert_eq!(m.refused_outage, 1);
        assert_eq!(m.passed, 2);
    }

    #[test]
    fn drop_probability_is_deterministic_per_seed() {
        let count_losses = |seed: u64| {
            let broker = Broker::new();
            let mut config = ChaosConfig::quiet(seed);
            config.drop_prob = 0.5;
            let chaos = ChaosBus::new(broker.handle(), config);
            let sub = broker.handle().subscribe_str("/#").unwrap();
            for _ in 0..100 {
                chaos.publish(t("/x"), Bytes::new()).unwrap();
            }
            (chaos.metrics().dropped, sub.queued())
        };
        let (dropped_a, queued_a) = count_losses(42);
        let (dropped_b, queued_b) = count_losses(42);
        assert_eq!(dropped_a, dropped_b, "same seed, same losses");
        assert_eq!(queued_a, queued_b);
        assert!(dropped_a > 20 && dropped_a < 80, "p=0.5: {dropped_a}");
        assert_eq!(dropped_a + queued_a as u64, 100);
    }

    #[test]
    fn delay_holds_until_virtual_time_passes() {
        let broker = Broker::new();
        let mut config = ChaosConfig::quiet(7);
        config.delay_ns = 40 * 1_000_000; // 40 ms
        let chaos = ChaosBus::new(broker.handle(), config);
        let sub = broker.handle().subscribe_str("/#").unwrap();

        chaos.advance(ms(10));
        chaos
            .publish_readings(t("/d"), &[SensorReading::new(1, ms(10))])
            .unwrap();
        chaos
            .publish_readings(t("/d"), &[SensorReading::new(2, ms(10))])
            .unwrap();
        assert_eq!(sub.queued(), 0);
        assert_eq!(chaos.metrics().delayed_pending, 2);

        chaos.advance(ms(49)); // still in flight
        assert_eq!(sub.queued(), 0);
        chaos.advance(ms(51)); // past release
        assert_eq!(sub.queued(), 2);
        // Publish order preserved through the delay buffer.
        let first = sub.try_recv().unwrap().unwrap();
        assert_eq!(
            crate::codec::decode_batch(first.payload).unwrap().values[0],
            1
        );
        assert_eq!(chaos.metrics().released, 2);
    }

    #[test]
    fn partition_cuts_only_the_matching_prefix() {
        let broker = Broker::new();
        let chaos = ChaosBus::new(broker.handle(), ChaosConfig::quiet(3));
        let sub = broker.handle().subscribe_str("/#").unwrap();

        chaos.partition("/rack00/node00");
        assert!(chaos
            .publish(t("/rack00/node00/power"), Bytes::new())
            .is_err());
        // A sibling node and a prefix-share-but-not-path topic flow.
        assert!(chaos
            .publish(t("/rack00/node01/power"), Bytes::new())
            .is_ok());
        assert!(chaos
            .publish(t("/rack00/node001/power"), Bytes::new())
            .is_ok());
        chaos.heal("/rack00/node00");
        assert!(chaos
            .publish(t("/rack00/node00/power"), Bytes::new())
            .is_ok());

        assert_eq!(sub.queued(), 3);
        assert_eq!(chaos.metrics().refused_partition, 1);
    }

    #[test]
    fn out_of_order_advance_cannot_rewind_the_outage_window() {
        // Regression guard for the SimClock unification: `advance` is a
        // monotonic fetch_max, so a stale tick arriving after the
        // window closed must not re-enter the outage.
        let broker = Broker::new();
        let chaos = ChaosBus::new(
            broker.handle(),
            ChaosConfig::quiet(5).with_outage_ms(100, 200),
        );
        chaos.advance(ms(150));
        assert!(chaos.in_outage());
        chaos.advance(ms(250));
        assert!(!chaos.in_outage());
        // Stale out-of-order tick from a slow driver thread.
        chaos.advance(ms(150));
        assert!(!chaos.in_outage(), "stale tick rewound the outage window");
        assert!(chaos.publish(t("/a"), Bytes::new()).is_ok());
        assert_eq!(chaos.clock().now(), ms(250));
    }

    #[test]
    fn shared_clock_drives_two_wrappers_and_traces_transitions() {
        let clock = dcdb_common::sim::SimClock::new();
        let trace = dcdb_common::sim::EventTrace::new();
        let broker = Broker::new();
        let a = ChaosBus::over(
            Arc::new(broker.handle()),
            ChaosConfig::quiet(1).with_outage_ms(100, 200),
            Arc::clone(&clock),
        );
        let b = ChaosBus::over(
            Arc::new(broker.handle()),
            ChaosConfig::quiet(2).with_outage_ms(150, 300),
            Arc::clone(&clock),
        );
        a.set_trace(trace.clone());
        b.set_trace(trace.clone());

        // One advance on either wrapper moves the shared timeline.
        a.advance(ms(160));
        assert!(a.in_outage() && b.in_outage());
        b.advance(ms(250));
        assert!(!a.in_outage() && b.in_outage());
        assert_eq!(a.clock().now(), ms(250));
        a.advance(ms(250));

        // Both wrappers appended their transitions to the one trace.
        assert_eq!(trace.events(), 3); // a enter, b enter, a exit
        let again = trace.witness();
        assert_eq!(again, trace.witness(), "witness is stable");
    }

    #[test]
    fn seeded_outage_schedules_replay_and_stay_in_horizon() {
        let horizon = 30_000_000_000; // 30 s
        let a = ChaosConfig::seeded_outages(9, horizon, 2, 1_000_000_000, 3_000_000_000);
        let b = ChaosConfig::seeded_outages(9, horizon, 2, 1_000_000_000, 3_000_000_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 2);
        for w in a.windows(2) {
            assert!(w[0].1 <= w[1].0, "outages must not overlap: {a:?}");
        }
        for &(start, end) in &a {
            assert!(start < end && end <= horizon);
        }
        let c = ChaosConfig::seeded_outages(10, horizon, 2, 1_000_000_000, 3_000_000_000);
        assert_ne!(a, c, "different seeds should differ");
    }
}
