//! Resilient pusher→agent delivery: a supervised bus connection with a
//! bounded store-and-forward spool.
//!
//! The paper's Pushers ship every sample to Collect Agents over MQTT
//! (§IV-A) and ran for months on CooLMUC-3, where broker restarts and
//! transient partitions are routine. The deployment follow-up names
//! transport resilience as the gap between the prototype and production
//! ODA. This module closes it for the reproduction:
//!
//! * [`BusConnection`] supervises the pusher's view of the bus: it
//!   feeds every publish outcome to the shared [`Supervisor`] state
//!   machine (`Up` → `Degraded` → `Down`, the one federation shards
//!   run too), retries with exponential backoff plus seeded jitter, and exports
//!   per-connection metrics (reconnects, time in each state, the last
//!   error seen).
//! * A bounded [`Spool`] buffers readings that the bus refused
//!   (per-topic capacity, reusing the bus [`OverflowPolicy`] semantics)
//!   and drains them **oldest-first ahead of fresh samples** once the
//!   connection recovers, so consumers still see each topic in
//!   timestamp order.
//! * Accounting is exact: every sampled reading ends in exactly one of
//!   `published`, `spooled_pending`, `spool_dropped` or
//!   `publish_errors_final` (see
//!   [`crate::PusherStats::delivery_conserved`]).
//!
//! The local sensor cache keeps working regardless of connection state
//! — the paper's cache-first design (§V-B) degrades gracefully: in-band
//! operators keep running on local data through any outage.
//!
//! Everything is clocked by the tick timestamp, not the wall clock, so
//! backoff and recovery behave identically under virtual-time tests and
//! live runs.

use dcdb_bus::{MessageBus, OverflowPolicy};
use dcdb_common::batch::ReadingBatch;
use dcdb_common::reading::SensorReading;
use dcdb_common::sim::{EventTrace, SimClock};
use dcdb_common::supervisor::{ConnectionState, ReconnectConfig, Supervisor};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Spool sizing and overflow behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SpoolConfig {
    /// Per-topic capacity, readings. `0` disables the spool entirely:
    /// refused publishes become final errors (the pre-spool QoS-0
    /// behaviour).
    pub per_topic_depth: usize,
    /// What a full topic queue does with the next reading. `Block`
    /// cannot suspend a sampling tick, so it is normalized to
    /// [`OverflowPolicy::DropNewest`] (the closest lossy-at-the-boundary
    /// equivalent) at construction.
    pub policy: OverflowPolicy,
}

impl Default for SpoolConfig {
    fn default() -> Self {
        SpoolConfig {
            per_topic_depth: 1024,
            policy: OverflowPolicy::DropOldest,
        }
    }
}

/// Full delivery-layer configuration of one pusher.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeliveryConfig {
    /// Supervisor backoff policy.
    pub reconnect: ReconnectConfig,
    /// Store-and-forward spool policy.
    pub spool: SpoolConfig,
}

/// One spooled reading, stamped with a global sequence number so the
/// drain can restore the exact publish order across topics.
#[derive(Debug, Clone, Copy)]
struct SpoolEntry {
    seq: u64,
    reading: SensorReading,
}

/// Bounded per-topic store-and-forward buffer.
#[derive(Debug, Default)]
pub struct Spool {
    topics: HashMap<Topic, VecDeque<SpoolEntry>>,
    per_topic_depth: usize,
    policy: OverflowPolicy,
    next_seq: u64,
    depth: usize,
    high_water: usize,
    spooled: u64,
    drained: u64,
    dropped: u64,
}

/// Counter snapshot of a [`Spool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpoolMetricsSnapshot {
    /// Readings currently spooled across all topics.
    pub depth: usize,
    /// Deepest the spool ever got (total across topics).
    pub high_water: usize,
    /// Topics with at least one spooled reading.
    pub topics: usize,
    /// Per-topic capacity bound.
    pub per_topic_depth: usize,
    /// Effective overflow policy.
    pub policy: OverflowPolicy,
    /// Readings ever admitted to the spool.
    pub spooled: u64,
    /// Readings drained out of the spool and published.
    pub drained: u64,
    /// Readings lost at the spool (evicted or refused at capacity).
    pub dropped: u64,
}

impl Spool {
    fn new(config: SpoolConfig) -> Spool {
        Spool {
            per_topic_depth: config.per_topic_depth,
            // An in-tick spool cannot block the sampler; the nearest
            // honest semantics is to refuse the incoming reading.
            policy: match config.policy {
                OverflowPolicy::Block => OverflowPolicy::DropNewest,
                p => p,
            },
            ..Spool::default()
        }
    }

    /// Admits one reading, applying the overflow policy at the topic's
    /// capacity bound. Returns `false` when the spool is disabled
    /// (depth 0): the caller must account the reading as a final error.
    fn push(&mut self, topic: &Topic, reading: SensorReading) -> bool {
        if self.per_topic_depth == 0 {
            return false;
        }
        let entry = SpoolEntry {
            seq: self.next_seq,
            reading,
        };
        self.next_seq += 1;
        let q = self.topics.entry(topic.clone()).or_default();
        if q.len() >= self.per_topic_depth {
            match self.policy {
                OverflowPolicy::DropOldest => {
                    q.pop_front();
                    q.push_back(entry);
                    self.dropped += 1;
                    self.spooled += 1;
                }
                // Block was normalized to DropNewest in `new`.
                OverflowPolicy::DropNewest | OverflowPolicy::Block => {
                    self.dropped += 1;
                }
            }
        } else {
            q.push_back(entry);
            self.spooled += 1;
            self.depth += 1;
            self.high_water = self.high_water.max(self.depth);
        }
        true
    }

    /// Pops the globally-oldest run of same-topic readings (one publish
    /// batch). `None` when the spool is empty.
    fn pop_oldest_batch(&mut self) -> Option<(Topic, Vec<SpoolEntry>)> {
        let topic = self
            .topics
            .iter()
            .filter_map(|(t, q)| q.front().map(|e| (e.seq, t)))
            .min_by_key(|&(seq, _)| seq)
            .map(|(_, t)| t.clone())?;
        // Take the longest prefix of this topic's queue that is still a
        // contiguous run in global sequence order: batching never
        // reorders deliveries relative to other topics.
        let others_min = self
            .topics
            .iter()
            .filter(|(t, _)| **t != topic)
            .filter_map(|(_, q)| q.front().map(|e| e.seq))
            .min()
            .unwrap_or(u64::MAX);
        let q = self.topics.get_mut(&topic).expect("topic just found");
        let mut batch = Vec::new();
        while let Some(front) = q.front() {
            if front.seq > others_min {
                break;
            }
            batch.push(*front);
            q.pop_front();
        }
        self.depth -= batch.len();
        if q.is_empty() {
            self.topics.remove(&topic);
        }
        Some((topic, batch))
    }

    /// Returns a popped-but-unpublished batch to the front of its topic
    /// queue (a failed drain must not lose or reorder).
    fn unpop(&mut self, topic: Topic, batch: Vec<SpoolEntry>) {
        let q = self.topics.entry(topic).or_default();
        self.depth += batch.len();
        for entry in batch.into_iter().rev() {
            q.push_front(entry);
        }
    }

    fn note_drained(&mut self, count: usize) {
        self.drained += count as u64;
    }

    /// Readings currently spooled.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> SpoolMetricsSnapshot {
        SpoolMetricsSnapshot {
            depth: self.depth,
            high_water: self.high_water,
            topics: self.topics.len(),
            per_topic_depth: self.per_topic_depth,
            policy: self.policy,
            spooled: self.spooled,
            drained: self.drained,
            dropped: self.dropped,
        }
    }
}

/// What one [`BusConnection::deliver`] call did with its readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryOutcome {
    /// Readings published to the bus (fresh + drained from the spool).
    pub published: u64,
    /// Of `published`, readings that came out of the spool.
    pub drained: u64,
    /// Fresh readings parked in the spool this call.
    pub spooled: u64,
    /// Readings lost at the spool this call (evictions/refusals).
    pub spool_dropped: u64,
    /// Readings lost outright (spool disabled while the bus refused).
    pub final_errors: u64,
    /// Publish attempts the bus refused this call (transient count:
    /// the affected readings were spooled, not necessarily lost).
    pub refused_attempts: u64,
}

/// Per-connection metrics exported by [`BusConnection::metrics`].
#[derive(Debug, Clone)]
pub struct DeliveryMetricsSnapshot {
    /// Current connection state.
    pub state: ConnectionState,
    /// `Down` → `Up` transitions (successful recoveries).
    pub reconnects: u64,
    /// Reconnect probes that failed (the outage persisted).
    pub failed_probes: u64,
    /// Consecutive publish failures right now.
    pub consecutive_failures: u64,
    /// Backoff that will follow the next failed probe, milliseconds.
    pub backoff_ms: u64,
    /// Time until the next reconnect probe, milliseconds (0 when not
    /// `Down`).
    pub next_probe_in_ms: u64,
    /// Cumulative virtual time spent in `[Up, Degraded, Down]`,
    /// milliseconds.
    pub time_in_state_ms: [u64; 3],
    /// The most recent publish error, if any.
    pub last_error: Option<String>,
    /// Spool counters.
    pub spool: SpoolMetricsSnapshot,
}

/// Supervised delivery onto a [`MessageBus`]: the shared [`Supervisor`]
/// state machine fed by publish outcomes, and the bounded
/// store-and-forward spool.
pub struct BusConnection {
    bus: Arc<dyn MessageBus>,
    spool: Spool,
    supervisor: Supervisor,
    last_error: Option<String>,
    clock: Arc<SimClock>,
}

impl BusConnection {
    /// Wraps `bus` with the given delivery policy, on a private clock.
    pub fn new(bus: Arc<dyn MessageBus>, config: DeliveryConfig) -> BusConnection {
        BusConnection::with_clock(bus, config, SimClock::new())
    }

    /// Wraps `bus` ticking from a shared [`SimClock`]: the supervisor's
    /// backoff timers then live on the same timeline as the bus and
    /// storage fault windows, and a stale tick can never rewind them.
    pub fn with_clock(
        bus: Arc<dyn MessageBus>,
        config: DeliveryConfig,
        clock: Arc<SimClock>,
    ) -> BusConnection {
        BusConnection {
            bus,
            spool: Spool::new(config.spool),
            supervisor: Supervisor::new(config.reconnect),
            last_error: None,
            clock,
        }
    }

    /// Attaches the canonical event trace; connection state transitions
    /// are appended as `<label> <from>-><to>` under the `delivery` lane.
    pub fn set_trace(&mut self, trace: EventTrace, label: &str) {
        self.supervisor.set_trace(trace, "delivery", label);
    }

    /// The shared virtual clock this connection ticks from.
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.clock)
    }

    /// The underlying bus.
    pub fn bus(&self) -> &Arc<dyn MessageBus> {
        &self.bus
    }

    /// Current connection state.
    pub fn state(&self) -> ConnectionState {
        self.supervisor.state()
    }

    /// Readings currently spooled.
    pub fn spool_depth(&self) -> usize {
        self.spool.depth()
    }

    fn on_failure(&mut self, now_ns: u64, error: String) {
        self.last_error = Some(error);
        self.supervisor.on_failure(now_ns);
    }

    /// Delivers one tick's worth of per-topic batches.
    ///
    /// The spool drains oldest-first *before* any fresh batch is
    /// offered; if any publish fails, the remaining readings (spooled
    /// and fresh alike) go to the spool so per-topic order is never
    /// inverted. While `Down`, nothing touches the bus until the
    /// backoff expires — then the oldest spooled batch doubles as the
    /// reconnect probe.
    pub fn deliver(
        &mut self,
        now: Timestamp,
        fresh: Vec<(Topic, ReadingBatch)>,
    ) -> DeliveryOutcome {
        // The shared clock absorbs out-of-order ticks: the effective
        // `now` is monotonic, so backoff timers never rewind.
        let now_ns = self.clock.advance_to(now).as_nanos();
        let mut out = DeliveryOutcome::default();
        let mut attempting = self.supervisor.attempt_due(now_ns);

        // Phase 1: drain the spool, oldest-first across topics.
        while attempting {
            let Some((topic, batch)) = self.spool.pop_oldest_batch() else {
                break;
            };
            let columns: ReadingBatch = batch.iter().map(|e| e.reading).collect();
            match self.bus.publish_batch(topic.clone(), &columns) {
                Ok(()) => {
                    let n = columns.len() as u64;
                    out.published += n;
                    out.drained += n;
                    self.spool.note_drained(columns.len());
                    self.supervisor.on_success(now_ns);
                }
                Err(e) => {
                    out.refused_attempts += 1;
                    self.spool.unpop(topic, batch);
                    self.on_failure(now_ns, e.to_string());
                    attempting = false;
                }
            }
        }

        // Phase 2: fresh batches — published only when the line is
        // clear *and* the spool is empty (otherwise order would
        // invert); spooled otherwise.
        for (topic, batch) in fresh {
            if attempting && self.spool.depth() == 0 {
                match self.bus.publish_batch(topic.clone(), &batch) {
                    Ok(()) => {
                        out.published += batch.len() as u64;
                        self.supervisor.on_success(now_ns);
                        continue;
                    }
                    Err(e) => {
                        out.refused_attempts += 1;
                        self.on_failure(now_ns, e.to_string());
                        attempting = false;
                    }
                }
            }
            for reading in batch.iter() {
                let before = self.spool.metrics();
                if self.spool.push(&topic, reading) {
                    let after = self.spool.metrics();
                    out.spool_dropped += after.dropped - before.dropped;
                    // `spooled` counts what is *newly parked*: an
                    // admitted reading, net of any reading it evicted.
                    out.spooled += 1;
                    out.spooled -= after.dropped - before.dropped;
                } else {
                    out.final_errors += 1;
                }
            }
        }
        out
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> DeliveryMetricsSnapshot {
        let sup = &self.supervisor;
        DeliveryMetricsSnapshot {
            state: sup.state(),
            reconnects: sup.reconnects(),
            failed_probes: sup.failed_probes(),
            consecutive_failures: sup.consecutive_failures(),
            backoff_ms: sup.backoff_ms(),
            next_probe_in_ms: sup.next_probe_in_ms(),
            time_in_state_ms: sup.time_in_state_ms(),
            last_error: self.last_error.clone(),
            spool: self.spool.metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_bus::{decode_batch, Broker, ChaosBus, ChaosConfig};

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    fn r(value: i64, at_ms: u64) -> SensorReading {
        SensorReading::new(value, ms(at_ms))
    }

    fn b(rows: &[SensorReading]) -> ReadingBatch {
        ReadingBatch::from_readings(rows)
    }

    fn chaos_conn(
        config: ChaosConfig,
        delivery: DeliveryConfig,
    ) -> (Broker, ChaosBus, BusConnection) {
        let broker = Broker::new();
        let chaos = ChaosBus::new(broker.handle(), config);
        let conn = BusConnection::new(Arc::new(chaos.clone()), delivery);
        (broker, chaos, conn)
    }

    #[test]
    fn healthy_connection_publishes_directly() {
        let (broker, chaos, mut conn) =
            chaos_conn(ChaosConfig::quiet(1), DeliveryConfig::default());
        let sub = broker.handle().subscribe_str("/#").unwrap();
        chaos.advance(ms(10));
        let out = conn.deliver(ms(10), vec![(t("/a/power"), b(&[r(1, 10)]))]);
        assert_eq!(out.published, 1);
        assert_eq!(out.spooled, 0);
        assert_eq!(conn.state(), ConnectionState::Up);
        assert_eq!(sub.queued(), 1);
    }

    #[test]
    fn outage_spools_then_drains_oldest_first() {
        let config = ChaosConfig::quiet(2).with_outage_ms(100, 400);
        let (broker, chaos, mut conn) = chaos_conn(
            config,
            DeliveryConfig {
                reconnect: ReconnectConfig {
                    base_ms: 50,
                    down_threshold: 2,
                    jitter: 0.0,
                    ..ReconnectConfig::default()
                },
                ..DeliveryConfig::default()
            },
        );
        let sub = broker.handle().subscribe_str("/#").unwrap();

        // Healthy tick, then three ticks inside the outage.
        for (tick, at) in [(1i64, 50u64), (2, 150), (3, 250), (4, 350)] {
            chaos.advance(ms(at));
            conn.deliver(ms(at), vec![(t("/a/power"), b(&[r(tick, at)]))]);
        }
        assert_eq!(conn.state(), ConnectionState::Down);
        assert_eq!(conn.spool_depth(), 3);
        assert_eq!(sub.queued(), 1);

        // Past the outage and past the backoff: the drain probe
        // succeeds and everything arrives, oldest first, ahead of the
        // fresh tick-5 sample.
        chaos.advance(ms(450));
        let out = conn.deliver(ms(450), vec![(t("/a/power"), b(&[r(5, 450)]))]);
        assert_eq!(out.published, 4);
        assert_eq!(out.drained, 3);
        assert_eq!(conn.state(), ConnectionState::Up);
        assert_eq!(conn.metrics().reconnects, 1);
        let values: Vec<i64> = sub
            .drain()
            .into_iter()
            .flat_map(|m| decode_batch(m.payload).unwrap().values)
            .collect();
        assert_eq!(values, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn down_connection_waits_out_the_backoff() {
        let config = ChaosConfig::quiet(3).with_outage_ms(0, 10_000);
        let (_broker, chaos, mut conn) = chaos_conn(
            config,
            DeliveryConfig {
                reconnect: ReconnectConfig {
                    base_ms: 1000,
                    jitter: 0.0,
                    down_threshold: 1,
                    ..ReconnectConfig::default()
                },
                ..DeliveryConfig::default()
            },
        );

        chaos.advance(ms(100));
        conn.deliver(ms(100), vec![(t("/a/x"), b(&[r(1, 100)]))]);
        assert_eq!(conn.state(), ConnectionState::Down);
        let refused_after_first = chaos.metrics().refused_total();

        // Before the probe time nothing touches the bus.
        chaos.advance(ms(600));
        conn.deliver(ms(600), vec![(t("/a/x"), b(&[r(2, 600)]))]);
        assert_eq!(chaos.metrics().refused_total(), refused_after_first);
        assert_eq!(conn.spool_depth(), 2);

        // Past the backoff the probe runs (and fails: outage persists),
        // growing the backoff.
        chaos.advance(ms(1200));
        conn.deliver(ms(1200), vec![(t("/a/x"), b(&[r(3, 1200)]))]);
        let m = conn.metrics();
        assert_eq!(chaos.metrics().refused_total(), refused_after_first + 1);
        assert_eq!(m.failed_probes, 1);
        assert!(m.backoff_ms > 1000, "backoff grew: {}", m.backoff_ms);
        assert_eq!(conn.spool_depth(), 3);
    }

    #[test]
    fn spool_overflow_follows_policy_and_accounting_holds() {
        for policy in [
            OverflowPolicy::DropOldest,
            OverflowPolicy::DropNewest,
            OverflowPolicy::Block,
        ] {
            let config = ChaosConfig::quiet(4).with_outage_ms(0, 100_000);
            let (_broker, chaos, mut conn) = chaos_conn(
                config,
                DeliveryConfig {
                    spool: SpoolConfig {
                        per_topic_depth: 3,
                        policy,
                    },
                    ..DeliveryConfig::default()
                },
            );
            let mut totals = DeliveryOutcome::default();
            for i in 0..10u64 {
                let at = 10 + i * 10;
                chaos.advance(ms(at));
                let out = conn.deliver(ms(at), vec![(t("/a/x"), b(&[r(i as i64, at)]))]);
                totals.published += out.published;
                totals.spooled += out.spooled;
                totals.spool_dropped += out.spool_dropped;
                totals.final_errors += out.final_errors;
            }
            let spool = conn.metrics().spool;
            assert_eq!(spool.depth, 3, "{policy:?}");
            assert_eq!(spool.high_water, 3, "{policy:?}");
            assert_eq!(spool.dropped, 7, "{policy:?}");
            // Exact accounting: 10 sampled = published + pending +
            // dropped + final.
            assert_eq!(
                totals.published + spool.depth as u64 + totals.spool_dropped + totals.final_errors,
                10,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn disabled_spool_counts_final_errors() {
        let config = ChaosConfig::quiet(5).with_outage_ms(0, 100_000);
        let (_broker, chaos, mut conn) = chaos_conn(
            config,
            DeliveryConfig {
                spool: SpoolConfig {
                    per_topic_depth: 0,
                    policy: OverflowPolicy::DropOldest,
                },
                ..DeliveryConfig::default()
            },
        );
        chaos.advance(ms(10));
        let out = conn.deliver(ms(10), vec![(t("/a/x"), b(&[r(1, 10), r(2, 10)]))]);
        assert_eq!(out.final_errors, 2);
        assert_eq!(out.spooled, 0);
        assert_eq!(conn.spool_depth(), 0);
    }

    #[test]
    fn time_in_state_accumulates_per_state() {
        let config = ChaosConfig::quiet(6).with_outage_ms(1000, 3000);
        let (_broker, chaos, mut conn) = chaos_conn(
            config,
            DeliveryConfig {
                reconnect: ReconnectConfig {
                    base_ms: 100,
                    down_threshold: 1,
                    jitter: 0.0,
                    ..ReconnectConfig::default()
                },
                ..DeliveryConfig::default()
            },
        );
        for at in (0..=4000).step_by(500) {
            chaos.advance(ms(at));
            conn.deliver(ms(at), vec![(t("/a/x"), b(&[r(1, at)]))]);
        }
        let m = conn.metrics();
        assert_eq!(conn.state(), ConnectionState::Up);
        assert_eq!(m.reconnects, 1);
        let [up, degraded, down] = m.time_in_state_ms;
        assert_eq!(up + degraded + down, 4000);
        assert!(down >= 1000, "down for most of the outage: {down}");
        assert!(m.last_error.is_some());
    }
}
