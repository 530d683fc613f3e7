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
//! * A bounded spool buffers what the bus refused: one FIFO entry per
//!   [`BusConnection::deliver`] call, i.e. per Pusher tick, holding
//!   that call's unpublished `(topic, batch)` run. Once the connection
//!   recovers it drains **oldest-first ahead of fresh samples**, so
//!   consumers still see each topic in timestamp order; when full it
//!   evicts its oldest tick.
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

use dcdb_bus::MessageBus;
use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::DcdbError;
use dcdb_common::sim::EventTrace;
use dcdb_common::supervisor::{ConnectionState, ReconnectConfig, Supervisor};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use std::collections::VecDeque;
use std::sync::Arc;

/// Spool sizing.
#[derive(Debug, Clone, Copy)]
pub struct SpoolConfig {
    /// Capacity in ticks: refused deliveries held before the oldest is
    /// evicted. `0` disables the spool entirely: refused publishes
    /// become final errors (the pre-spool QoS-0 behaviour).
    pub depth: usize,
}

impl Default for SpoolConfig {
    fn default() -> Self {
        SpoolConfig { depth: 1024 }
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

/// What the bus did not take from one `deliver` call, front batch
/// first.
type Tick = VecDeque<(Topic, ReadingBatch)>;

fn readings(tick: &Tick) -> usize {
    tick.iter().map(|(_, batch)| batch.len()).sum()
}

/// Bounded FIFO of refused ticks.
#[derive(Debug, Default)]
struct Spool {
    ticks: VecDeque<Tick>,
    capacity: usize,
    /// Readings held across all ticks.
    depth: usize,
    high_water: usize,
    spooled: u64,
    drained: u64,
    dropped: u64,
}

/// Counter snapshot of a connection's spool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpoolMetricsSnapshot {
    /// Readings currently spooled.
    pub depth: usize,
    /// Ticks currently spooled.
    pub ticks: usize,
    /// Most ticks the spool ever held.
    pub high_water: usize,
    /// Capacity bound, ticks.
    pub capacity: usize,
    /// Readings ever admitted to the spool.
    pub spooled: u64,
    /// Readings drained out of the spool and published.
    pub drained: u64,
    /// Readings lost at the spool (evicted with their tick).
    pub dropped: u64,
}

impl Spool {
    /// Parks one refused tick at the back, evicting the oldest tick
    /// when full. Returns the readings evicted, or `None` when the
    /// spool is disabled (depth 0): the caller must account the tick's
    /// readings as final errors.
    fn push(&mut self, tick: Tick) -> Option<usize> {
        if self.capacity == 0 {
            return None;
        }
        let mut evicted = 0;
        if self.ticks.len() == self.capacity {
            evicted = self.ticks.pop_front().as_ref().map_or(0, readings);
            self.depth -= evicted;
            self.dropped += evicted as u64;
        }
        let admitted = readings(&tick);
        self.ticks.push_back(tick);
        self.depth += admitted;
        self.spooled += admitted as u64;
        self.high_water = self.high_water.max(self.ticks.len());
        Some(evicted)
    }

    /// Republishes the stored batches oldest-first until `publish`
    /// refuses one; that batch and the rest of its tick stay at the
    /// front. Returns the readings drained and the refusal, if any.
    fn drain(
        &mut self,
        mut publish: impl FnMut(&Topic, &ReadingBatch) -> Result<(), DcdbError>,
    ) -> (usize, Option<DcdbError>) {
        let mut drained = 0;
        let mut refusal = None;
        'ticks: while let Some(tick) = self.ticks.front_mut() {
            while let Some((topic, batch)) = tick.front() {
                if let Err(e) = publish(topic, batch) {
                    refusal = Some(e);
                    break 'ticks;
                }
                drained += batch.len();
                tick.pop_front();
            }
            self.ticks.pop_front();
        }
        self.depth -= drained;
        self.drained += drained as u64;
        (drained, refusal)
    }

    fn metrics(&self) -> SpoolMetricsSnapshot {
        SpoolMetricsSnapshot {
            depth: self.depth,
            ticks: self.ticks.len(),
            high_water: self.high_water,
            capacity: self.capacity,
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
    /// Readings lost at the spool this call (evicted with their tick).
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
    /// The newest `deliver` timestamp, nanoseconds.
    now_ns: u64,
}

impl BusConnection {
    /// Wraps `bus` with the given delivery policy.
    pub fn new(bus: Arc<dyn MessageBus>, config: DeliveryConfig) -> BusConnection {
        BusConnection {
            bus,
            spool: Spool {
                capacity: config.spool.depth,
                ..Spool::default()
            },
            supervisor: Supervisor::new(config.reconnect),
            last_error: None,
            now_ns: 0,
        }
    }

    /// Attaches the canonical event trace; connection state transitions
    /// are appended as `<label> <from>-><to>` under the `delivery` lane.
    pub fn set_trace(&mut self, trace: EventTrace, label: &str) {
        self.supervisor.set_trace(trace, "delivery", label);
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
        self.spool.depth
    }

    fn on_failure(&mut self, now_ns: u64, error: String) {
        self.last_error = Some(error);
        self.supervisor.on_failure(now_ns);
    }

    /// Delivers one tick's worth of per-topic batches.
    ///
    /// The spool drains oldest-first *before* any fresh batch is
    /// offered; if any publish fails, the fresh batches not yet taken
    /// are spooled as one tick, so per-topic order is never inverted.
    /// While `Down`, nothing touches the bus until the backoff expires —
    /// then the oldest spooled batch doubles as the reconnect probe.
    pub fn deliver(
        &mut self,
        now: Timestamp,
        fresh: Vec<(Topic, ReadingBatch)>,
    ) -> DeliveryOutcome {
        // The newest tick absorbs out-of-order ones: the effective `now`
        // is monotonic, so backoff timers never rewind.
        self.now_ns = self.now_ns.max(now.as_nanos());
        let now_ns = self.now_ns;
        let mut out = DeliveryOutcome::default();
        if !self.supervisor.attempt_due(now_ns) {
            self.park(fresh.into(), &mut out);
            return out;
        }

        // Phase 1: drain the spool, oldest tick first.
        let (bus, supervisor) = (&self.bus, &mut self.supervisor);
        let (drained, refusal) = self.spool.drain(|topic, batch| {
            bus.publish_batch(topic.clone(), batch)?;
            supervisor.on_success(now_ns);
            Ok(())
        });
        out.published += drained as u64;
        out.drained += drained as u64;
        if let Some(e) = refusal {
            out.refused_attempts += 1;
            self.on_failure(now_ns, e.to_string());
            self.park(fresh.into(), &mut out);
            return out;
        }

        // Phase 2: the spool is empty, so fresh batches go straight out
        // until the bus refuses one.
        let mut fresh: Tick = fresh.into();
        while let Some((topic, batch)) = fresh.pop_front() {
            match self.bus.publish_batch(topic.clone(), &batch) {
                Ok(()) => {
                    out.published += batch.len() as u64;
                    self.supervisor.on_success(now_ns);
                }
                Err(e) => {
                    out.refused_attempts += 1;
                    self.on_failure(now_ns, e.to_string());
                    fresh.push_front((topic, batch));
                    break;
                }
            }
        }
        self.park(fresh, &mut out);
        out
    }

    /// Spools what is left of this call's batches as one tick.
    fn park(&mut self, rest: Tick, out: &mut DeliveryOutcome) {
        if rest.is_empty() {
            return;
        }
        let n = readings(&rest) as u64;
        match self.spool.push(rest) {
            Some(evicted) => {
                out.spooled += n;
                out.spool_dropped += evicted as u64;
            }
            None => out.final_errors += n,
        }
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
    use dcdb_bus::{decode_batch, Broker, ChaosBus, ChaosConfig, Subscription};
    use dcdb_common::reading::SensorReading;
    use dcdb_common::time::Clock;

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
        let chaos = ChaosBus::new(Arc::new(broker.handle()), config, Clock::new());
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
    fn full_spool_evicts_and_accounting_holds() {
        let config = ChaosConfig::quiet(4).with_outage_ms(0, 100_000);
        let (_broker, chaos, mut conn) = chaos_conn(
            config,
            DeliveryConfig {
                spool: SpoolConfig { depth: 3 },
                ..DeliveryConfig::default()
            },
        );
        let mut totals = DeliveryOutcome::default();
        for i in 0..10u64 {
            let at = 10 + i * 10;
            chaos.advance(ms(at));
            let out = conn.deliver(ms(at), vec![(t("/a/x"), b(&[r(i as i64, at)]))]);
            totals.published += out.published;
            totals.spool_dropped += out.spool_dropped;
            totals.final_errors += out.final_errors;
        }
        let spool = conn.metrics().spool;
        assert_eq!((spool.depth, spool.ticks, spool.high_water), (3, 3, 3));
        assert_eq!(spool.dropped, 7);
        // Exact accounting: 10 sampled = published + pending + dropped +
        // final.
        assert_eq!(
            totals.published + spool.depth as u64 + totals.spool_dropped + totals.final_errors,
            10
        );
    }

    #[test]
    fn disabled_spool_counts_final_errors() {
        let config = ChaosConfig::quiet(5).with_outage_ms(0, 100_000);
        let (_broker, chaos, mut conn) = chaos_conn(
            config,
            DeliveryConfig {
                spool: SpoolConfig { depth: 0 },
                ..DeliveryConfig::default()
            },
        );
        chaos.advance(ms(10));
        let out = conn.deliver(ms(10), vec![(t("/a/x"), b(&[r(1, 10), r(2, 10)]))]);
        assert_eq!(out.final_errors, 2);
        assert_eq!(out.spooled, 0);
        assert_eq!(conn.spool_depth(), 0);
    }

    /// A connection over a bus with `/n` partitioned off, that never
    /// goes `Down`, so every `deliver` call attempts the bus.
    fn partitioned(depth: usize) -> (ChaosBus, Subscription, BusConnection) {
        let (broker, chaos, conn) = chaos_conn(
            ChaosConfig::quiet(7),
            DeliveryConfig {
                reconnect: ReconnectConfig {
                    down_threshold: u64::MAX,
                    ..ReconnectConfig::default()
                },
                spool: SpoolConfig { depth },
            },
        );
        chaos.partition("/n");
        let sub = broker.handle().subscribe_str("/#").unwrap();
        (chaos, sub, conn)
    }

    /// One tick over `topics` topics, each batch one reading valued
    /// `tick * 100 + topic`.
    fn tick(tick: u64, topics: u64) -> Vec<(Topic, ReadingBatch)> {
        (0..topics)
            .map(|k| {
                let v = (tick * 100 + k) as i64;
                (t(&format!("/n/s{k}")), b(&[r(v, tick * 1000)]))
            })
            .collect()
    }

    /// Each message as `(topic, values)`, in arrival order.
    fn arrivals(sub: &Subscription) -> Vec<(String, Vec<i64>)> {
        sub.drain()
            .into_iter()
            .map(|m| {
                let values = decode_batch(m.payload).unwrap().values;
                (m.topic.as_str().to_string(), values)
            })
            .collect()
    }

    #[test]
    fn an_outage_drains_as_its_batches_in_tick_order_ahead_of_the_fresh_tick() {
        let (n, k) = (5u64, 3u64);
        let (chaos, sub, mut conn) = partitioned(64);
        for i in 1..=n {
            let out = conn.deliver(ms(i * 1000), tick(i, k));
            assert_eq!((out.published, out.spooled), (0, k));
        }
        let m = conn.metrics().spool;
        assert_eq!((m.ticks, m.depth), (n as usize, (n * k) as usize));

        chaos.heal("/n");
        let out = conn.deliver(ms((n + 1) * 1000), tick(n + 1, k));
        assert_eq!((out.published, out.drained), ((n + 1) * k, n * k));
        let want: Vec<(String, Vec<i64>)> = (1..=n + 1)
            .flat_map(|i| tick(i, k))
            .map(|(topic, batch)| (topic.as_str().to_string(), batch.values))
            .collect();
        assert_eq!(arrivals(&sub), want, "N x K batches, then the fresh tick");
        assert_eq!(conn.spool_depth(), 0);
    }

    #[test]
    fn a_refusal_mid_drain_keeps_the_rest_at_the_front() {
        let (chaos, sub, mut conn) = partitioned(64);
        for i in 1..=3 {
            conn.deliver(ms(i * 1000), tick(i, 3));
        }
        // Only `/n/s1` stays cut off: tick 1's first batch goes out, its
        // second is refused, and that batch and everything after it stay
        // spooled, the fresh tick 4 behind them.
        chaos.heal("/n");
        chaos.partition("/n/s1");
        let out = conn.deliver(ms(4000), tick(4, 3));
        assert_eq!((out.drained, out.refused_attempts), (1, 1));
        let values: Vec<i64> = arrivals(&sub).into_iter().flat_map(|(_, v)| v).collect();
        assert_eq!(values, vec![100]);
        let m = conn.metrics().spool;
        assert_eq!((m.ticks, m.depth), (4, 11));

        chaos.heal("/n/s1");
        conn.deliver(ms(5000), Vec::new());
        let values: Vec<i64> = arrivals(&sub).into_iter().flat_map(|(_, v)| v).collect();
        assert_eq!(
            values,
            vec![101, 102, 200, 201, 202, 300, 301, 302, 400, 401, 402]
        );
    }

    #[test]
    fn a_full_spool_evicts_its_oldest_whole_tick() {
        let (chaos, sub, mut conn) = partitioned(2);
        let mut dropped = 0;
        for i in 1..=3 {
            // Ticks of 1, 2 and 3 topics: evicting tick 1 drops 1 reading.
            dropped += conn.deliver(ms(i * 1000), tick(i, i)).spool_dropped;
        }
        assert_eq!(dropped, 1);
        let m = conn.metrics().spool;
        assert_eq!((m.ticks, m.depth, m.dropped, m.high_water), (2, 5, 1, 2));

        // Evicting tick 2 drops its 2 readings.
        let out = conn.deliver(ms(4000), tick(4, 1));
        assert_eq!(out.spool_dropped, 2);
        chaos.heal("/n");
        conn.deliver(ms(5000), Vec::new());
        let values: Vec<i64> = arrivals(&sub).into_iter().flat_map(|(_, v)| v).collect();
        assert_eq!(values, vec![300, 301, 302, 400]);
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
