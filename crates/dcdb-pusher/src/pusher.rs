//! The DCDB Pusher (paper §IV-A, Fig. 3).
//!
//! "Pushers perform the sampling of sensors on monitored components,
//! using a plugin-based architecture ... All collected data is sent via
//! the MQTT protocol to Collect Agents." With Wintermute embedded, the
//! Pusher also hosts an Operator Manager whose operators see the
//! locally-sampled sensors through the local sensor caches — "optimal
//! for runtime models requiring data liveness, low latency and
//! horizontal scalability" (§IV-B a).
//!
//! The Pusher is tick-driven: each [`Pusher::tick`] samples every due
//! monitoring plugin, stores readings in the local caches, runs due
//! Wintermute operators, then hands the samples followed by the
//! operators' outputs to the supervised delivery layer (see
//! [`crate::delivery`]) in one call. Production deployments drive ticks
//! from a wall-clock loop; simulations from a virtual clock.
//!
//! Fault isolation mirrors the operator runtime: every plugin slot runs
//! one [`Supervisor`], built by [`FaultPolicy::supervision`]. A failing
//! monitoring plugin is counted (`sample_errors`), never aborts the
//! tick, and after [`FaultPolicy::quarantine_threshold`] consecutive
//! failures is quarantined — sampled only by probes 2, 4, 8, …
//! intervals apart (capped at 64) until one succeeds — while the
//! remaining plugins and the operator tick keep running. Everything a
//! Pusher publishes, sampled or derived, is appended to one node frame
//! per node prefix and tick ([`FrameBuilder`]) and routed through one
//! [`BusConnection`], which spools refused frames and drains them
//! oldest-first on recovery.

use crate::delivery::{BusConnection, DeliveryConfig, DeliveryMetricsSnapshot};
use crate::plugins::MonitoringPlugin;
use dcdb_bus::{BusHandle, FrameBuilder, MessageBus};
use dcdb_common::cache::SensorCache;
use dcdb_common::error::Result;
use dcdb_common::supervisor::{ConnectionState, Supervisor};
use dcdb_common::time::Timestamp;
use dcdb_rest::Router;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wintermute::prelude::*;

/// Pusher configuration.
#[derive(Debug, Clone)]
pub struct PusherConfig {
    /// Sampling interval for monitoring plugins, milliseconds.
    pub sampling_interval_ms: u64,
    /// Sensor cache window, seconds (paper default: 180 s).
    pub cache_secs: u64,
    /// Publish samples on the MQTT bus (disable for overhead baselines).
    pub publish: bool,
    /// Delivery-layer policy: reconnect backoff and the
    /// store-and-forward spool.
    pub delivery: DeliveryConfig,
    /// Fault policy for monitoring plugins (the quarantine threshold,
    /// with the operator runtime's probe schedule).
    pub plugin_fault: FaultPolicy,
}

impl Default for PusherConfig {
    fn default() -> Self {
        PusherConfig {
            sampling_interval_ms: 1000,
            cache_secs: 180,
            publish: true,
            delivery: DeliveryConfig::default(),
            plugin_fault: FaultPolicy::default(),
        }
    }
}

struct PluginSlot {
    name: String,
    plugin: Mutex<Box<dyn MonitoringPlugin>>,
    /// The plugin's failure detector, `Down` being quarantine. Its own
    /// lock, never held across a sample, so metric readers never wait
    /// on a slow plugin.
    supervisor: Mutex<Supervisor>,
    next_due: AtomicU64,
    sample_errors: AtomicU64,
}

/// Per-plugin health metrics, as returned by [`Pusher::plugin_metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PluginMetricsSnapshot {
    /// Plugin name.
    pub name: String,
    /// Total failed sample calls.
    pub sample_errors: u64,
    /// Consecutive failures right now (0 after any success).
    pub consecutive_failures: u64,
    /// Whether the plugin is quarantined (probed at backoff cadence
    /// instead of every interval).
    pub quarantined: bool,
}

/// Counters for the footprint experiments and the delivery accounting
/// identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PusherStats {
    /// Readings sampled from monitoring plugins.
    pub sampled: u64,
    /// Readings the Pusher's operators derived; they leave with the
    /// samples.
    pub derived: u64,
    /// Readings published to the bus (fresh and spool-drained alike).
    pub published: u64,
    /// Publish attempts the bus refused (transient count — refused
    /// readings are spooled, so this is diagnostic, not loss).
    pub publish_errors: u64,
    /// Failed monitoring-plugin sample calls.
    pub sample_errors: u64,
    /// Monitoring plugins currently quarantined.
    pub quarantined_plugins: u64,
    /// Readings currently parked in the store-and-forward spool.
    pub spooled_pending: u64,
    /// Readings lost at the spool (evicted or refused at capacity).
    pub spool_dropped: u64,
    /// Readings lost outright: the bus refused and the spool could not
    /// hold them (spool disabled).
    pub publish_errors_final: u64,
    /// Readings sampled or derived while publishing was disabled or no
    /// bus was attached (cache-only operation).
    pub unpublished: u64,
    /// Successful reconnects of the bus connection.
    pub reconnects: u64,
}

impl PusherStats {
    /// The delivery accounting identity: every sampled or derived
    /// reading is published, parked in the spool, dropped at the spool,
    /// lost as a final publish error, or (with publishing disabled)
    /// deliberately unpublished. Holds exactly at tick boundaries.
    pub fn delivery_conserved(&self) -> bool {
        self.sampled + self.derived
            == self.published
                + self.spooled_pending
                + self.spool_dropped
                + self.publish_errors_final
                + self.unpublished
    }
}

/// One DCDB Pusher instance.
pub struct Pusher {
    config: PusherConfig,
    plugins: Vec<PluginSlot>,
    manager: Arc<OperatorManager>,
    connection: Option<Mutex<BusConnection>>,
    /// The tick's node frames; its own lock, so counter readers never
    /// wait on a tick.
    frames: Mutex<FrameBuilder>,
    sampled: AtomicU64,
    derived: AtomicU64,
    published: AtomicU64,
    publish_errors: AtomicU64,
    sample_errors: AtomicU64,
    spool_dropped: AtomicU64,
    publish_errors_final: AtomicU64,
    unpublished: AtomicU64,
}

impl Pusher {
    /// Creates a Pusher with its own cache-only Query Engine (no
    /// storage: Pushers only see local data).
    pub fn new(config: PusherConfig, bus: Option<BusHandle>) -> Pusher {
        let bus: Option<Arc<dyn MessageBus>> =
            bus.map(|handle| Arc::new(handle) as Arc<dyn MessageBus>);
        Pusher::with_bus(config, bus)
    }

    /// Creates a Pusher over any [`MessageBus`] — the production
    /// [`BusHandle`] or a fault-injecting
    /// [`ChaosBus`](dcdb_bus::ChaosBus). A zero sampling interval means
    /// 1 ms, for cache sizing and ticking alike.
    pub fn with_bus(mut config: PusherConfig, bus: Option<Arc<dyn MessageBus>>) -> Pusher {
        config.sampling_interval_ms = config.sampling_interval_ms.max(1);
        let cache_slots = SensorCache::window_slots(config.cache_secs, config.sampling_interval_ms);
        let query = Arc::new(QueryEngine::new(cache_slots));
        let manager = OperatorManager::new(query);
        let connection = bus.map(|bus| Mutex::new(BusConnection::new(bus, config.delivery)));
        Pusher {
            config,
            plugins: Vec::new(),
            manager,
            connection,
            frames: Mutex::default(),
            sampled: AtomicU64::new(0),
            derived: AtomicU64::new(0),
            published: AtomicU64::new(0),
            publish_errors: AtomicU64::new(0),
            sample_errors: AtomicU64::new(0),
            spool_dropped: AtomicU64::new(0),
            publish_errors_final: AtomicU64::new(0),
            unpublished: AtomicU64::new(0),
        }
    }

    /// The embedded Wintermute manager (register and load operator
    /// plugins through it).
    pub fn manager(&self) -> &Arc<OperatorManager> {
        &self.manager
    }

    /// The local query engine (sensor caches).
    pub fn query_engine(&self) -> &Arc<QueryEngine> {
        self.manager.query_engine()
    }

    /// Adds a monitoring plugin; [`Pusher::refresh_sensor_tree`] puts
    /// its topics in the sensor tree.
    pub fn add_monitoring_plugin(&mut self, plugin: Box<dyn MonitoringPlugin>) {
        let supervision = self
            .config
            .plugin_fault
            .supervision(self.config.sampling_interval_ms);
        self.plugins.push(PluginSlot {
            name: plugin.name().to_string(),
            plugin: Mutex::new(plugin),
            supervisor: Mutex::new(Supervisor::new(supervision)),
            next_due: AtomicU64::new(0),
            sample_errors: AtomicU64::new(0),
        });
    }

    /// Rebuilds the navigator from all declared sensors and every
    /// cached one, derived sensors included. Call after adding
    /// monitoring plugins and before loading operator plugins, and again
    /// before loading a stage over an earlier stage's outputs.
    pub fn refresh_sensor_tree(&self) {
        let mut topics = Vec::new();
        for slot in &self.plugins {
            topics.extend(slot.plugin.lock().sensor_topics());
        }
        topics.extend(self.query_engine().topics());
        self.query_engine()
            .set_navigator(SensorNavigator::build(&topics));
    }

    /// One tick: sample due monitoring plugins (isolating failures),
    /// cache their readings, run due Wintermute operators, then deliver
    /// the samples followed by the operators' outputs, one entry each in
    /// the node frame of their prefix, through the supervised
    /// connection. The returned report's `outputs` are empty: they left
    /// with the samples.
    pub fn tick(&self, now: Timestamp) -> Result<TickReport> {
        let interval_ns = self.config.sampling_interval_ms * 1_000_000;
        let publishing = self.config.publish && self.connection.is_some();
        let mut frames = self.frames.lock();
        for slot in &self.plugins {
            let due = slot.next_due.load(Ordering::Acquire);
            if due > now.as_nanos() {
                continue;
            }
            let mut next = if due == 0 { now.as_nanos() } else { due };
            while next <= now.as_nanos() {
                next += interval_ns;
            }
            slot.next_due.store(next, Ordering::Release);

            // One dead plugin must not cost the other plugins their
            // samples or the operator tick: count, quarantine, carry
            // on. A quarantined plugin samples only when a probe is due.
            // Outcomes are fed only under the plugin lock, so a plugin
            // that was clean here needs no second supervisor lock to
            // succeed.
            let mut plugin = slot.plugin.lock();
            let clean = {
                let mut supervisor = slot.supervisor.lock();
                if !supervisor.attempt_due(now.as_nanos()) {
                    continue;
                }
                supervisor.state() == ConnectionState::Up && supervisor.consecutive_failures() == 0
            };
            let samples = match plugin.sample(now) {
                Ok(samples) => {
                    if !clean {
                        slot.supervisor.lock().on_success(now.as_nanos());
                    }
                    samples
                }
                Err(_) => {
                    slot.supervisor.lock().on_failure(now.as_nanos());
                    slot.sample_errors.fetch_add(1, Ordering::Relaxed);
                    self.sample_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            drop(plugin);
            self.sampled
                .fetch_add(samples.len() as u64, Ordering::Relaxed);
            for (topic, reading) in &samples {
                self.query_engine().insert(topic, *reading);
            }
            if publishing {
                for (topic, reading) in &samples {
                    frames.push(topic, *reading);
                }
            } else {
                self.unpublished
                    .fetch_add(samples.len() as u64, Ordering::Relaxed);
            }
        }

        let mut report = self.manager.tick(now);
        let outputs = std::mem::take(&mut report.outputs);
        let derived = outputs.iter().map(Vec::len).sum::<usize>() as u64;
        self.derived.fetch_add(derived, Ordering::Relaxed);
        if publishing {
            for (topic, reading) in outputs.iter().flatten() {
                frames.push(topic, *reading);
            }
        } else {
            self.unpublished.fetch_add(derived, Ordering::Relaxed);
        }

        if let Some(connection) = &self.connection {
            if publishing && !frames.is_empty() {
                let out = connection.lock().deliver(now, frames.finish());
                self.published.fetch_add(out.published, Ordering::Relaxed);
                self.publish_errors
                    .fetch_add(out.refused_attempts, Ordering::Relaxed);
                self.spool_dropped
                    .fetch_add(out.spool_dropped, Ordering::Relaxed);
                self.publish_errors_final
                    .fetch_add(out.final_errors, Ordering::Relaxed);
            }
        }
        Ok(report)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PusherStats {
        let (spooled_pending, reconnects) = match &self.connection {
            Some(connection) => {
                let conn = connection.lock();
                (conn.spool_depth() as u64, conn.metrics().reconnects)
            }
            None => (0, 0),
        };
        PusherStats {
            sampled: self.sampled.load(Ordering::Relaxed),
            derived: self.derived.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            publish_errors: self.publish_errors.load(Ordering::Relaxed),
            sample_errors: self.sample_errors.load(Ordering::Relaxed),
            quarantined_plugins: self
                .plugins
                .iter()
                .filter(|slot| slot.supervisor.lock().state() == ConnectionState::Down)
                .count() as u64,
            spooled_pending,
            spool_dropped: self.spool_dropped.load(Ordering::Relaxed),
            publish_errors_final: self.publish_errors_final.load(Ordering::Relaxed),
            unpublished: self.unpublished.load(Ordering::Relaxed),
            reconnects,
        }
    }

    /// Delivery-layer metrics: connection state, reconnect counters,
    /// backoff, time-in-state, spool depth and drop counters. `None`
    /// for bus-less pushers.
    pub fn delivery_metrics(&self) -> Option<DeliveryMetricsSnapshot> {
        self.connection
            .as_ref()
            .map(|connection| connection.lock().metrics())
    }

    /// Current connection state (`None` for bus-less pushers).
    pub fn connection_state(&self) -> Option<ConnectionState> {
        self.connection
            .as_ref()
            .map(|connection| connection.lock().state())
    }

    /// Per-plugin health: sample errors, consecutive failures and
    /// quarantine state.
    pub fn plugin_metrics(&self) -> Vec<PluginMetricsSnapshot> {
        self.plugins
            .iter()
            .map(|slot| {
                let supervisor = slot.supervisor.lock();
                PluginMetricsSnapshot {
                    name: slot.name.clone(),
                    sample_errors: slot.sample_errors.load(Ordering::Relaxed),
                    consecutive_failures: supervisor.consecutive_failures(),
                    quarantined: supervisor.state() == ConnectionState::Down,
                }
            })
            .collect()
    }

    /// Mounts the Pusher's REST API (Wintermute management routes).
    pub fn mount_routes(&self, router: &mut Router) {
        self.manager.mount_routes(router);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::SpoolConfig;
    use crate::plugins::{FlakyMonitoringPlugin, SimMonitoringPlugin, TesterMonitoringPlugin};
    use dcdb_bus::{decode_frame, Broker, ChaosBus, ChaosConfig, Message, TopicFilter};
    use dcdb_common::reading::SensorReading;
    use dcdb_common::supervisor::ReconnectConfig;
    use dcdb_common::topic::Topic;
    use sim_cluster::{ClusterConfig, ClusterSimulator};

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn sim_pusher(publish: bool) -> (Pusher, Broker) {
        let broker = Broker::new();
        let sim = Arc::new(Mutex::new(ClusterSimulator::new(
            ClusterConfig::small_manual(7),
        )));
        let mut pusher = Pusher::new(
            PusherConfig {
                sampling_interval_ms: 1000,
                cache_secs: 60,
                publish,
                ..PusherConfig::default()
            },
            Some(broker.handle()),
        );
        pusher.add_monitoring_plugin(Box::new(SimMonitoringPlugin::new(sim, 0)));
        pusher.refresh_sensor_tree();
        (pusher, broker)
    }

    #[test]
    fn tick_samples_and_publishes() {
        let (pusher, broker) = sim_pusher(true);
        let sub = broker.handle().subscribe_str("/#").unwrap();
        pusher.tick(Timestamp::from_secs(1)).unwrap();
        let stats = pusher.stats();
        assert_eq!(stats.sampled, 22); // 6 node-level + 16 core sensors
        assert_eq!(stats.published, 22);
        assert!(stats.delivery_conserved(), "{stats:?}");
        // One node, one frame: 22 readings over 22 topics in 1 message.
        assert_eq!(sub.queued(), 1);
        let frame = sub.try_recv().unwrap();
        assert_eq!(frame.topic, t("/rack00/node00"));
        assert_eq!(entries(&frame, "/#").len(), 22);
        // Local cache has the data.
        let got = pusher
            .query_engine()
            .query(&t("/rack00/node00/power"), QueryMode::Latest);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn publish_can_be_disabled() {
        let (pusher, broker) = sim_pusher(false);
        wintermute_plugins::register_all(pusher.manager(), None);
        pusher
            .manager()
            .load(
                PluginConfig::online("avg", "aggregator", 1000)
                    .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-avg"]),
            )
            .unwrap();
        let sub = broker.handle().subscribe_str("/#").unwrap();
        pusher.tick(Timestamp::from_secs(1)).unwrap();
        let stats = pusher.stats();
        assert_eq!(stats.published, 0);
        assert_eq!(sub.queued(), 0);
        assert_eq!((stats.sampled, stats.derived), (22, 1));
        assert_eq!(stats.unpublished, 22 + 1, "outputs count as samples do");
        assert!(stats.delivery_conserved(), "{stats:?}");
    }

    #[test]
    fn sampling_respects_interval() {
        let (pusher, _broker) = sim_pusher(true);
        pusher.tick(Timestamp::from_millis(1000)).unwrap();
        pusher.tick(Timestamp::from_millis(1500)).unwrap(); // not due
        assert_eq!(pusher.stats().sampled, 22);
        pusher.tick(Timestamp::from_millis(2100)).unwrap();
        assert_eq!(pusher.stats().sampled, 44);
    }

    #[test]
    fn wintermute_operators_run_on_local_data() {
        let (pusher, _broker) = sim_pusher(true);
        wintermute_plugins::register_all(pusher.manager(), None);
        pusher
            .manager()
            .load(
                PluginConfig::online("avg", "aggregator", 1000)
                    .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-avg"])
                    .with_option("window_ms", 10_000u64),
            )
            .unwrap();
        for s in 1..=5u64 {
            let report = pusher.tick(Timestamp::from_secs(s)).unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
        }
        let got = pusher
            .query_engine()
            .query(&t("/rack00/node00/power-avg"), QueryMode::Latest);
        assert!(!got.is_empty(), "operator output missing");
    }

    /// A refreshed tree holds the cached derived sensors, so a second
    /// stage over a first stage's outputs resolves its units.
    #[test]
    fn a_refreshed_tree_lets_a_second_stage_load_over_derived_sensors() {
        let (pusher, broker) = sim_pusher(true);
        let sub = broker.handle().subscribe_str("/#").unwrap();
        wintermute_plugins::register_all(pusher.manager(), None);
        let stage = |name: &str, input: &str, output: &str| {
            PluginConfig::online(name, "aggregator", 1000)
                .with_patterns(&[input], &[output])
                .with_option("window_ms", 10_000u64)
        };
        let manager = pusher.manager();
        let first = stage("avg", "<bottomup-1>power", "<bottomup-1>power-avg");
        manager.load(first).unwrap();
        for s in 1..=3u64 {
            pusher.tick(Timestamp::from_secs(s)).unwrap();
        }
        pusher.refresh_sensor_tree();
        let second = stage("avg2", "<bottomup-1>power-avg", "<bottomup-1>power-avg2");
        manager.load(second).unwrap();
        let report = pusher.tick(Timestamp::from_secs(4)).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.outputs_published, 2);

        let stats = pusher.stats();
        assert_eq!((stats.sampled, stats.derived), (4 * 22, 4 + 1));
        assert_eq!(stats.published, stats.sampled + stats.derived);
        assert!(stats.delivery_conserved(), "{stats:?}");
        let sent: Vec<_> = sub
            .drain()
            .iter()
            .flat_map(|m| entries(m, "/rack00/node00/power-avg2"))
            .collect();
        assert_eq!(sent.len(), 1, "the second stage published over the bus");
    }

    /// A zero interval still advances `next_due`; otherwise the first
    /// tick would spin forever.
    #[test]
    fn zero_sampling_interval_ticks_as_one_millisecond() {
        let mut pusher = Pusher::new(
            PusherConfig {
                sampling_interval_ms: 0,
                ..PusherConfig::default()
            },
            None,
        );
        pusher.add_monitoring_plugin(Box::new(
            TesterMonitoringPlugin::new(&t("/host/tester"), 2).unwrap(),
        ));
        let (done_tx, done) = std::sync::mpsc::channel();
        let ticker = std::thread::spawn(move || {
            for ms in [1_000, 1_000, 1_001] {
                pusher.tick(Timestamp::from_millis(ms)).unwrap();
            }
            done_tx.send(pusher.stats().sampled).unwrap();
        });
        // A hung tick never sends; it cannot be joined either.
        let sampled = done
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("tick returned");
        ticker.join().expect("ticker thread");
        assert_eq!(sampled, 4, "due once per millisecond");
    }

    #[test]
    fn tester_plugin_in_pusher() {
        let broker = Broker::new();
        let mut pusher = Pusher::new(PusherConfig::default(), Some(broker.handle()));
        pusher.add_monitoring_plugin(Box::new(
            TesterMonitoringPlugin::new(&t("/host/tester"), 100).unwrap(),
        ));
        pusher.refresh_sensor_tree();
        pusher.tick(Timestamp::from_secs(1)).unwrap();
        assert_eq!(pusher.stats().sampled, 100);
        assert_eq!(pusher.query_engine().navigator().sensor_count(), 100);
    }

    /// A plugin that reports a fixed sample list (value as given,
    /// timestamp = now).
    struct FixedPlugin(Vec<(Topic, i64)>);

    impl MonitoringPlugin for FixedPlugin {
        fn name(&self) -> &str {
            "fixed"
        }
        fn sensor_topics(&self) -> Vec<Topic> {
            self.0.iter().map(|(topic, _)| topic.clone()).collect()
        }
        fn sample(&mut self, now: Timestamp) -> Result<Vec<sim_cluster::Sample>> {
            Ok(self
                .0
                .iter()
                .map(|(topic, v)| (topic.clone(), SensorReading::new(*v, now)))
                .collect())
        }
    }

    /// Each frame's entries as `(topic, value)`, in frame order, picked
    /// with `filter`.
    fn entries(msg: &Message, filter: &str) -> Vec<(Topic, i64)> {
        decode_frame(msg, &TopicFilter::parse(filter).unwrap())
            .unwrap()
            .into_iter()
            .flat_map(|(topic, batch)| batch.values.into_iter().map(move |v| (topic.clone(), v)))
            .collect()
    }

    /// At the paper's 1 000-sensor tester Pusher, here with one node
    /// prefix per sensor, a tick publishes one frame per prefix in the
    /// order the prefixes were first sampled, each reading an entry in
    /// sampling order, including a topic sampled again later in the
    /// same plugin and one sampled by a second plugin.
    #[test]
    fn thousand_sensor_tick_frames_each_node_in_first_seen_order() {
        let broker = Broker::new();
        let mut pusher = Pusher::new(PusherConfig::default(), Some(broker.handle()));
        let topic = |i: usize| t(&format!("/host/s{i:04}/value"));
        let mut first: Vec<(Topic, i64)> = (0..1000).map(|i| (topic(i), i as i64)).collect();
        first.push((topic(5), -1));
        pusher.add_monitoring_plugin(Box::new(FixedPlugin(first)));
        pusher.add_monitoring_plugin(Box::new(FixedPlugin(vec![
            (topic(7), -2),
            (t("/host/late/value"), -3),
        ])));
        let sub = broker.handle().subscribe_str("/#").unwrap();
        pusher.tick(Timestamp::from_secs(1)).unwrap();

        let stats = pusher.stats();
        assert_eq!(stats.sampled, 1003);
        assert_eq!(stats.published, 1003);
        assert!(stats.delivery_conserved(), "{stats:?}");
        let got: Vec<(Topic, Vec<(Topic, i64)>)> = sub
            .drain()
            .iter()
            .map(|m| (m.topic.clone(), entries(m, "/#")))
            .collect();
        let node = |i: usize| t(&format!("/host/s{i:04}"));
        let mut want: Vec<(Topic, Vec<(Topic, i64)>)> = (0..1000)
            .map(|i| (node(i), vec![(topic(i), i as i64)]))
            .collect();
        want[5].1.push((topic(5), -1));
        want[7].1.push((topic(7), -2));
        want.push((t("/host/late"), vec![(t("/host/late/value"), -3)]));
        assert_eq!(got, want);
    }

    /// A plugin whose sample signals that it started, then hangs until
    /// released, as an IPMI or SNMP read that runs into its timeout.
    struct HungPlugin {
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl MonitoringPlugin for HungPlugin {
        fn name(&self) -> &str {
            "hung"
        }
        fn sensor_topics(&self) -> Vec<Topic> {
            Vec::new()
        }
        fn sample(&mut self, _now: Timestamp) -> Result<Vec<sim_cluster::Sample>> {
            let _ = self.entered.send(());
            let _ = self.release.recv();
            Ok(Vec::new())
        }
    }

    /// Readers of the plugin counters never wait behind a sample.
    #[test]
    fn plugin_counters_are_readable_while_a_sample_hangs() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let mut pusher = Pusher::new(PusherConfig::default(), None);
        pusher.add_monitoring_plugin(Box::new(HungPlugin {
            entered: entered_tx,
            release: release_rx,
        }));
        let pusher = Arc::new(pusher);
        let ticker = {
            let pusher = Arc::clone(&pusher);
            std::thread::spawn(move || pusher.tick(Timestamp::from_secs(1)).map(|_| ()))
        };
        entered
            .recv_timeout(Duration::from_secs(2))
            .expect("sample started");
        let (read_tx, read) = channel();
        let reader = {
            let pusher = Arc::clone(&pusher);
            std::thread::spawn(move || {
                let quarantined = pusher.plugin_metrics()[0].quarantined;
                let _ = read_tx.send((pusher.stats().quarantined_plugins, quarantined));
            })
        };
        let got = read.recv_timeout(Duration::from_secs(2));
        release.send(()).unwrap();
        ticker.join().unwrap().unwrap();
        reader.join().unwrap();
        assert_eq!(
            got.expect("counters read while the sample hung"),
            (0, false)
        );
    }

    /// Regression: a failing plugin used to abort the tick via `?`,
    /// skipping every later plugin *and* the operator-manager tick.
    #[test]
    fn failing_plugin_does_not_abort_tick() {
        let broker = Broker::new();
        let mut pusher = Pusher::new(
            PusherConfig {
                plugin_fault: FaultPolicy {
                    quarantine_threshold: 3,
                },
                ..PusherConfig::default()
            },
            Some(broker.handle()),
        );
        // Order matters: the broken plugin sits *before* the healthy
        // one.
        pusher.add_monitoring_plugin(Box::new(FlakyMonitoringPlugin::always_failing(
            "dead-sensor",
            vec![t("/host/dead/value")],
        )));
        pusher.add_monitoring_plugin(Box::new(
            TesterMonitoringPlugin::new(&t("/host/tester"), 5).unwrap(),
        ));
        pusher.refresh_sensor_tree();

        for s in 1..=4u64 {
            let report = pusher.tick(Timestamp::from_secs(s));
            assert!(report.is_ok(), "tick must survive the dead plugin");
        }
        let stats = pusher.stats();
        // The healthy plugin sampled every tick.
        assert_eq!(stats.sampled, 20);
        assert_eq!(stats.published, 20);
        assert!(stats.delivery_conserved(), "{stats:?}");
        // The dead plugin was counted and quarantined after 3 strikes.
        assert_eq!(stats.quarantined_plugins, 1);
        let dead = pusher
            .plugin_metrics()
            .into_iter()
            .find(|p| p.name == "dead-sensor")
            .unwrap();
        assert!(dead.quarantined);
        assert_eq!(dead.sample_errors, 3, "backoff spaces out probes");
        assert!(dead.consecutive_failures >= 3);
    }

    #[test]
    fn quarantined_plugin_recovers_on_successful_probe() {
        let broker = Broker::new();
        let mut pusher = Pusher::new(
            PusherConfig {
                plugin_fault: FaultPolicy {
                    quarantine_threshold: 2,
                },
                ..PusherConfig::default()
            },
            Some(broker.handle()),
        );
        // Fails for the first 3 seconds of virtual time, then heals.
        let inner = TesterMonitoringPlugin::new(&t("/host/tester"), 2).unwrap();
        pusher.add_monitoring_plugin(Box::new(FlakyMonitoringPlugin::failing_until(
            Box::new(inner),
            Timestamp::from_secs(3),
        )));
        pusher.refresh_sensor_tree();

        // Drive well past the backoff windows.
        for s in 1..=20u64 {
            pusher.tick(Timestamp::from_secs(s)).unwrap();
        }
        let stats = pusher.stats();
        assert_eq!(stats.quarantined_plugins, 0, "recovered");
        assert!(stats.sampled > 0, "sampling resumed");
        let m = &pusher.plugin_metrics()[0];
        assert_eq!((m.consecutive_failures, m.sample_errors), (0, 2));
        assert!(!m.quarantined);
    }

    #[test]
    fn outage_spools_and_recovers_without_loss() {
        let broker = Broker::new();
        let chaos = ChaosBus::new(
            Arc::new(broker.handle()),
            // Outage covers ticks at 3 s and 4 s.
            ChaosConfig::quiet(11).with_outage_ms(2_500, 4_500),
            dcdb_common::Clock::new(),
        );
        let mut pusher = Pusher::with_bus(
            PusherConfig {
                delivery: DeliveryConfig {
                    reconnect: ReconnectConfig {
                        base_ms: 100,
                        jitter: 0.0,
                        ..ReconnectConfig::default()
                    },
                    spool: SpoolConfig { depth: 16 },
                },
                ..PusherConfig::default()
            },
            Some(Arc::new(chaos.clone())),
        );
        pusher.add_monitoring_plugin(Box::new(
            TesterMonitoringPlugin::new(&t("/host/tester"), 3).unwrap(),
        ));
        pusher.refresh_sensor_tree();
        let sub = broker.handle().subscribe_str("/host/#").unwrap();

        for s in 1..=6u64 {
            let now = Timestamp::from_secs(s);
            chaos.advance(now);
            pusher.tick(now).unwrap();
        }
        let stats = pusher.stats();
        assert_eq!(stats.sampled, 18);
        assert_eq!(stats.published, 18, "spool drained after the outage");
        assert_eq!(stats.spooled_pending, 0);
        assert_eq!(stats.spool_dropped, 0);
        assert_eq!(stats.publish_errors_final, 0);
        assert!(stats.publish_errors > 0, "the refusals were observed");
        assert!(stats.delivery_conserved(), "{stats:?}");
        // Per-topic timestamp order survived the outage.
        let mut last_ts_per_topic: std::collections::HashMap<Topic, u64> = Default::default();
        for msg in sub.drain() {
            for (topic, batch) in decode_frame(&msg, sub.filter()).unwrap() {
                for ts in batch.ts {
                    let last = last_ts_per_topic.entry(topic.clone()).or_insert(0);
                    assert!(ts > *last, "out of order on {topic}");
                    *last = ts;
                }
            }
        }
        assert_eq!(last_ts_per_topic.len(), 3);
    }
}
