//! Failure-injection integration tests: the stack must degrade
//! gracefully under the faults a production monitoring system actually
//! sees — clock hiccups producing stale samples, corrupt frames on the
//! bus, operators failing mid-tick, subscribers vanishing, plugins
//! being reconfigured against a sensor space that shrank, and every part
//! that fails and recovers (storage, monitoring plugins, operators)
//! running one failure detector.

use dcdb_wintermute::dcdb_bus::{Broker, MessageBus};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::error::Result as DcdbResult;
use dcdb_wintermute::dcdb_common::{
    Clock, DcdbError, ReadingBatch, SensorReading, Timestamp, Topic,
};
use dcdb_wintermute::dcdb_pusher::{MonitoringPlugin, Pusher, PusherConfig};
use dcdb_wintermute::dcdb_storage::{
    DurableBackend, DurableConfig, FaultConfig, FaultIo, FsyncPolicy, HealthConfig, HealthState,
    StdIo, StorageEngine, StorageIo,
};
use dcdb_wintermute::wintermute::prelude::*;
use dcdb_wintermute::wintermute_plugins;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

#[test]
fn stale_samples_are_rejected_but_do_not_poison_the_cache() {
    let qe = QueryEngine::new(16);
    let topic = t("/n0/power");
    qe.insert(&topic, SensorReading::new(1, Timestamp::from_secs(10)));
    // Clock hiccup: a sample from the past.
    qe.insert(&topic, SensorReading::new(2, Timestamp::from_secs(5)));
    qe.insert(&topic, SensorReading::new(3, Timestamp::from_secs(11)));
    let got = qe.query(
        &topic,
        QueryMode::Absolute {
            t0: Timestamp::ZERO,
            t1: Timestamp::MAX,
        },
    );
    let vals: Vec<i64> = got.iter().map(|r| r.value).collect();
    assert_eq!(vals, vec![1, 3]);
}

#[test]
fn corrupt_frames_interleaved_with_good_ones() {
    let broker = Broker::new();
    let storage = Arc::new(DurableBackend::in_memory());
    let agent =
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap();
    let bus = broker.handle();
    for i in 1..=10u64 {
        if i % 3 == 0 {
            // Corrupt frame.
            bus.publish(t("/n0/power"), bytes::Bytes::from_static(&[0xFF, 0x00]))
                .unwrap();
        } else {
            bus.publish_readings(
                t("/n0/power"),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
    }
    agent.process_pending();
    let stats = agent.stats();
    assert_eq!(stats.decode_errors, 3);
    assert_eq!(stats.readings, 7);
    // Good data is fully usable.
    let got = agent
        .query_engine()
        .query(&t("/n0/power"), QueryMode::Latest);
    assert_eq!(got[0].value, 10);
}

/// An operator that fails on every odd tick.
struct FlakyOperator {
    units: Vec<Unit>,
    tick: usize,
}

impl Operator for FlakyOperator {
    fn name(&self) -> &str {
        "flaky"
    }
    fn units(&self) -> &[Unit] {
        &self.units
    }
    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> DcdbResult<Vec<Output>> {
        if i == 0 {
            self.tick += 1;
        }
        if self.tick % 2 == 1 {
            return Err(dcdb_wintermute::dcdb_common::DcdbError::InvalidState(
                "injected failure".into(),
            ));
        }
        Ok(vec![(
            self.units[i].outputs[0].clone(),
            SensorReading::new(self.tick as i64, ctx.now),
        )])
    }
}

struct FlakyPlugin;
impl OperatorPlugin for FlakyPlugin {
    fn kind(&self) -> &str {
        "flaky"
    }
    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> DcdbResult<Vec<Box<dyn Operator>>> {
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |_, units| {
            Ok(Box::new(FlakyOperator { units, tick: 0 }) as Box<dyn Operator>)
        })
    }
}

#[test]
fn failing_operator_does_not_starve_healthy_ones() {
    let qe = Arc::new(QueryEngine::new(16));
    qe.insert(
        &t("/n0/power"),
        SensorReading::new(100, Timestamp::from_secs(1)),
    );
    qe.rebuild_navigator();
    let mgr = OperatorManager::new(qe);
    mgr.register_plugin(Box::new(FlakyPlugin));
    wintermute_plugins::register_all(&mgr, None);
    mgr.load(
        PluginConfig::online("bad", "flaky", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>flaky-out"]),
    )
    .unwrap();
    mgr.load(
        PluginConfig::online("good", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
            .with_option("window_ms", 10_000u64),
    )
    .unwrap();

    // Tick 1: flaky fails, aggregator succeeds.
    let report = mgr.tick(Timestamp::from_secs(2));
    assert_eq!(report.operators_run, 2);
    assert_eq!(report.errors.len(), 1);
    assert!(report.errors[0].contains("injected failure"));
    assert!(!mgr
        .query_engine()
        .query(&t("/n0/power-avg"), QueryMode::Latest)
        .is_empty());

    // Tick 2: flaky recovers on even ticks.
    let report = mgr.tick(Timestamp::from_secs(3));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(!mgr
        .query_engine()
        .query(&t("/n0/flaky-out"), QueryMode::Latest)
        .is_empty());
}

#[test]
fn dropped_subscriber_does_not_break_publishing() {
    let broker = Broker::new();
    let bus = broker.handle();
    let sub = bus.subscribe_str("/#").unwrap();
    bus.publish(t("/n0/a"), bytes::Bytes::new()).unwrap();
    assert_eq!(sub.queued(), 1);
    drop(sub);
    // Publishing continues; nothing delivered, nothing broken.
    bus.publish(t("/n0/b"), bytes::Bytes::new()).unwrap();
    let stats = broker.stats();
    assert_eq!(stats.published, 2);
    assert_eq!(stats.delivered, 1);
}

#[test]
fn reload_fails_loudly_when_sensors_disappear() {
    // A plugin bound to sensors that exist; after a navigator rebuild
    // from an engine that no longer exposes them (e.g. topology
    // change), reload must fail with a diagnostic instead of silently
    // running with zero units.
    let qe = Arc::new(QueryEngine::new(16));
    qe.insert(
        &t("/n0/power"),
        SensorReading::new(1, Timestamp::from_secs(1)),
    );
    qe.rebuild_navigator();
    let mgr = OperatorManager::new(qe);
    wintermute_plugins::register_all(&mgr, None);
    mgr.load(
        PluginConfig::online("agg", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"]),
    )
    .unwrap();
    // The sensor space "shrinks": an empty navigator replaces the tree.
    mgr.query_engine()
        .set_navigator(SensorNavigator::build(std::iter::empty::<&Topic>()));
    let err = mgr.reload("agg").unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("no units") || msg.contains("level"),
        "unexpected diagnostic: {msg}"
    );
    // The previous instance remains loaded and functional.
    assert!(mgr.is_running("agg"));
}

fn durable_test_config() -> DurableConfig {
    DurableConfig {
        fsync: FsyncPolicy::Never,
        // Small threshold so the kill lands after several seals: the
        // crash must be recovered from segments AND the WAL tail.
        memtable_max_readings: 500,
        ..DurableConfig::default()
    }
}

#[test]
fn kill_mid_ingest_loses_no_acked_data() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dcdb-kill-mid-ingest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let db = DurableBackend::open(&dir, durable_test_config()).unwrap();
    let mut acked = Vec::new();
    for i in 1..=1800u64 {
        let topic = t(&format!("/n{}/power", i % 3));
        let reading = SensorReading::new(i as i64, Timestamp::from_secs(i));
        if db.insert(&topic, reading).is_ok() {
            acked.push((topic, reading));
        }
    }
    assert_eq!(acked.len(), 1800, "all inserts should be acknowledged");
    // Simulated SIGKILL mid-ingest: no Drop, no flush, no final sync —
    // the process just disappears. (The leaked handle stands in for the
    // killed process still "holding" the file.)
    std::mem::forget(db);

    // Restart over the same directory.
    let db = DurableBackend::open(&dir, durable_test_config()).unwrap();
    let rec = db.recovery();
    assert!(rec.segments > 0, "kill landed before any seal: {rec:?}");
    assert!(
        rec.wal_readings > 0,
        "kill landed on a sealed boundary: {rec:?}"
    );
    for n in 0..3u64 {
        let topic = t(&format!("/n{n}/power"));
        let got = db.query(&topic, Timestamp::ZERO, Timestamp::MAX);
        let expected: Vec<SensorReading> = acked
            .iter()
            .filter(|(t2, _)| *t2 == topic)
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(got, expected, "acked data lost on {topic}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_wal_record_tolerates_torn_tail() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dcdb-torn-tail-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let db = DurableBackend::open(&dir, durable_test_config()).unwrap();
    for i in 1..=100u64 {
        db.insert(
            &t("/n0/power"),
            SensorReading::new(i as i64, Timestamp::from_secs(i)),
        )
        .unwrap();
    }
    std::mem::forget(db);

    // The kill interrupted a WAL append half-way: garbage bytes sit
    // after the last complete (acknowledged) record.
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().contains("wal-"))
        .max()
        .unwrap();
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap(); // torn record header
    drop(f);

    let db = DurableBackend::open(&dir, durable_test_config()).unwrap();
    assert_eq!(db.recovery().torn_tails, 1);
    let got = db.query(&t("/n0/power"), Timestamp::ZERO, Timestamp::MAX);
    assert_eq!(got.len(), 100, "acked records before the torn tail lost");
    assert_eq!(got.last().unwrap().value, 100);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Property: crash the engine at *any* fault point the seeded injector
/// produces — a torn write, an EIO, a failed fsync, a full disk — and
/// recovery is prefix-consistent: every batch acknowledged *durable* is
/// fully recovered, nothing from a refused batch survives (torn
/// prefixes are rolled back on failure and discarded by replay after a
/// crash), and batches accepted memtable-only under ReadOnly are the
/// only ones allowed to go missing. Each seed exercises a different
/// schedule of its class's faults across appends, seals and rotations.
/// A failed fsync is the one fault that leaves a refused batch's fate
/// open — the record is written, its durability unknown — so under that
/// class a refused batch may survive the crash; it is still never lost
/// if acknowledged.
#[test]
fn torn_write_crash_points_recover_prefix_consistent() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dcdb-torn-property-{}", std::process::id()));
    let topics: Vec<Topic> = (0..3).map(|n| t(&format!("/n{n}/power"))).collect();

    for seed in 1..=64u64 {
        // The class this seed runs under, with the fsync policy that
        // makes it bite (a failed fsync needs an fsync per append).
        let mut faults = FaultConfig::quiet(seed);
        let mut fsync = FsyncPolicy::Never;
        let class = ["torn", "eio", "fsync", "enospc"][(seed % 4) as usize];
        match class {
            "torn" => faults.torn_write_prob = 0.35,
            "eio" => faults.eio_prob = 0.35,
            "fsync" => (faults.fsync_fail_prob, fsync) = (0.35, FsyncPolicy::Always),
            _ => faults.enospc_after_bytes = Some(1024 + 512 * (seed % 16)),
        }
        let config = DurableConfig {
            fsync,
            // Small seal threshold: some seeds fault a WAL append, some
            // a segment write, some the post-seal WAL swap.
            memtable_max_readings: 150,
            health: HealthConfig {
                // No retries: every injected fault surfaces as a
                // refused batch, maximising distinct crash points.
                max_retries: 0,
                retry_backoff_base_ms: 0,
                ..HealthConfig::default()
            },
            ..DurableConfig::default()
        };
        std::fs::remove_dir_all(&dir).ok();
        // Open under a quiet schedule (a faulted initial WAL header is
        // a failed open, not a crash point), then arm the faults.
        let io = Arc::new(FaultIo::new(
            Arc::new(StdIo),
            FaultConfig::quiet(seed),
            Clock::new(),
        ));
        let db =
            DurableBackend::open_with(Arc::clone(&io) as Arc<dyn StorageIo>, &dir, config.clone())
                .unwrap();
        io.set_config(faults);
        // Durable-acked (topic, ts) pairs — the set a crash must never
        // lose — and buffered ones, which legitimately may not survive.
        let mut durable: Vec<Vec<u64>> = vec![Vec::new(); topics.len()];
        let mut buffered: Vec<Vec<u64>> = vec![Vec::new(); topics.len()];
        let mut refused = 0u64;
        for batch_no in 0..40u64 {
            for (i, topic) in topics.iter().enumerate() {
                let batch: ReadingBatch = (0..3)
                    .map(|j| {
                        let ts = (batch_no * 10 + j + 1) * 1_000_000_000 + i as u64;
                        SensorReading::new((batch_no * 10 + j) as i64, Timestamp(ts))
                    })
                    .collect();
                use dcdb_wintermute::dcdb_storage::InsertAck;
                match db.insert_columns_acked(topic, &batch) {
                    Ok(InsertAck::Durable) => durable[i].extend(&batch.ts),
                    Ok(InsertAck::Buffered) => buffered[i].extend(&batch.ts),
                    Err(_) => refused += 1,
                }
            }
        }
        assert!(
            db.health_report().conserved(),
            "seed {seed} ({class}): conservation identity broken: {:?}",
            db.health_report()
        );
        assert!(
            refused + buffered.iter().map(|b| b.len() as u64).sum::<u64>() > 0,
            "seed {seed} ({class}): the schedule injected nothing: {:?}",
            io.stats()
        );
        // Crash: no Drop, no flush; the torn prefixes (rolled back or
        // not) are whatever is on disk right now.
        std::mem::forget(db);

        // Recovery runs on the real filesystem — the faults "stop" with
        // the crashed process.
        let db = DurableBackend::open(&dir, config.clone()).unwrap();
        for (i, topic) in topics.iter().enumerate() {
            let got: std::collections::HashSet<u64> = db
                .query(topic, Timestamp::ZERO, Timestamp::MAX)
                .iter()
                .map(|r| r.ts.as_nanos())
                .collect();
            // Every durable-acked reading survived.
            for ts in &durable[i] {
                assert!(
                    got.contains(ts),
                    "seed {seed} ({class}) topic {topic}: durable-acked ts {ts} lost \
                     ({} refused batches this run)",
                    refused
                );
            }
            // Nothing from a refused batch leaked in: whatever was
            // recovered was either durable-acked or buffered (the
            // latter only when a successful rotation re-journaled it
            // before the crash).
            let inserted: std::collections::HashSet<u64> = durable[i]
                .iter()
                .chain(buffered[i].iter())
                .copied()
                .collect();
            for ts in got.iter().filter(|_| class != "fsync") {
                assert!(
                    inserted.contains(ts),
                    "seed {seed} ({class}) topic {topic}: recovered ts {ts} was never acknowledged"
                );
            }
        }
        drop(db);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collect_agent_killed_mid_ingest_recovers_acked_readings() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dcdb-agent-kill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let acked;
    {
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::open(&dir, durable_test_config()).unwrap());
        let agent = CollectAgent::new(
            CollectAgentConfig::default(),
            &broker.handle(),
            Arc::clone(&storage) as Arc<dyn dcdb_wintermute::dcdb_storage::StorageEngine>,
        )
        .unwrap();
        let bus = broker.handle();
        for i in 1..=700u64 {
            bus.publish_readings(
                t("/r0/n0/power"),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        // The agent drains the bus into the durable engine; everything
        // counted here was journaled before being acknowledged.
        agent.process_pending();
        acked = agent.stats().readings;
        assert_eq!(acked, 700);
        // SIGKILL: keep one storage handle alive forever so no Drop
        // (and thus no graceful sync) ever runs, then drop the agent.
        std::mem::forget(storage);
    }

    let storage = DurableBackend::open(&dir, durable_test_config()).unwrap();
    let got = storage.query(&t("/r0/n0/power"), Timestamp::ZERO, Timestamp::MAX);
    assert_eq!(got.len() as u64, acked, "acked readings lost across kill");
    drop(storage);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn on_demand_on_stopped_plugin_still_answers() {
    // Stopping pauses *online* computation; explicit on-demand requests
    // keep working (they are how operators in OnDemand mode are driven
    // at all).
    let qe = Arc::new(QueryEngine::new(16));
    qe.insert(
        &t("/n0/power"),
        SensorReading::new(42, Timestamp::from_secs(1)),
    );
    qe.rebuild_navigator();
    let mgr = OperatorManager::new(qe);
    wintermute_plugins::register_all(&mgr, None);
    mgr.load(
        PluginConfig::online("agg", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
            .with_option("window_ms", 10_000u64),
    )
    .unwrap();
    mgr.stop("agg").unwrap();
    assert_eq!(mgr.tick(Timestamp::from_secs(2)).operators_run, 0);
    let outputs = mgr
        .on_demand("agg", &t("/n0"), Timestamp::from_secs(2))
        .unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].1.value, 42);
}

/// One part that fails and recovers, as the table below drives it: its
/// supervision policy and a step function over virtual milliseconds.
struct Part {
    name: &'static str,
    threshold: u64,
    base_ms: u64,
    cap_ms: u64,
    step_ms: u64,
    /// Advances the part to `now_ms`, making whatever attempt is due;
    /// returns the failures counted so far.
    step: Box<dyn FnMut(u64) -> u64>,
    /// `(up, down)`: healthy / quarantined-or-read-only.
    state: Box<dyn Fn() -> (bool, bool)>,
    /// Makes every later attempt succeed.
    heal: Box<dyn Fn()>,
}

/// A durable engine whose every write fails with `EIO` from 1 s on.
fn storage_part(dir: &std::path::Path) -> Part {
    let clock = Clock::new();
    let io = Arc::new(FaultIo::new(
        Arc::new(StdIo),
        FaultConfig::quiet(21),
        Arc::clone(&clock),
    ));
    let config = DurableConfig {
        fsync: FsyncPolicy::Always,
        health: HealthConfig {
            max_retries: 0,
            retry_backoff_base_ms: 0,
            readonly_after: 3,
            ..HealthConfig::default()
        },
        ..DurableConfig::default()
    };
    let db = Arc::new(DurableBackend::open_with(Arc::clone(&io) as _, dir, config).unwrap());
    io.set_config(FaultConfig {
        eio_prob: 1.0,
        ..FaultConfig::quiet(21).with_window_ms(1_000, 1_000_000)
    });
    let (stepped, state, healed) = (Arc::clone(&db), Arc::clone(&db), Arc::clone(&io));
    Part {
        name: "storage",
        threshold: 3,
        base_ms: 100,
        cap_ms: 5_000,
        step_ms: 10,
        step: Box::new(move |now_ms| {
            let now = Timestamp::from_millis(now_ms);
            clock.advance_to(now);
            stepped.maintain(now).ok();
            // Buffered, not attempted, under ReadOnly.
            let _ = stepped.insert(&t("/n0/power"), SensorReading::new(1, now));
            stepped.health_report().write_errors
        }),
        state: Box::new(move || {
            let s = state.health_report().state;
            (s == HealthState::Healthy, s == HealthState::ReadOnly)
        }),
        heal: Box::new(move || healed.clear_faults()),
    }
}

/// A monitoring plugin that errors while its switch is on.
struct SwitchedPlugin(Arc<AtomicBool>);

impl MonitoringPlugin for SwitchedPlugin {
    fn name(&self) -> &str {
        "switched"
    }
    fn sensor_topics(&self) -> Vec<Topic> {
        vec![t("/host/switched")]
    }
    fn sample(&mut self, now: Timestamp) -> DcdbResult<Vec<(Topic, SensorReading)>> {
        if self.0.load(Ordering::Acquire) {
            return Err(DcdbError::InvalidState("injected sample failure".into()));
        }
        Ok(vec![(t("/host/switched"), SensorReading::new(1, now))])
    }
}

fn plugin_part(failing: Arc<AtomicBool>) -> Part {
    let mut pusher = Pusher::new(
        PusherConfig {
            sampling_interval_ms: 10,
            plugin_fault: FaultPolicy {
                quarantine_threshold: 4,
            },
            ..PusherConfig::default()
        },
        None,
    );
    pusher.add_monitoring_plugin(Box::new(SwitchedPlugin(Arc::clone(&failing))));
    let pusher = Arc::new(pusher);
    let (stepped, state) = (Arc::clone(&pusher), pusher);
    Part {
        name: "monitoring plugin",
        threshold: 4,
        base_ms: 20,
        cap_ms: 640,
        step_ms: 10,
        step: Box::new(move |now_ms| {
            stepped.tick(Timestamp::from_millis(now_ms)).unwrap();
            stepped.plugin_metrics()[0].sample_errors
        }),
        state: Box::new(move || {
            let m = &state.plugin_metrics()[0];
            (m.consecutive_failures == 0, m.quarantined)
        }),
        heal: Box::new(move || failing.store(false, Ordering::Release)),
    }
}

/// An operator that errors while its switch is on.
struct SwitchedOperator {
    units: Vec<Unit>,
    failing: Arc<AtomicBool>,
}

impl Operator for SwitchedOperator {
    fn name(&self) -> &str {
        "switched"
    }
    fn units(&self) -> &[Unit] {
        &self.units
    }
    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> DcdbResult<Vec<Output>> {
        if self.failing.load(Ordering::Acquire) {
            return Err(DcdbError::InvalidState("injected failure".into()));
        }
        Ok(vec![(
            self.units[i].outputs[0].clone(),
            SensorReading::new(1, ctx.now),
        )])
    }
}

struct SwitchedOperatorPlugin(Arc<AtomicBool>);

impl OperatorPlugin for SwitchedOperatorPlugin {
    fn kind(&self) -> &str {
        "switched"
    }
    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> DcdbResult<Vec<Box<dyn Operator>>> {
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |_, units| {
            let failing = Arc::clone(&self.0);
            Ok(Box::new(SwitchedOperator { units, failing }) as Box<dyn Operator>)
        })
    }
}

/// One switched operator due every `interval_ms`, quarantined after
/// two failures in a row.
fn switched_manager(failing: Arc<AtomicBool>, interval_ms: u64) -> Arc<OperatorManager> {
    let qe = Arc::new(QueryEngine::new(16));
    qe.insert(
        &t("/n0/power"),
        SensorReading::new(1, Timestamp::from_secs(1)),
    );
    qe.rebuild_navigator();
    let mgr = OperatorManager::new(qe);
    mgr.set_fault_policy(FaultPolicy {
        quarantine_threshold: 2,
    });
    mgr.register_plugin(Box::new(SwitchedOperatorPlugin(failing)));
    mgr.load(
        PluginConfig::online("switched", "switched", interval_ms)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-out"]),
    )
    .unwrap();
    mgr
}

fn operator_part(failing: Arc<AtomicBool>) -> Part {
    let mgr = switched_manager(Arc::clone(&failing), 10);
    let (stepped, state) = (Arc::clone(&mgr), mgr);
    Part {
        name: "operator",
        threshold: 2,
        base_ms: 20,
        cap_ms: 640,
        step_ms: 10,
        step: Box::new(move |now_ms| {
            stepped.tick(Timestamp::from_millis(now_ms));
            stepped.metrics_totals().errors
        }),
        state: Box::new(move || {
            let m = &state.operator_metrics()[0].operators[0];
            (m.consecutive_failures == 0, m.quarantined)
        }),
        heal: Box::new(move || failing.store(false, Ordering::Release)),
    }
}

/// Storage health, monitoring-plugin quarantine and operator quarantine
/// are one `Supervisor` each: the failure that crosses is number
/// `threshold`, probes come base, 2 x base, 4 x base, ... apart up to
/// the cap, and one success returns the part to up.
#[test]
fn every_part_that_fails_and_recovers_runs_one_detector() {
    let dir = std::env::temp_dir().join(format!("dcdb-one-detector-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let parts = vec![
        storage_part(&dir),
        plugin_part(Arc::new(AtomicBool::new(true))),
        operator_part(Arc::new(AtomicBool::new(true))),
    ];
    for mut part in parts {
        let name = part.name;
        // Fail until the part goes down.
        let mut now = 1_000;
        let mut failures = (part.step)(now);
        while !(part.state)().1 {
            assert!(
                failures < part.threshold,
                "{name}: {failures} failures, still up"
            );
            now += part.step_ms;
            failures = (part.step)(now);
        }
        assert_eq!(failures, part.threshold, "{name}: the crossing failure");
        let crossed = now;

        // Probes: every further failure is one, at doubling gaps.
        let (mut gap, mut probes, mut want) = (part.base_ms, Vec::new(), Vec::new());
        let mut offset = 0;
        while gap < part.cap_ms || want.len() < 8 {
            offset += gap.min(part.cap_ms);
            want.push(offset);
            gap *= 2;
        }
        while probes.len() < want.len() {
            now += part.step_ms;
            let seen = (part.step)(now);
            assert!((part.state)().1, "{name}: left down at {now} ms");
            if seen > failures {
                assert_eq!(seen, failures + 1, "{name}: one attempt per probe");
                probes.push(now - crossed);
                failures = seen;
            }
        }
        assert_eq!(probes, want, "{name}: probe offsets after the crossing");

        // Heal: the next probe is one success, and the part is up again.
        (part.heal)();
        let next = crossed + want.last().unwrap() + part.cap_ms;
        while now + part.step_ms < next {
            now += part.step_ms;
            (part.step)(now);
            assert!((part.state)().1, "{name}: up before the probe at {now} ms");
        }
        assert_eq!((part.step)(next), failures, "{name}: the probe succeeded");
        assert_eq!((part.state)(), (true, false), "{name}: one success heals");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A quarantined operator whose computation starts succeeding resumes
/// at its next probe, with no `PUT /analytics/plugins/:name/start`.
#[test]
fn a_quarantined_operator_resumes_on_its_own_once_it_succeeds() {
    let failing = Arc::new(AtomicBool::new(true));
    let mgr = switched_manager(Arc::clone(&failing), 1000);
    mgr.tick(Timestamp::from_secs(1));
    let report = mgr.tick(Timestamp::from_secs(2));
    assert_eq!(report.newly_quarantined, vec!["switched".to_string()]);

    failing.store(false, Ordering::Release);
    // Skipped at 3 s; probed at 4 s, two intervals after the crossing.
    assert_eq!(mgr.tick(Timestamp::from_secs(3)).quarantined_skips, 1);
    assert_eq!(mgr.tick(Timestamp::from_secs(4)).successes, 1);
    let m = &mgr.operator_metrics()[0].operators[0];
    assert!(!m.quarantined, "{m:?}");
    assert_eq!((m.runs, m.errors, m.quarantined_skips), (4, 2, 1));
    // Back on its interval.
    assert_eq!(mgr.tick(Timestamp::from_secs(5)).successes, 1);
}
