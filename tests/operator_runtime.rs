//! Fault-isolated operator runtime integration tests: a panicking
//! plugin must not kill the ticking thread, repeated failures must lead to
//! quarantine (probed at backoff, resumable over REST), an operator still busy when it
//! comes due is skipped as an overrun instead of blocking the tick,
//! and all of it must be visible through `GET /metrics` — with the
//! accounting identity
//! `runs == successes + errors + panics + overruns + quarantined_skips`
//! holding exactly.

use dcdb_wintermute::dcdb_bus::{Broker, MessageBus};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::error::Result as DcdbResult;
use dcdb_wintermute::dcdb_common::{SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_rest::{Method, Request, Router};
use dcdb_wintermute::dcdb_storage::DurableBackend;
use dcdb_wintermute::wintermute::manager::OperatorMetricsSnapshot;
use dcdb_wintermute::wintermute::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

/// One-sensor query engine + manager with all test plugins registered.
fn manager_with_sensor() -> Arc<OperatorManager> {
    let qe = Arc::new(QueryEngine::new(16));
    qe.insert(
        &t("/n0/power"),
        SensorReading::new(100, Timestamp::from_secs(1)),
    );
    qe.rebuild_navigator();
    let mgr = OperatorManager::new(qe);
    mgr.register_plugin(Box::new(EchoPlugin));
    mgr.register_plugin(Box::new(PanicPlugin));
    mgr.register_plugin(Box::new(GatedPlugin::default()));
    mgr
}

fn snapshot(mgr: &OperatorManager, plugin: &str) -> OperatorMetricsSnapshot {
    mgr.operator_metrics()
        .into_iter()
        .find(|p| p.name == plugin)
        .unwrap_or_else(|| panic!("plugin {plugin} not found"))
        .operators
        .remove(0)
}

fn assert_accounting(m: &OperatorMetricsSnapshot) {
    assert_eq!(
        m.runs,
        m.successes + m.errors + m.panics + m.overruns + m.quarantined_skips,
        "accounting identity violated for {}: {m:?}",
        m.name
    );
}

/// Healthy operator: echoes the latest input value to its output.
struct EchoOperator {
    units: Vec<Unit>,
}

impl Operator for EchoOperator {
    fn name(&self) -> &str {
        "echo"
    }
    fn units(&self) -> &[Unit] {
        &self.units
    }
    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> DcdbResult<Vec<Output>> {
        Ok(vec![(
            self.units[i].outputs[0].clone(),
            SensorReading::new(1, ctx.now),
        )])
    }
}

struct EchoPlugin;
impl OperatorPlugin for EchoPlugin {
    fn kind(&self) -> &str {
        "echo"
    }
    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> DcdbResult<Vec<Box<dyn Operator>>> {
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |_, units| {
            Ok(Box::new(EchoOperator { units }) as Box<dyn Operator>)
        })
    }
}

/// Operator that panics on every computation.
struct PanicOperator {
    units: Vec<Unit>,
}

impl Operator for PanicOperator {
    fn name(&self) -> &str {
        "boom"
    }
    fn units(&self) -> &[Unit] {
        &self.units
    }
    fn compute(&mut self, _i: usize, _ctx: &ComputeContext<'_>) -> DcdbResult<Vec<Output>> {
        panic!("injected operator panic");
    }
}

struct PanicPlugin;
impl OperatorPlugin for PanicPlugin {
    fn kind(&self) -> &str {
        "panic"
    }
    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> DcdbResult<Vec<Box<dyn Operator>>> {
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |_, units| {
            Ok(Box::new(PanicOperator { units }) as Box<dyn Operator>)
        })
    }
}

/// Operator whose computation blocks until an external release flag is
/// set — the stand-in for "computes slower than its interval".
struct GatedOperator {
    units: Vec<Unit>,
    entered: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl Operator for GatedOperator {
    fn name(&self) -> &str {
        "gated"
    }
    fn units(&self) -> &[Unit] {
        &self.units
    }
    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> DcdbResult<Vec<Output>> {
        self.entered.store(true, Ordering::Release);
        while !self.release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(vec![(
            self.units[i].outputs[0].clone(),
            SensorReading::new(7, ctx.now),
        )])
    }
}

#[derive(Default)]
struct GatedPlugin {
    entered: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl OperatorPlugin for GatedPlugin {
    fn kind(&self) -> &str {
        "gated"
    }
    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> DcdbResult<Vec<Box<dyn Operator>>> {
        let resolution = config.resolve(nav)?;
        let (entered, release) = (Arc::clone(&self.entered), Arc::clone(&self.release));
        instantiate(config, resolution.units, move |_, units| {
            Ok(Box::new(GatedOperator {
                units,
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            }) as Box<dyn Operator>)
        })
    }
}

/// The acceptance scenario: three online operators — one healthy, one
/// panicking every run, one busy past its interval — ticked on the wall
/// clock from a thread of their own, as a host's loop ticks them. The
/// ticking thread survives ≥ 20 ticks, the healthy operator runs on
/// every tick, the panicking one is quarantined after N consecutive
/// failures — skipped but for its backoff probes — and runs again after
/// `PUT /analytics/plugins/boom/start`, and the busy one accumulates
/// overruns instead of blocking anything.
#[test]
fn scheduler_thread_survives_panicking_and_busy_operators() {
    let mgr = manager_with_sensor();
    mgr.set_fault_policy(FaultPolicy {
        quarantine_threshold: 3,
    });
    let gate = GatedPlugin::default();
    let (entered, release) = (Arc::clone(&gate.entered), Arc::clone(&gate.release));
    mgr.register_plugin(Box::new(gate));
    mgr.load(
        PluginConfig::online("good", "echo", 1)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-echo"]),
    )
    .unwrap();
    mgr.load(
        PluginConfig::online("boom", "panic", 1)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-boom"]),
    )
    .unwrap();
    mgr.load(
        PluginConfig::online("slow", "gated", 1)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-slow"]),
    )
    .unwrap();
    let mut router = Router::new();
    mgr.mount_routes(&mut router);

    // Occupy the slow operator via a long on-demand request: every due
    // visit while it is held is an overrun for the scheduler.
    let mgr2 = Arc::clone(&mgr);
    let on_demand =
        std::thread::spawn(move || mgr2.on_demand("slow", &t("/n0"), Timestamp::now()).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !entered.load(Ordering::Acquire) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(entered.load(Ordering::Acquire), "on-demand never started");

    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let (mgr, stop) = (Arc::clone(&mgr), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                mgr.tick(Timestamp::now());
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    while (mgr.ticks() < 25 || snapshot(&mgr, "boom").quarantined_skips == 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        mgr.ticks() >= 25,
        "the ticking thread made only {} ticks",
        mgr.ticks()
    );

    // The panicking operator hit the threshold and was quarantined:
    // its due events are skipped but for the backoff probes.
    let boom = snapshot(&mgr, "boom");
    assert!(boom.quarantined, "{boom:?}");
    assert!(boom.panics >= 3, "{boom:?}");
    assert!(
        boom.quarantined_skips >= 1,
        "quarantine skips runs: {boom:?}"
    );
    assert_accounting(&boom);

    // Resume over REST: a clean slate, so it runs (and panics) at once.
    let resp = router.dispatch(Request::new(Method::Put, "/analytics/plugins/boom/start"));
    assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
    let resumed = snapshot(&mgr, "boom").panics + 1;
    while snapshot(&mgr, "boom").panics < resumed && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    release.store(true, Ordering::Release);
    let outputs = on_demand.join().expect("on-demand thread");
    assert_eq!(outputs.len(), 1);
    stop.store(true, Ordering::Release);
    ticker.join().expect("ticking thread");

    let good = snapshot(&mgr, "good");
    assert_eq!(good.runs, mgr.ticks(), "healthy operator missed a tick");
    assert_eq!(good.successes, good.runs);
    assert!(good.last_latency_ns > 0 && good.ewma_latency_ns > 0);
    assert_accounting(&good);

    let boom = snapshot(&mgr, "boom");
    assert!(boom.panics >= resumed, "operator did not resume: {boom:?}");
    assert_accounting(&boom);

    let slow = snapshot(&mgr, "slow");
    assert!(slow.overruns >= 1, "busy operator never overran: {slow:?}");
    assert_accounting(&slow);

    // The identity also holds over the whole runtime.
    let totals = mgr.metrics_totals();
    assert_eq!(
        totals.runs,
        totals.successes
            + totals.errors
            + totals.panics
            + totals.overruns
            + totals.quarantined_skips
    );
}

/// Deterministic overrun semantics under manual ticks: while a long
/// on-demand computation holds the slot, due ticks return immediately
/// with an overrun; once released, the next tick computes normally.
/// Overruns are not failures — they never feed the quarantine counter.
#[test]
fn overrunning_operator_is_skipped_not_blocking() {
    let mgr = manager_with_sensor();
    let gate = GatedPlugin::default();
    let (entered, release) = (Arc::clone(&gate.entered), Arc::clone(&gate.release));
    mgr.register_plugin(Box::new(gate));
    mgr.load(
        PluginConfig::online("blk", "gated", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-blk"]),
    )
    .unwrap();

    let mgr2 = Arc::clone(&mgr);
    let worker = std::thread::spawn(move || {
        mgr2.on_demand("blk", &t("/n0"), Timestamp::from_secs(2))
            .unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while !entered.load(Ordering::Acquire) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(entered.load(Ordering::Acquire), "on-demand never started");

    // Two due ticks while the slot is held: two overruns, no blocking.
    let before = Instant::now();
    let r1 = mgr.tick(Timestamp::from_secs(2));
    let r2 = mgr.tick(Timestamp::from_secs(3));
    assert!(
        before.elapsed() < Duration::from_secs(5),
        "tick blocked on a busy operator"
    );
    assert_eq!(r1.overruns, 1);
    assert_eq!(r2.overruns, 1);
    assert!(r1.errors.is_empty() && r1.panics.is_empty());

    release.store(true, Ordering::Release);
    worker.join().expect("on-demand thread");

    let r3 = mgr.tick(Timestamp::from_secs(4));
    assert_eq!(r3.successes, 1);
    assert_eq!(r3.outputs_published, 1);

    let m = snapshot(&mgr, "blk");
    assert_eq!((m.runs, m.overruns, m.successes), (3, 2, 1));
    assert_eq!(m.consecutive_failures, 0, "overruns are not failures");
    assert!(!m.quarantined);
    assert_accounting(&m);
}

/// End-to-end observability: the Collect Agent's `GET /metrics` carries
/// the operator runtime section, quarantine is visible there, and the
/// REST start action clears it.
#[test]
fn metrics_flow_through_collect_agent_rest() {
    let broker = Broker::new();
    let storage = Arc::new(DurableBackend::in_memory());
    let agent = Arc::new(
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap(),
    );
    agent.manager().set_fault_policy(FaultPolicy {
        quarantine_threshold: 2,
    });
    agent.manager().register_plugin(Box::new(EchoPlugin));
    agent.manager().register_plugin(Box::new(PanicPlugin));
    let bus = broker.handle();
    for i in 1..=5u64 {
        bus.publish_readings(
            t("/r0/n0/power"),
            &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
        )
        .unwrap();
    }
    agent.process_pending();
    agent
        .manager()
        .load(
            PluginConfig::online("good", "echo", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>power-echo"]),
        )
        .unwrap();
    agent
        .manager()
        .load(
            PluginConfig::online("boom", "panic", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>power-boom"]),
        )
        .unwrap();

    // Two panics hit the threshold of 2; the next due event is a
    // quarantined skip, the one after it the first probe (2x the
    // interval after the crossing), which panics again.
    agent.tick(Timestamp::from_secs(6));
    agent.tick(Timestamp::from_secs(7));
    agent.tick(Timestamp::from_secs(8));
    agent.tick(Timestamp::from_secs(9));

    let mut router = Router::new();
    agent.mount_routes(&mut router);
    let resp = router.dispatch(Request::new(Method::Get, "/metrics"));
    assert_eq!(resp.status.code(), 200);
    let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
    let ops = v.get("operators").unwrap();
    let totals = ops.get("totals").unwrap();
    let field = |o: &serde_json::Value, k: &str| o.get(k).unwrap().as_u64().unwrap();
    assert_eq!(field(totals, "panics"), 3);
    assert_eq!(field(totals, "quarantined_operators"), 1);
    assert_eq!(field(totals, "quarantined_skips"), 1);
    assert_eq!(
        field(totals, "runs"),
        field(totals, "successes")
            + field(totals, "errors")
            + field(totals, "panics")
            + field(totals, "overruns")
            + field(totals, "quarantined_skips"),
        "accounting identity violated in /metrics"
    );
    let plugins = ops.get("plugins").unwrap().as_array().unwrap();
    let boom = plugins
        .iter()
        .find(|p| p.get("name").unwrap().as_str() == Some("boom"))
        .unwrap();
    let boom_op = &boom.get("operators").unwrap().as_array().unwrap()[0];
    assert_eq!(boom_op.get("quarantined").unwrap().as_bool(), Some(true));
    assert!(field(boom_op, "last_latency_ns") > 0);

    // REST resume: quarantine cleared, the operator runs again.
    let resp = router.dispatch(Request::new(Method::Put, "/analytics/plugins/boom/start"));
    assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
    let report = agent.tick(Timestamp::from_secs(10));
    assert_eq!(report.panics.len(), 1, "resumed operator must run");

    let resp = router.dispatch(Request::new(Method::Get, "/metrics"));
    let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
    let totals = v.get("operators").unwrap().get("totals").unwrap();
    assert_eq!(field(totals, "panics"), 4);
    assert_eq!(field(totals, "quarantined_operators"), 0);
}
