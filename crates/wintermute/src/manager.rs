//! The Operator Manager (paper §V-A).
//!
//! "The Operator Manager is the central entity responsible for reading
//! Wintermute configuration files, loading requested plugins and
//! managing their life cycle." It also receives all ODA-related RESTful
//! requests forwarded by the component's HTTPS server: plugin start /
//! stop / reload, and on-demand operator invocations.
//!
//! Scheduling is tick-based: [`OperatorManager::tick`] runs every
//! *online* operator whose interval has elapsed — one after another on
//! the calling thread, plugins in the order they were loaded, so a
//! pipeline stage sees what the stage loaded before it published this
//! tick — publishing its outputs to the Query Engine (making pipelines
//! possible) and returning them in [`TickReport::outputs`], so the host
//! forwards them the way it forwards its own readings: a Pusher sends
//! them to its Collect Agent with its samples. Every host ticks the
//! manager from its own loop, on the wall clock or a virtual one — the
//! manager itself is clock-agnostic.
//!
//! The runtime is **fault-isolated**: a panic inside any
//! [`Operator::compute`] is caught ([`std::panic::catch_unwind`]) and
//! recorded instead of killing the tick; every operator slot runs one
//! [`Supervisor`], so an operator failing
//! [`FaultPolicy::quarantine_threshold`] times in a row is *quarantined*
//! — its due events are skipped except for probes after 2, 4, 8, …
//! intervals (capped at 64), and the first probe that succeeds resumes
//! it, as does a `PUT /analytics/plugins/:name/start` (or reload); and
//! an operator still busy when it comes due again is skipped and counted
//! as an *overrun* rather than parking the tick on its mutex.
//! Per-operator counters (runs, outputs, errors, panics, overruns,
//! latency EWMA, quarantine state) are exposed through
//! [`OperatorManager::metrics_json`].

use crate::operator::{compute_units, ComputeContext, Operator, Output};
use crate::plugin::{OperatorPlugin, PluginConfig};
use crate::query::QueryEngine;
use crate::unit::Unit;
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::supervisor::{ConnectionState, ReconnectConfig, Supervisor};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_rest::{Method, Response, Router, Status};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fault-isolation policy of the operator runtime (and of a Pusher's
/// monitoring plugins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Consecutive failures (errors or panics) after which an operator
    /// is quarantined.
    pub quarantine_threshold: u64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            quarantine_threshold: 5,
        }
    }
}

impl FaultPolicy {
    /// The failure detector of one slot due every `interval_ms`:
    /// `quarantine_threshold` failures in a row quarantine it, and
    /// probes follow 2 intervals later, doubling to 64. No jitter.
    pub fn supervision(&self, interval_ms: u64) -> ReconnectConfig {
        let interval_ms = interval_ms.max(1);
        ReconnectConfig {
            base_ms: 2 * interval_ms,
            cap_ms: 64 * interval_ms,
            jitter: 0.0,
            down_threshold: self.quarantine_threshold,
            seed: 0,
        }
    }
}

/// Per-slot runtime counters. All fields are atomics so the tick, the
/// due-scan and REST readers never contend on a lock.
#[derive(Default)]
struct SlotMetrics {
    runs: AtomicU64,
    successes: AtomicU64,
    outputs: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    overruns: AtomicU64,
    quarantined_skips: AtomicU64,
    last_latency_ns: AtomicU64,
    ewma_latency_ns: AtomicU64,
    max_latency_ns: AtomicU64,
}

impl SlotMetrics {
    fn record_latency(&self, ns: u64) {
        self.last_latency_ns.store(ns, Ordering::Relaxed);
        self.max_latency_ns.fetch_max(ns, Ordering::Relaxed);
        let old = self.ewma_latency_ns.load(Ordering::Relaxed);
        // EWMA with alpha = 1/8, seeded by the first sample.
        let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
        self.ewma_latency_ns.store(new, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str, supervisor: &Supervisor) -> OperatorMetricsSnapshot {
        OperatorMetricsSnapshot {
            name: name.to_string(),
            runs: self.runs.load(Ordering::Relaxed),
            successes: self.successes.load(Ordering::Relaxed),
            outputs: self.outputs.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            overruns: self.overruns.load(Ordering::Relaxed),
            quarantined_skips: self.quarantined_skips.load(Ordering::Relaxed),
            consecutive_failures: supervisor.consecutive_failures(),
            quarantined: supervisor.state() == ConnectionState::Down,
            last_latency_ns: self.last_latency_ns.load(Ordering::Relaxed),
            ewma_latency_ns: self.ewma_latency_ns.load(Ordering::Relaxed),
            max_latency_ns: self.max_latency_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time runtime metrics of one operator slot.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct OperatorMetricsSnapshot {
    /// Operator name (unique within its plugin).
    pub name: String,
    /// Due events processed for this operator; every one resolves to
    /// exactly one of success / error / panic / overrun / quarantined
    /// skip, so `runs == successes + errors + panics + overruns +
    /// quarantined_skips` holds at all times.
    pub runs: u64,
    /// Successful computations.
    pub successes: u64,
    /// Output readings published by successful computations.
    pub outputs: u64,
    /// Computations that returned an error.
    pub errors: u64,
    /// Computations that panicked (caught and contained).
    pub panics: u64,
    /// Due events skipped because a previous computation (or a long
    /// on-demand request) still held the operator.
    pub overruns: u64,
    /// Due events skipped because the operator was quarantined.
    pub quarantined_skips: u64,
    /// Errors/panics since the last success or resume.
    pub consecutive_failures: u64,
    /// Whether the operator is currently quarantined.
    pub quarantined: bool,
    /// Latency of the most recent computation, nanoseconds.
    pub last_latency_ns: u64,
    /// Exponentially-weighted moving average latency (alpha 1/8), ns.
    pub ewma_latency_ns: u64,
    /// Maximum observed computation latency, nanoseconds.
    pub max_latency_ns: u64,
}

/// Whether a plugin instance computes online.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
#[serde(rename_all = "lowercase")]
pub enum PluginStatus {
    /// Online computation is enabled.
    Running,
    /// Paused (`stop`); on-demand requests are still answered.
    #[default]
    Stopped,
}

impl From<bool> for PluginStatus {
    fn from(running: bool) -> PluginStatus {
        if running {
            PluginStatus::Running
        } else {
            PluginStatus::Stopped
        }
    }
}

/// Runtime metrics of one plugin instance and its operators.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct PluginMetricsSnapshot {
    /// Instance name.
    pub name: String,
    /// Plugin kind.
    pub kind: String,
    /// Whether online computation is enabled.
    pub status: PluginStatus,
    /// One snapshot per operator slot.
    pub operators: Vec<OperatorMetricsSnapshot>,
}

/// Aggregate runtime totals across a set of operators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OperatorTotals {
    /// Due events processed (all outcomes).
    pub runs: u64,
    /// Successful computations.
    pub successes: u64,
    /// Output readings published.
    pub outputs: u64,
    /// Failed computations.
    pub errors: u64,
    /// Contained panics.
    pub panics: u64,
    /// Busy-operator skips.
    pub overruns: u64,
    /// Quarantine skips.
    pub quarantined_skips: u64,
    /// Operators currently quarantined.
    pub quarantined_operators: u64,
}

impl OperatorTotals {
    /// Sums `operators`' counters.
    pub(crate) fn of<'a>(operators: impl IntoIterator<Item = &'a OperatorMetricsSnapshot>) -> Self {
        let mut t = OperatorTotals::default();
        for op in operators {
            t.runs += op.runs;
            t.successes += op.successes;
            t.outputs += op.outputs;
            t.errors += op.errors;
            t.panics += op.panics;
            t.overruns += op.overruns;
            t.quarantined_skips += op.quarantined_skips;
            t.quarantined_operators += op.quarantined as u64;
        }
        t
    }
}

/// One row of `GET /analytics/plugins`: an instance, its operator and
/// unit counts, and its operators' fault counters summed.
#[derive(Serialize)]
struct PluginListing {
    name: String,
    kind: String,
    status: PluginStatus,
    operators: usize,
    units: usize,
    errors: u64,
    panics: u64,
    overruns: u64,
    quarantined_operators: u64,
}

struct OperatorSlot {
    /// Cached operator name: readable without taking the operator lock
    /// (overrun reporting must not block on a busy operator).
    name: String,
    operator: Mutex<Box<dyn Operator>>,
    /// The operator's unit count as of its last run (job operators
    /// rebuild their units every tick): listing reads it here and never
    /// waits for a computation holding the operator.
    units: AtomicUsize,
    /// Next due time in ns; 0 = run at the first tick.
    next_due: AtomicU64,
    /// The slot's failure detector: `Down` is quarantine.
    supervisor: Mutex<Supervisor>,
    metrics: SlotMetrics,
}

struct LoadedPlugin {
    config: PluginConfig,
    operators: Vec<OperatorSlot>,
    running: AtomicBool,
}

/// How one due slot resolved inside a tick. The `quarantined` field
/// carries the operator name when this failure pushed it into
/// quarantine.
enum SlotOutcome {
    Quarantined,
    Success {
        outputs: Vec<Output>,
    },
    Error {
        message: String,
        quarantined: Option<String>,
    },
    Panic {
        message: String,
        quarantined: Option<String>,
    },
    Overrun,
}

/// Summary of one tick. Every due event resolves to exactly one
/// outcome: `operators_run == successes + errors.len() + panics.len()
/// + overruns + quarantined_skips`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Due operator events processed this tick (all outcomes).
    pub operators_run: usize,
    /// Computations that completed successfully.
    pub successes: usize,
    /// Output readings published.
    pub outputs_published: usize,
    /// What each successful computation published, one `Vec` per run
    /// in tick order: the host forwards them (a Pusher sends them to
    /// its Collect Agent).
    pub outputs: Vec<Vec<Output>>,
    /// Per-operator errors (tick continues past failures).
    pub errors: Vec<String>,
    /// Per-operator contained panics (the tick survives them).
    pub panics: Vec<String>,
    /// Due operators skipped because they were still computing.
    pub overruns: usize,
    /// Due operators skipped because they are quarantined.
    pub quarantined_skips: usize,
    /// Operators that entered quarantine during this tick.
    pub newly_quarantined: Vec<String>,
}

/// The manager. Typically owned inside a Pusher or Collect Agent and
/// shared as `Arc` with the REST router.
pub struct OperatorManager {
    registry: RwLock<HashMap<String, Box<dyn OperatorPlugin>>>,
    /// Loaded instances in load order, which is the order a tick runs
    /// them in: a pipeline's stages are loaded upstream first.
    plugins: RwLock<Vec<Arc<LoadedPlugin>>>,
    query: Arc<QueryEngine>,
    time_source: Box<dyn Fn() -> Timestamp + Send + Sync>,
    fault_policy: RwLock<FaultPolicy>,
    ticks: AtomicU64,
}

impl OperatorManager {
    /// Creates a manager over a query engine, using wall-clock time for
    /// REST-triggered computations.
    pub fn new(query: Arc<QueryEngine>) -> Arc<OperatorManager> {
        Self::with_time_source(query, Box::new(Timestamp::now))
    }

    /// Creates a manager with a custom time source (virtual clocks in
    /// simulation).
    pub fn with_time_source(
        query: Arc<QueryEngine>,
        time_source: Box<dyn Fn() -> Timestamp + Send + Sync>,
    ) -> Arc<OperatorManager> {
        Arc::new(OperatorManager {
            registry: RwLock::new(HashMap::new()),
            plugins: RwLock::new(Vec::new()),
            query,
            time_source,
            fault_policy: RwLock::new(FaultPolicy::default()),
            ticks: AtomicU64::new(0),
        })
    }

    /// The query engine the manager publishes into.
    pub fn query_engine(&self) -> &Arc<QueryEngine> {
        &self.query
    }

    /// Replaces the fault-isolation policy. Every loaded operator's
    /// failure detector restarts under it, so a quarantined operator
    /// resumes, and operators loaded later run under it too.
    pub fn set_fault_policy(&self, policy: FaultPolicy) {
        // Held across the rebuild, so concurrent calls leave every slot
        // under the policy that was set last.
        let mut current = self.fault_policy.write();
        *current = policy;
        for plugin in self.plugins.read().iter() {
            let supervision = policy.supervision(plugin.config.interval_ms().unwrap_or(0));
            for slot in &plugin.operators {
                *slot.supervisor.lock() = Supervisor::new(supervision);
            }
        }
    }

    /// The current fault-isolation policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        *self.fault_policy.read()
    }

    /// Ticks processed so far (any clock).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Registers a plugin factory; configurations with a matching
    /// `kind` can then be loaded.
    pub fn register_plugin(&self, plugin: Box<dyn OperatorPlugin>) {
        self.registry
            .write()
            .insert(plugin.kind().to_string(), plugin);
    }

    /// Loads (configures and starts) a plugin instance.
    pub fn load(&self, config: PluginConfig) -> Result<()> {
        if self.plugin(&config.name).is_ok() {
            return Err(DcdbError::InvalidState(format!(
                "plugin instance {:?} already loaded",
                config.name
            )));
        }
        let loaded = self.configure(config)?;
        self.plugins.write().push(Arc::new(loaded));
        Ok(())
    }

    /// The loaded instance called `name`.
    fn plugin(&self, name: &str) -> Result<Arc<LoadedPlugin>> {
        self.plugins
            .read()
            .iter()
            .find(|p| p.config.name == name)
            .map(Arc::clone)
            .ok_or_else(|| DcdbError::NotFound(format!("plugin {name:?}")))
    }

    fn configure(&self, config: PluginConfig) -> Result<LoadedPlugin> {
        let registry = self.registry.read();
        let factory = registry.get(&config.kind).ok_or_else(|| {
            DcdbError::NotFound(format!("no registered plugin kind {:?}", config.kind))
        })?;
        let nav = self.query.navigator();
        let operators = factory.configure(&config, &nav)?;
        let supervision = self
            .fault_policy()
            .supervision(config.interval_ms().unwrap_or(0));
        Ok(LoadedPlugin {
            config,
            operators: operators
                .into_iter()
                .map(|op| OperatorSlot {
                    name: op.name().to_string(),
                    units: AtomicUsize::new(op.units().len()),
                    operator: Mutex::new(op),
                    next_due: AtomicU64::new(0),
                    supervisor: Mutex::new(Supervisor::new(supervision)),
                    metrics: SlotMetrics::default(),
                })
                .collect(),
            running: AtomicBool::new(true),
        })
    }

    /// Unloads a plugin instance entirely.
    pub fn unload(&self, name: &str) -> Result<()> {
        let mut plugins = self.plugins.write();
        let at = plugins
            .iter()
            .position(|p| p.config.name == name)
            .ok_or_else(|| DcdbError::NotFound(format!("plugin {name:?}")))?;
        plugins.remove(at);
        Ok(())
    }

    /// Pauses an instance's online computation.
    pub fn stop(&self, name: &str) -> Result<()> {
        self.set_running(name, false)
    }

    /// Resumes an instance's online computation. Also clears any
    /// quarantine and re-arms every slot to run at the next tick — the
    /// REST way (`PUT /analytics/plugins/:name/start`) to resume a
    /// quarantined operator before its next probe.
    pub fn start(&self, name: &str) -> Result<()> {
        let plugin = self.plugin(name)?;
        plugin.running.store(true, Ordering::Release);
        for slot in &plugin.operators {
            slot.supervisor.lock().reset();
            slot.next_due.store(0, Ordering::Release);
        }
        Ok(())
    }

    fn set_running(&self, name: &str, running: bool) -> Result<()> {
        self.plugin(name)?.running.store(running, Ordering::Release);
        Ok(())
    }

    /// Re-runs a plugin's configurator against the *current* sensor
    /// tree — the dynamic-reconfiguration path of the REST API. The
    /// instance keeps its place in the tick order.
    pub fn reload(&self, name: &str) -> Result<()> {
        let reloaded = Arc::new(self.configure(self.plugin(name)?.config.clone())?);
        let mut plugins = self.plugins.write();
        match plugins.iter_mut().find(|p| p.config.name == name) {
            Some(plugin) => *plugin = reloaded,
            // Unloaded while it was being configured: as a fresh load.
            None => plugins.push(reloaded),
        }
        Ok(())
    }

    /// True if the named instance is loaded and running.
    pub fn is_running(&self, name: &str) -> bool {
        self.plugin(name)
            .map(|p| p.running.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// `(name, kind, running, operators, units)` for every instance,
    /// sorted by name; `units` as of each operator's last run.
    pub fn list(&self) -> Vec<(String, String, bool, usize, usize)> {
        let plugins = self.plugins.read();
        let mut out: Vec<_> = plugins
            .iter()
            .map(|p| {
                let units = p
                    .operators
                    .iter()
                    .map(|s| s.units.load(Ordering::Relaxed))
                    .sum();
                (
                    p.config.name.clone(),
                    p.config.kind.clone(),
                    p.running.load(Ordering::Acquire),
                    p.operators.len(),
                    units,
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Runs every due online operator: due slots run one after another
    /// on the calling thread, plugins in load order, a plugin's
    /// operators in the order its configurator made them.
    ///
    /// The tick is fault-isolated: panics are caught and recorded,
    /// repeatedly failing operators are quarantined (skipped but for
    /// probes at exponential backoff), and operators still busy from a
    /// previous computation (another thread's tick, or an on-demand
    /// request) are skipped as overruns instead of blocking the tick.
    pub fn tick(&self, now: Timestamp) -> TickReport {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        let mut report = TickReport::default();
        // Snapshot due work without holding the plugin map lock during
        // computation.
        let mut due: Vec<(Arc<LoadedPlugin>, usize)> = Vec::new();
        {
            let plugins = self.plugins.read();
            for plugin in plugins.iter() {
                if !plugin.running.load(Ordering::Acquire) {
                    continue;
                }
                let Some(interval_ms) = plugin.config.interval_ms() else {
                    continue; // on-demand plugins never tick
                };
                let interval_ns = interval_ms.max(1) * 1_000_000;
                for (i, slot) in plugin.operators.iter().enumerate() {
                    let next = slot.next_due.load(Ordering::Acquire);
                    if next > now.as_nanos() {
                        continue;
                    }
                    // Schedule the next run; lagging operators skip
                    // missed intervals rather than bursting.
                    let mut new_next = if next == 0 { now.as_nanos() } else { next };
                    while new_next <= now.as_nanos() {
                        new_next += interval_ns;
                    }
                    slot.next_due.store(new_next, Ordering::Release);
                    due.push((Arc::clone(plugin), i));
                }
            }
        }

        report.operators_run += due.len();
        for (plugin, slot_idx) in &due {
            match self.run_slot(plugin, *slot_idx, now) {
                SlotOutcome::Success { outputs } => {
                    report.successes += 1;
                    report.outputs_published += outputs.len();
                    report.outputs.push(outputs);
                }
                SlotOutcome::Error {
                    message,
                    quarantined,
                } => {
                    report.newly_quarantined.extend(quarantined);
                    report.errors.push(message);
                }
                SlotOutcome::Panic {
                    message,
                    quarantined,
                } => {
                    report.newly_quarantined.extend(quarantined);
                    report.panics.push(message);
                }
                SlotOutcome::Overrun => report.overruns += 1,
                SlotOutcome::Quarantined => report.quarantined_skips += 1,
            }
        }
        report
    }

    /// Runs one due slot through the fault-isolation machinery:
    /// `try_lock` (overrun if busy), the supervisor's gate (a
    /// quarantined skip unless a probe is due), `catch_unwind` around
    /// the computation, latency recording and the outcome fed back.
    fn run_slot(&self, plugin: &LoadedPlugin, slot_idx: usize, now: Timestamp) -> SlotOutcome {
        let slot = &plugin.operators[slot_idx];
        slot.metrics.runs.fetch_add(1, Ordering::Relaxed);
        // A computation still running from a previous tick (or a long
        // on-demand request) holds the slot mutex; skip instead of
        // parking the tick until it finishes.
        let Some(mut op) = slot.operator.try_lock() else {
            slot.metrics.overruns.fetch_add(1, Ordering::Relaxed);
            return SlotOutcome::Overrun;
        };
        // Outcomes are fed only under the operator lock, so a slot that
        // was clean here needs no second supervisor lock to succeed.
        let clean = {
            let mut supervisor = slot.supervisor.lock();
            if !supervisor.attempt_due(now.as_nanos()) {
                slot.metrics
                    .quarantined_skips
                    .fetch_add(1, Ordering::Relaxed);
                return SlotOutcome::Quarantined;
            }
            supervisor.state() == ConnectionState::Up && supervisor.consecutive_failures() == 0
        };
        let ctx = ComputeContext::new(&self.query, now);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| compute_units(op.as_mut(), &ctx)));
        slot.metrics
            .record_latency(start.elapsed().as_nanos() as u64);
        slot.units.store(op.units().len(), Ordering::Relaxed);
        match result {
            Ok(Ok((outputs, ends))) => {
                if !clean {
                    slot.supervisor.lock().on_success(now.as_nanos());
                }
                slot.metrics.successes.fetch_add(1, Ordering::Relaxed);
                slot.metrics
                    .outputs
                    .fetch_add(outputs.len() as u64, Ordering::Relaxed);
                // Only now, with every unit done: a run that fails
                // publishes nothing.
                self.publish(op.units(), &outputs, &ends);
                SlotOutcome::Success { outputs }
            }
            Ok(Err(e)) => {
                slot.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let crossed = slot.supervisor.lock().on_failure(now.as_nanos());
                let quarantined = crossed.then(|| slot.name.clone());
                SlotOutcome::Error {
                    message: format!("{}: {e}", slot.name),
                    quarantined,
                }
            }
            Err(payload) => {
                slot.metrics.panics.fetch_add(1, Ordering::Relaxed);
                let crossed = slot.supervisor.lock().on_failure(now.as_nanos());
                let quarantined = crossed.then(|| slot.name.clone());
                SlotOutcome::Panic {
                    message: format!(
                        "{}: panicked: {}",
                        slot.name,
                        panic_message(payload.as_ref())
                    ),
                    quarantined,
                }
            }
        }
    }

    /// Publishes one run's outputs to the engine, counting them into
    /// the engine's `inserts` once. An output a unit returned under its
    /// own topic (a clone of its `outputs` entry, as every in-tree
    /// plugin returns) goes through the unit's bound handle; any other
    /// output is inserted by topic. `ends[i]` is where unit `i`'s
    /// outputs end; operator-level outputs follow.
    fn publish(&self, units: &[Unit], outputs: &[Output], ends: &[usize]) {
        let put = |unit: Option<&Unit>, (topic, reading): &Output| match unit
            .and_then(|unit| unit.output_handle(&self.query, topic))
        {
            Some(cache) => self.query.insert_bound(cache, topic, *reading),
            None => {
                let cache = self.query.bind_or_create(topic);
                self.query.insert_bound(&cache, topic, *reading);
            }
        };
        let mut start = 0;
        for (unit, &end) in units.iter().zip(ends) {
            outputs[start..end]
                .iter()
                .for_each(|output| put(Some(unit), output));
            start = end;
        }
        outputs[start..].iter().for_each(|output| put(None, output));
        self.query.add_inserts(outputs.len() as u64);
    }

    /// Per-plugin, per-operator runtime metric snapshots, sorted by
    /// instance name.
    pub fn operator_metrics(&self) -> Vec<PluginMetricsSnapshot> {
        let plugins = self.plugins.read();
        let mut out: Vec<PluginMetricsSnapshot> = plugins
            .iter()
            .map(|p| PluginMetricsSnapshot {
                name: p.config.name.clone(),
                kind: p.config.kind.clone(),
                status: p.running.load(Ordering::Acquire).into(),
                operators: p
                    .operators
                    .iter()
                    .map(|s| s.metrics.snapshot(&s.name, &s.supervisor.lock()))
                    .collect(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Aggregate runtime totals across every loaded operator.
    pub fn metrics_totals(&self) -> OperatorTotals {
        let plugins = self.operator_metrics();
        OperatorTotals::of(plugins.iter().flat_map(|p| &p.operators))
    }

    /// Full operator-runtime metrics as JSON — ticks, aggregate totals
    /// and per-plugin / per-operator counters, latencies (ns) and
    /// quarantine state. Hosts merge this into their `GET /metrics`.
    pub fn metrics_json(&self) -> serde_json::Value {
        let plugins = self.operator_metrics();
        serde_json::json!({
            "ticks": self.ticks(),
            "totals": OperatorTotals::of(plugins.iter().flat_map(|p| &p.operators)),
            "plugins": plugins,
        })
    }

    /// On-demand invocation (paper §IV-B b): computes the unit named
    /// `unit_topic` in plugin `name`, returning (not publishing) its
    /// outputs — "output data is propagated only as a response".
    pub fn on_demand(&self, name: &str, unit_topic: &Topic, now: Timestamp) -> Result<Vec<Output>> {
        let plugin = self.plugin(name)?;
        let ctx = ComputeContext::new(&self.query, now);
        // A refresh failure in one slot must not make units in later
        // slots unreachable: record it, keep searching (the slot's
        // existing unit set is still searchable), and fail only when
        // the unit is found nowhere.
        let mut refresh_errors: Vec<String> = Vec::new();
        for slot in &plugin.operators {
            let mut op = slot.operator.lock();
            if let Err(e) = op.refresh_units(&ctx) {
                refresh_errors.push(format!("{}: {e}", op.name()));
            }
            slot.units.store(op.units().len(), Ordering::Relaxed);
            let idx = op.units().iter().position(|u| &u.name == unit_topic);
            if let Some(idx) = idx {
                return op.compute(idx, &ctx);
            }
        }
        Err(DcdbError::NotFound(if refresh_errors.is_empty() {
            format!("unit {unit_topic} in plugin {name:?}")
        } else {
            format!(
                "unit {unit_topic} in plugin {name:?} (refresh errors: {})",
                refresh_errors.join("; ")
            )
        }))
    }

    /// Unit names of an instance (REST listing).
    pub fn units_of(&self, name: &str) -> Result<Vec<Topic>> {
        let plugin = self.plugin(name)?;
        let mut out = Vec::new();
        for slot in &plugin.operators {
            out.extend(slot.operator.lock().units().iter().map(|u| u.name.clone()));
        }
        Ok(out)
    }

    /// Mounts the ODA RESTful API onto a router (paper §V-A):
    ///
    /// * `GET  /analytics/plugins` — list instances;
    /// * `PUT  /analytics/plugins/:name/:action` — start / stop / reload;
    /// * `GET  /analytics/plugins/:name/units` — unit listing;
    /// * `GET  /analytics/compute/:name?unit=<topic>` — on-demand
    ///   computation, outputs returned as JSON.
    pub fn mount_routes(self: &Arc<Self>, router: &mut Router) {
        let mgr = Arc::clone(self);
        router.get("/analytics/plugins", move |_req| {
            let metrics = mgr.operator_metrics();
            let list: Vec<PluginListing> = mgr
                .list()
                .into_iter()
                .map(|(name, kind, running, operators, units)| {
                    let slots = metrics.iter().filter(|m| m.name == name);
                    let t = OperatorTotals::of(slots.flat_map(|m| &m.operators));
                    PluginListing {
                        name,
                        kind,
                        status: running.into(),
                        operators,
                        units,
                        errors: t.errors,
                        panics: t.panics,
                        overruns: t.overruns,
                        quarantined_operators: t.quarantined_operators,
                    }
                })
                .collect();
            Response::json(serde_json::json!(list).to_string())
        });

        let mgr = Arc::clone(self);
        router.route(
            Method::Put,
            "/analytics/plugins/:name/:action",
            move |req| {
                let name = req.path_param("name").unwrap_or_default();
                let action = req.path_param("action").unwrap_or_default();
                let result = match action {
                    "start" => mgr.start(name),
                    "stop" => mgr.stop(name),
                    "reload" => mgr.reload(name),
                    other => Err(DcdbError::Config(format!("unknown action {other:?}"))),
                };
                match result {
                    // Built with json! so an arbitrary echoed path
                    // segment can never produce malformed JSON.
                    Ok(()) => Response::json(
                        serde_json::json!({"ok": true, "action": action}).to_string(),
                    ),
                    Err(e @ DcdbError::NotFound(_)) => {
                        Response::error(Status::NotFound, e.to_string())
                    }
                    Err(e) => Response::error(Status::BadRequest, e.to_string()),
                }
            },
        );

        let mgr = Arc::clone(self);
        router.route(Method::Delete, "/analytics/plugins/:name", move |req| {
            let name = req.path_param("name").unwrap_or_default();
            match mgr.unload(name) {
                Ok(()) => Response::no_content(),
                Err(e) => Response::error(Status::NotFound, e.to_string()),
            }
        });

        let mgr = Arc::clone(self);
        router.get("/analytics/plugins/:name/units", move |req| {
            let name = req.path_param("name").unwrap_or_default();
            match mgr.units_of(name) {
                Ok(units) => {
                    let names: Vec<String> = units.iter().map(|u| u.as_str().to_string()).collect();
                    Response::json(serde_json::to_string(&names).unwrap_or_default())
                }
                Err(e) => Response::error(Status::NotFound, e.to_string()),
            }
        });

        let mgr = Arc::clone(self);
        router.get("/analytics/compute/:name", move |req| {
            let name = req.path_param("name").unwrap_or_default();
            let Some(unit_str) = req.query_param("unit") else {
                return Response::error(Status::BadRequest, "missing ?unit= parameter");
            };
            let Ok(unit_topic) = Topic::parse(unit_str) else {
                return Response::error(Status::BadRequest, "malformed unit topic");
            };
            let now = (mgr.time_source)();
            match mgr.on_demand(name, &unit_topic, now) {
                Ok(outputs) => {
                    let body: Vec<serde_json::Value> = outputs
                        .iter()
                        .map(|(t, r)| {
                            serde_json::json!({
                                "sensor": t.as_str(),
                                "value": r.value,
                                "timestamp": r.ts.as_nanos(),
                            })
                        })
                        .collect();
                    Response::json(serde_json::Value::Array(body).to_string())
                }
                Err(e @ DcdbError::NotFound(_)) => Response::error(Status::NotFound, e.to_string()),
                Err(e) => Response::error(Status::InternalError, e.to_string()),
            }
        });
    }
}

/// Best-effort human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::instantiate;
    use crate::tree::SensorNavigator;
    use crate::unit::Unit;
    use dcdb_common::reading::SensorReading;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// Test plugin: copies each unit's latest input to its output,
    /// multiplied by an option factor.
    struct ScalePlugin;

    struct ScaleOperator {
        name: String,
        units: Vec<Unit>,
        factor: i64,
    }

    impl Operator for ScaleOperator {
        fn name(&self) -> &str {
            &self.name
        }
        fn units(&self) -> &[Unit] {
            &self.units
        }
        fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
            let unit = &self.units[i];
            let latest = ctx
                .latest_value(&unit.inputs[0])
                .ok_or_else(|| DcdbError::NotFound(format!("no data: {}", unit.inputs[0])))?;
            Ok(vec![(
                unit.outputs[0].clone(),
                SensorReading::new(latest as i64 * self.factor, ctx.now),
            )])
        }
    }

    impl OperatorPlugin for ScalePlugin {
        fn kind(&self) -> &str {
            "scale"
        }
        fn configure(
            &self,
            config: &PluginConfig,
            nav: &SensorNavigator,
        ) -> Result<Vec<Box<dyn Operator>>> {
            let factor = config.options.u64_or("factor", 2) as i64;
            let resolution = config.resolve(nav)?;
            instantiate(config, resolution.units, |name, units| {
                Ok(Box::new(ScaleOperator {
                    name,
                    units,
                    factor,
                }) as Box<dyn Operator>)
            })
        }
    }

    fn manager_with_data() -> Arc<OperatorManager> {
        let qe = Arc::new(QueryEngine::new(32));
        for n in 0..3 {
            qe.insert(
                &t(&format!("/n{n}/power")),
                SensorReading::new(100 * (n as i64 + 1), Timestamp::from_secs(1)),
            );
        }
        qe.rebuild_navigator();
        let mgr = OperatorManager::with_time_source(qe, Box::new(|| Timestamp::from_secs(100)));
        mgr.register_plugin(Box::new(ScalePlugin));
        mgr
    }

    fn scale_config(name: &str, interval_ms: u64) -> PluginConfig {
        PluginConfig::online(name, "scale", interval_ms)
            .with_patterns(&["<topdown>power"], &["<topdown>power2"])
    }

    #[test]
    fn load_and_tick_publishes_outputs() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        let report = mgr.tick(Timestamp::from_secs(2));
        assert_eq!(report.operators_run, 1);
        assert_eq!(report.outputs_published, 3);
        assert!(report.errors.is_empty());
        // Outputs landed in the query engine (pipeline-visible).
        let got = mgr
            .query_engine()
            .query(&t("/n1/power2"), crate::query::QueryMode::Latest);
        assert_eq!(got[0].value, 400);
    }

    #[test]
    fn interval_gating() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 10_000)).unwrap();
        assert_eq!(mgr.tick(Timestamp::from_secs(1)).operators_run, 1);
        // Not due again within the interval.
        assert_eq!(mgr.tick(Timestamp::from_secs(5)).operators_run, 0);
        assert_eq!(mgr.tick(Timestamp::from_secs(12)).operators_run, 1);
    }

    #[test]
    fn stop_start_lifecycle() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        assert!(mgr.is_running("s1"));
        mgr.stop("s1").unwrap();
        assert!(!mgr.is_running("s1"));
        assert_eq!(mgr.tick(Timestamp::from_secs(2)).operators_run, 0);
        mgr.start("s1").unwrap();
        assert_eq!(mgr.tick(Timestamp::from_secs(3)).operators_run, 1);
        assert!(mgr.stop("ghost").is_err());
    }

    #[test]
    fn duplicate_and_unknown_loads_fail() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        assert!(mgr.load(scale_config("s1", 1000)).is_err());
        let bad = PluginConfig::online("x", "nope", 1000);
        assert!(mgr.load(bad).is_err());
    }

    #[test]
    fn parallel_unit_mode_spawns_per_unit_operators() {
        let mgr = manager_with_data();
        let cfg = scale_config("par", 1000).with_unit_mode(crate::operator::UnitMode::Parallel);
        mgr.load(cfg).unwrap();
        let list = mgr.list();
        assert_eq!(list.len(), 1);
        let (_, _, _, ops, units) = &list[0];
        assert_eq!(*ops, 3);
        assert_eq!(*units, 3);
        let report = mgr.tick(Timestamp::from_secs(2));
        assert_eq!(report.operators_run, 3);
        assert_eq!(report.outputs_published, 3);
    }

    #[test]
    fn reload_picks_up_new_sensors() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        assert_eq!(mgr.units_of("s1").unwrap().len(), 3);
        // A new node appears.
        mgr.query_engine().insert(
            &t("/n9/power"),
            SensorReading::new(900, Timestamp::from_secs(1)),
        );
        mgr.query_engine().rebuild_navigator();
        mgr.reload("s1").unwrap();
        assert_eq!(mgr.units_of("s1").unwrap().len(), 4);
    }

    #[test]
    fn on_demand_returns_without_publishing() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        let outputs = mgr
            .on_demand("s1", &t("/n0"), Timestamp::from_secs(50))
            .unwrap();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].1.value, 200);
        // Not published to the engine.
        assert!(mgr
            .query_engine()
            .query(&t("/n0/power2"), crate::query::QueryMode::Latest)
            .is_empty());
        assert!(mgr.on_demand("s1", &t("/ghost"), Timestamp::ZERO).is_err());
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mgr = manager_with_data();
        mgr.load(scale_config("good", 1000)).unwrap();
        // A plugin whose input sensor never gets data.
        let cfg = PluginConfig::online("bad", "scale", 1000)
            .with_patterns(&["<topdown>power"], &["<topdown>out"]);
        mgr.load(cfg).unwrap();
        // Make one unit's input disappear logically by pointing at an
        // empty engine: instead, drop data by using an impossible unit.
        // Simpler: both plugins read the same inputs, so force an error
        // by computing before any data exists for a *new* sensor.
        let report = mgr.tick(Timestamp::from_secs(2));
        // Both plugins actually succeed here; verify the report shape.
        assert_eq!(report.errors.len(), 0);
        assert_eq!(report.operators_run, 2);
    }

    #[test]
    fn tick_returns_what_each_run_published() {
        let mgr = manager_with_data();
        mgr.register_plugin(Box::new(PanicPlugin));
        mgr.load(scale_config("s1", 1000)).unwrap();
        mgr.load(
            PluginConfig::online("bad", "panic", 1000)
                .with_patterns(&["<topdown>power"], &["<topdown>boom"]),
        )
        .unwrap();
        mgr.load(scale_config("s2", 1000).with_option("factor", 3u64))
            .unwrap();
        let report = mgr.tick(Timestamp::from_secs(2));
        let now = Timestamp::from_secs(2);
        let run = |factor: i64| -> Vec<Output> {
            (0..3)
                .map(|n| {
                    let reading = SensorReading::new(100 * (n + 1) * factor, now);
                    (t(&format!("/n{n}/power2")), reading)
                })
                .collect()
        };
        // The panicking run in between returns nothing.
        assert_eq!(report.outputs, vec![run(2), run(3)]);
        assert_eq!(report.outputs_published, 6);
    }

    #[test]
    fn rest_routes_end_to_end() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        let mut router = Router::new();
        mgr.mount_routes(&mut router);

        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/analytics/plugins"));
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body_str().contains("\"s1\""));
        assert!(resp.body_str().contains("running"));

        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Put,
            "/analytics/plugins/s1/stop",
        ));
        assert_eq!(resp.status.code(), 200);
        assert!(!mgr.is_running("s1"));

        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Put,
            "/analytics/plugins/ghost/start",
        ));
        assert_eq!(resp.status.code(), 404);

        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/analytics/plugins/s1/units",
        ));
        assert!(resp.body_str().contains("/n0"));

        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/analytics/compute/s1?unit=/n2",
        ));
        assert_eq!(resp.status.code(), 200);
        assert!(
            resp.body_str().contains("\"value\":600"),
            "{}",
            resp.body_str()
        );

        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/analytics/compute/s1",
        ));
        assert_eq!(resp.status.code(), 400);
    }

    /// Test plugin whose operator panics on every computation.
    struct PanicPlugin;

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
        fn compute(&mut self, _i: usize, _ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
            panic!("injected operator panic");
        }
    }

    impl OperatorPlugin for PanicPlugin {
        fn kind(&self) -> &str {
            "panic"
        }
        fn configure(
            &self,
            config: &PluginConfig,
            nav: &SensorNavigator,
        ) -> Result<Vec<Box<dyn Operator>>> {
            let resolution = config.resolve(nav)?;
            instantiate(config, resolution.units, |_, units| {
                Ok(Box::new(PanicOperator { units }) as Box<dyn Operator>)
            })
        }
    }

    fn assert_accounting(report: &TickReport) {
        assert_eq!(
            report.operators_run,
            report.successes
                + report.errors.len()
                + report.panics.len()
                + report.overruns
                + report.quarantined_skips,
            "{report:?}"
        );
    }

    #[test]
    fn panicking_operator_is_contained_not_fatal() {
        let mgr = manager_with_data();
        mgr.register_plugin(Box::new(PanicPlugin));
        mgr.load(scale_config("good", 1000)).unwrap();
        mgr.load(
            PluginConfig::online("bad", "panic", 1000)
                .with_patterns(&["<topdown>power"], &["<topdown>boom"]),
        )
        .unwrap();
        let report = mgr.tick(Timestamp::from_secs(2));
        assert_eq!(report.operators_run, 2);
        assert_eq!(report.successes, 1);
        assert_eq!(report.panics.len(), 1);
        assert!(report.panics[0].contains("injected operator panic"));
        assert_eq!(report.outputs_published, 3);
        assert_accounting(&report);
        // The healthy plugin's outputs made it through.
        let got = mgr
            .query_engine()
            .query(&t("/n1/power2"), crate::query::QueryMode::Latest);
        assert_eq!(got[0].value, 400);
    }

    #[test]
    fn quarantine_engages_probes_with_backoff_and_resumes_via_start() {
        let mgr = manager_with_data();
        mgr.register_plugin(Box::new(PanicPlugin));
        mgr.set_fault_policy(FaultPolicy {
            quarantine_threshold: 2,
        });
        mgr.load(
            PluginConfig::online("bad", "panic", 1000)
                .with_patterns(&["<topdown>power"], &["<topdown>boom"]),
        )
        .unwrap();

        // Two consecutive panics cross the threshold.
        assert_eq!(mgr.tick(Timestamp::from_secs(1)).panics.len(), 1);
        let report = mgr.tick(Timestamp::from_secs(2));
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.newly_quarantined, vec!["boom".to_string()]);

        // Every due event is skipped but for the probes, 2 then 4
        // intervals apart; a failed probe is no new quarantine.
        let mut probes = Vec::new();
        for s in 3..=10 {
            let report = mgr.tick(Timestamp::from_secs(s));
            assert_accounting(&report);
            assert_eq!(report.operators_run, 1);
            assert!(report.newly_quarantined.is_empty());
            if !report.panics.is_empty() {
                probes.push(s);
            }
        }
        assert_eq!(probes, vec![4, 8]);

        let m = &mgr.operator_metrics()[0].operators[0];
        assert_eq!((m.runs, m.panics, m.quarantined_skips), (10, 4, 6));
        assert!(m.quarantined);
        assert_eq!(
            m.runs,
            m.successes + m.errors + m.panics + m.overruns + m.quarantined_skips
        );
        let totals = mgr.metrics_totals();
        assert_eq!(totals.quarantined_operators, 1);

        // PUT .../start semantics: quarantine cleared, slot re-armed.
        mgr.start("bad").unwrap();
        assert!(!mgr.operator_metrics()[0].operators[0].quarantined);
        let report = mgr.tick(Timestamp::from_secs(11));
        assert_eq!(report.panics.len(), 1, "resumed operator runs again");
        // One failure since resume: below the threshold of 2.
        let m = &mgr.operator_metrics()[0].operators[0];
        assert_eq!(m.consecutive_failures, 1);
        assert!(!m.quarantined);
    }

    /// A policy set after `load` governs the operators already loaded.
    #[test]
    fn a_fault_policy_set_after_load_applies_to_loaded_operators() {
        let mgr = manager_with_data();
        mgr.register_plugin(Box::new(PanicPlugin));
        mgr.load(
            PluginConfig::online("bad", "panic", 1000)
                .with_patterns(&["<topdown>power"], &["<topdown>boom"]),
        )
        .unwrap();
        for s in 1..=2 {
            assert!(mgr
                .tick(Timestamp::from_secs(s))
                .newly_quarantined
                .is_empty());
        }
        mgr.set_fault_policy(FaultPolicy {
            quarantine_threshold: 2,
        });
        let m = &mgr.operator_metrics()[0].operators[0];
        assert_eq!(m.consecutive_failures, 0, "restarted under the new policy");
        assert!(mgr
            .tick(Timestamp::from_secs(3))
            .newly_quarantined
            .is_empty());
        let report = mgr.tick(Timestamp::from_secs(4));
        assert_eq!(report.newly_quarantined, vec!["boom".to_string()]);
    }

    #[test]
    fn metrics_json_shape_and_latency() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        mgr.tick(Timestamp::from_secs(2));
        let v = mgr.metrics_json();
        assert_eq!(v.get("ticks").unwrap().as_u64(), Some(1));
        let totals = v.get("totals").unwrap();
        assert_eq!(totals.get("runs").unwrap().as_u64(), Some(1));
        assert_eq!(totals.get("successes").unwrap().as_u64(), Some(1));
        let plugins = v.get("plugins").unwrap().as_array().unwrap();
        let op = &plugins[0].get("operators").unwrap().as_array().unwrap()[0];
        assert_eq!(op.get("outputs").unwrap().as_u64(), Some(3));
        assert_eq!(op.get("quarantined").unwrap().as_bool(), Some(false));
        let last = op.get("last_latency_ns").unwrap().as_u64().unwrap();
        assert!(last > 0);
        assert!(op.get("ewma_latency_ns").unwrap().as_u64().unwrap() > 0);
        assert!(op.get("max_latency_ns").unwrap().as_u64().unwrap() >= last);
    }

    #[test]
    fn action_response_is_valid_json() {
        let mgr = manager_with_data();
        mgr.load(scale_config("s1", 1000)).unwrap();
        let mut router = Router::new();
        mgr.mount_routes(&mut router);
        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Put,
            "/analytics/plugins/s1/stop",
        ));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).expect("valid JSON");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("action").unwrap().as_str(), Some("stop"));
        // The plugin listing carries the fault summary fields.
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/analytics/plugins"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let first = &v.as_array().unwrap()[0];
        assert_eq!(
            first.get("quarantined_operators").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(first.get("panics").unwrap().as_u64(), Some(0));
    }

    /// Operator whose `refresh_units` fails; its pre-resolved units
    /// remain searchable.
    struct RefreshFailOperator {
        name: String,
        units: Vec<Unit>,
        fail_refresh: bool,
    }

    impl Operator for RefreshFailOperator {
        fn name(&self) -> &str {
            &self.name
        }
        fn units(&self) -> &[Unit] {
            &self.units
        }
        fn refresh_units(&mut self, _ctx: &ComputeContext<'_>) -> Result<()> {
            if self.fail_refresh {
                Err(DcdbError::InvalidState("refresh failed".into()))
            } else {
                Ok(())
            }
        }
        fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
            Ok(vec![(
                self.units[i].outputs[0].clone(),
                SensorReading::new(7, ctx.now),
            )])
        }
    }

    /// Splits its units across two slots; the first slot's operator
    /// always fails `refresh_units`.
    struct TwoSlotPlugin;

    impl OperatorPlugin for TwoSlotPlugin {
        fn kind(&self) -> &str {
            "twoslot"
        }
        fn configure(
            &self,
            config: &PluginConfig,
            nav: &SensorNavigator,
        ) -> Result<Vec<Box<dyn Operator>>> {
            let mut units = config.resolve(nav)?.units;
            let rest = units.split_off(1);
            Ok(vec![
                Box::new(RefreshFailOperator {
                    name: "front".into(),
                    units,
                    fail_refresh: true,
                }),
                Box::new(RefreshFailOperator {
                    name: "back".into(),
                    units: rest,
                    fail_refresh: false,
                }),
            ])
        }
    }

    #[test]
    fn on_demand_searches_past_refresh_errors() {
        // Regression: a refresh_units error in an earlier slot used to
        // abort the search, making units in later slots permanently
        // unreachable on demand.
        let mgr = manager_with_data();
        mgr.register_plugin(Box::new(TwoSlotPlugin));
        mgr.load(
            PluginConfig::online("ts", "twoslot", 1000)
                .with_patterns(&["<topdown>power"], &["<topdown>out"]),
        )
        .unwrap();
        // /n1 lives in the second slot, behind the failing first slot.
        let outputs = mgr
            .on_demand("ts", &t("/n1"), Timestamp::from_secs(50))
            .unwrap();
        assert_eq!(outputs[0].1.value, 7);
        // A unit found nowhere reports the refresh errors it saw.
        let err = mgr
            .on_demand("ts", &t("/ghost"), Timestamp::from_secs(50))
            .unwrap_err();
        assert!(err.to_string().contains("refresh errors"), "{err}");
        assert!(err.to_string().contains("refresh failed"), "{err}");
    }

    /// Regression: `plugins` was a `HashMap` and the tick walked its
    /// values, so whether a stage ran before or after the stage feeding
    /// it depended on the process's hash seed — and on each map's own
    /// seed, which is why fresh managers are enough to see it.
    #[test]
    fn pipeline_stages_run_in_load_order() {
        for fresh in 0..32 {
            let qe = Arc::new(QueryEngine::new(32));
            let tree = [t("/n0/power"), t("/n0/power2"), t("/n0/power22")];
            qe.set_navigator(SensorNavigator::build(&tree));
            let mgr = OperatorManager::new(Arc::clone(&qe));
            mgr.register_plugin(Box::new(ScalePlugin));
            // Unrelated instances around the two stages vary the map.
            for (name, input) in [
                ("zz-first", "power"),
                ("stage-1", "power"),
                ("aa-between", "power"),
                ("stage-2", "power2"),
            ] {
                let output = format!("<topdown>{input}2");
                let input = format!("<topdown>{input}");
                let config = PluginConfig::online(name, "scale", 1000);
                mgr.load(config.with_patterns(&[&input], &[&output]))
                    .unwrap();
            }
            // A reload keeps the stage's place.
            mgr.reload("stage-1").unwrap();
            for k in 1..=3u64 {
                let now = Timestamp::from_secs(k);
                qe.insert(&t("/n0/power"), SensorReading::new(k as i64, now));
                let report = mgr.tick(now);
                assert!(report.errors.is_empty(), "{fresh}: {:?}", report.errors);
                let got = qe.query(&t("/n0/power22"), crate::query::QueryMode::Latest);
                assert_eq!(got, vec![SensorReading::new(4 * k as i64, now)], "{fresh}");
            }
        }
    }

    /// Parks inside `compute` until released.
    struct ParkedOperator {
        units: Vec<Unit>,
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl Operator for ParkedOperator {
        fn name(&self) -> &str {
            "parked"
        }
        fn units(&self) -> &[Unit] {
            &self.units
        }
        fn compute(&mut self, _i: usize, _ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
            self.entered.send(()).unwrap();
            self.release.recv().unwrap();
            Ok(Vec::new())
        }
    }

    struct ParkedPlugin(Mutex<Option<ParkedOperator>>);

    impl OperatorPlugin for ParkedPlugin {
        fn kind(&self) -> &str {
            "parked"
        }
        fn configure(
            &self,
            _: &PluginConfig,
            _: &SensorNavigator,
        ) -> Result<Vec<Box<dyn Operator>>> {
            let op = self.0.lock().take().expect("configured once");
            Ok(vec![Box::new(op)])
        }
    }

    /// Regression: `list()` locked every operator to count its units,
    /// so `GET /analytics/plugins` waited for a running computation.
    #[test]
    fn list_does_not_wait_for_a_running_computation() {
        use std::sync::mpsc;
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let mgr = manager_with_data();
        mgr.register_plugin(Box::new(ParkedPlugin(Mutex::new(Some(ParkedOperator {
            units: vec![Unit::new(t("/n0"), vec![], vec![t("/n0/out")])],
            entered: entered_tx,
            release: release_rx,
        })))));
        mgr.load(PluginConfig::online("busy", "parked", 1000))
            .unwrap();
        let ticker = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || mgr.tick(Timestamp::from_secs(2)))
        };
        // The operator is now inside `compute`, holding its slot.
        entered_rx.recv().unwrap();
        let (listed_tx, listed_rx) = mpsc::channel();
        let lister = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || listed_tx.send(mgr.list()).unwrap())
        };
        let listed = listed_rx.recv_timeout(std::time::Duration::from_secs(5));
        release_tx.send(()).unwrap();
        lister.join().unwrap();
        assert_eq!(ticker.join().unwrap().successes, 1);
        let listed = listed.expect("list() waited for the computation");
        assert_eq!(listed, vec![("busy".into(), "parked".into(), true, 1, 1)]);
    }
}
