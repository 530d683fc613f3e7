//! The deterministic simulation harness: one seeded virtual-time event
//! scheduler drives every chaos layer of the stack at once.
//!
//! One [`SimClock`] is shared by the bus chaos layer, the storage fault
//! devices, the delivery supervisors and the shards' failure detectors;
//! one [`SimScheduler`] owns every discrete fault action (shard kills and
//! rejoins, island partitions and heals, thermal throttles,
//! query storms), all derived from the single run seed via per-lane
//! splitmix sub-seeds; and one [`EventTrace`] receives every injected
//! event and observed state transition, so the trace hash is a
//! determinism witness for the whole run: two runs of the same
//! `(scenario, seed, scale)` must produce byte-identical traces and
//! identical end-of-run counters.
//!
//! The harness publishes through the full production path — supervised
//! [`BusConnection`]s → [`ChaosBus`] → [`FederatedAgent`] → durable
//! shard storage on one in-memory disk (behind seeded fault devices when
//! the I/O lane is armed) — and asserts the stack's
//! conservation identities at the end: faults move readings between
//! accounting terms, they never make the books stop balancing. Then it
//! holds one final answer per topic against the [`Ledger`] of readings
//! the federation accepted: balanced books are not yet right answers.

use crate::ledger::{AnswerReport, Ledger};
use crate::operators::FaultyPlugin;
use crate::report::{CounterSummary, IdentityReport, ScenarioReport, SloReport};
use crate::scenario::{LaneSet, Scale, Scenario};
use dcdb_bus::{ChaosBus, ChaosConfig, MessageBus};
use dcdb_common::batch::ReadingBatch;
use dcdb_common::sim::{derive_seed, lanes, xorshift, EventTrace, SimClock, SimScheduler};
use dcdb_common::supervisor::ReconnectConfig;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_federation::{FederatedAgent, FederationConfig, QueryRouter, RouterConfig};
use dcdb_pusher::{BusConnection, DeliveryConfig};
use dcdb_storage::{
    DurableBackend, DurableConfig, FaultConfig, FaultIo, FsyncPolicy, HealthState, MemIo,
    StorageEngine, StorageIo,
};
use sim_cluster::{FacilityEventKind, FacilitySchedule, Topology};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use wintermute::prelude::{OperatorManager, PluginConfig, QueryEngine, QueryMode};

/// One discrete fault action owned by the virtual-time scheduler.
#[derive(Debug, Clone)]
enum SimAction {
    /// Honest-crash a shard's primary.
    Kill(usize),
    /// Bring a killed node back (new standby after a promotion).
    Rejoin(usize),
    /// Cut a topic prefix off the bus (island power loss).
    Partition(String),
    /// Restore a partitioned prefix.
    Heal(String),
    /// Start decimating an island's publish rate by `factor`.
    ThrottleStart {
        /// Island being throttled.
        island: usize,
        /// Publish every `factor`-th node only.
        factor: u64,
    },
    /// End an island's thermal throttle.
    ThrottleEnd {
        /// Island recovering.
        island: usize,
    },
    /// Flash-crowd query burst against the router.
    Storm {
        /// Queries in the burst.
        burst: usize,
        /// Seeded starting offset into the topic list.
        offset: usize,
    },
}

/// Folds a shard id into a lane seed so primary and replica journal
/// devices draw from distinct, stable streams.
fn device_seed(lane_seed: u64, id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    derive_seed(lane_seed, h)
}

/// Runs `scenario` at `scale` from the single `seed` and returns the
/// full report.
pub fn run_scenario(scenario: &Scenario, seed: u64, scale: Scale) -> ScenarioReport {
    let lanes_armed = scenario.lanes;
    let topology = scale.topology(&lanes_armed);
    let agents = scale.agents();
    let rounds = scale.rounds();
    let rm_ns = scale.round_ms() * 1_000_000;
    let horizon_ns = scale.horizon_ns();

    let clock = SimClock::new();
    let trace = EventTrace::new();

    // --- Storage tier: durable engines on the run's in-memory disk.
    let fed = build_federation(&lanes_armed, agents, seed, horizon_ns, &clock, &trace);
    // The shards' failure detectors probe on the shared timeline.
    fed.use_sim_clock(Arc::clone(&clock));
    fed.set_trace(trace.clone());

    // --- Query tier: scatter-gather router on the shared timeline.
    let router = QueryRouter::new(
        Arc::clone(&fed),
        RouterConfig {
            shard_timeout_ms: 5_000,
        },
    );

    // --- Transport chaos over the federation front door; the ledger
    // between them records what the federation accepted.
    let ledger = Arc::new(Ledger::over(Arc::clone(&fed) as Arc<dyn MessageBus>));
    let chaos = ChaosBus::over(
        Arc::clone(&ledger) as Arc<dyn MessageBus>,
        chaos_config(&lanes_armed, seed, horizon_ns, rm_ns),
        Arc::clone(&clock),
    );
    chaos.set_trace(trace.clone());

    // --- Delivery tier: one supervised connection per rack.
    let delivery_lane = derive_seed(seed, lanes::DELIVERY);
    let chaos_bus: Arc<dyn MessageBus> = Arc::new(chaos.clone());
    let mut connections: Vec<BusConnection> = (0..topology.racks)
        .map(|rack| {
            let mut conn = BusConnection::with_clock(
                Arc::clone(&chaos_bus),
                DeliveryConfig {
                    reconnect: ReconnectConfig {
                        seed: derive_seed(delivery_lane, rack as u64),
                        jitter: 0.0,
                        ..ReconnectConfig::default()
                    },
                    ..DeliveryConfig::default()
                },
                Arc::clone(&clock),
            );
            conn.set_trace(trace.clone(), &format!("rack{rack:02}"));
            conn
        })
        .collect();

    // --- Operator fault lane: a manager ticking on the shared clock.
    let manager = lanes_armed.operators.then(|| {
        let mgr_clock = Arc::clone(&clock);
        let mgr = OperatorManager::with_time_source(
            Arc::new(QueryEngine::new(64)),
            Box::new(move || mgr_clock.now()),
        );
        mgr.register_plugin(Box::new(FaultyPlugin {
            seed: derive_seed(seed, lanes::OPERATOR),
            operators: 4,
            panic_permille: 150,
            error_permille: 150,
        }));
        mgr.load(PluginConfig::online(
            "chaos",
            "chaos-faulty",
            scale.round_ms(),
        ))
        .expect("chaos plugin loads");
        mgr
    });

    // --- The event scheduler owns every discrete fault action.
    let mut sched: SimScheduler<SimAction> = SimScheduler::new();
    let shard_ids: Vec<String> = fed.shards().iter().map(|s| s.id.clone()).collect();
    plan_churn(&mut sched, &lanes_armed, seed, agents, rounds, rm_ns);
    plan_storms(&mut sched, &lanes_armed, seed, scale, rounds, rm_ns);
    plan_facility(
        &mut sched,
        &lanes_armed,
        &topology,
        seed,
        horizon_ns,
        agents,
    );

    // Per-node sensor topics, precomputed once.
    let topics: Vec<Topic> = topology
        .nodes()
        .map(|n| topology.node_topic(n).child("power").expect("valid topic"))
        .collect();

    // --- Drive the run in virtual time.
    let mut counters = CounterSummary::default();
    let mut envelopes_ok = true;
    let mut throttles: HashMap<usize, u64> = HashMap::new();
    let mut pending_rejoins: Vec<usize> = Vec::new();
    let mut last_promotions = vec![0u64; agents];
    let sub_ns = (rm_ns / topology.racks as u64).max(1);

    for round in 1..=rounds {
        let round_start = (round - 1) * rm_ns;
        for (rack, conn) in connections.iter_mut().enumerate() {
            let vns = round_start + (rack as u64 + 1) * sub_ns;
            chaos.advance(Timestamp(vns));
            for (at, action) in sched.pop_due(Timestamp(vns)) {
                apply_action(
                    at,
                    action,
                    &fed,
                    &chaos,
                    &router,
                    &ledger,
                    &shard_ids,
                    &topics,
                    &trace,
                    &mut throttles,
                    &mut pending_rejoins,
                    &mut counters,
                    &mut envelopes_ok,
                );
            }
            // This rack's fresh readings, decimated under a thermal
            // throttle, one single-reading batch per node topic so
            // readings and publish attempts stay unit-aligned.
            let mut fresh = Vec::with_capacity(topology.nodes_per_rack);
            for (node, topic) in topics
                .iter()
                .enumerate()
                .skip(rack * topology.nodes_per_rack)
                .take(topology.nodes_per_rack)
            {
                if let Some(factor) = throttles.get(&topology.island_of_node(node)) {
                    if !(node as u64).is_multiple_of(*factor) {
                        continue;
                    }
                }
                fresh.push((
                    topic.clone(),
                    ReadingBatch::from_columns(vec![vns], vec![round as i64]),
                ));
            }
            counters.offered += fresh.len() as u64;
            let out = conn.deliver(Timestamp(vns), fresh);
            counters.published += out.published;
            counters.delivery_final_errors += out.final_errors;
        }
        let round_end = round * rm_ns;
        chaos.advance(Timestamp(round_end));
        fed.process_pending();

        // Storage maintenance, as the daemon's tick runs it, from the
        // round the fault window lifts (a probe inside it would re-draw
        // the seeded fault stream): a ReadOnly engine has to probe and
        // rotate its way back before the run ends.
        if lanes_armed.io && round_end >= fault_window(horizon_ns).1 {
            for agent in fed.shards().iter().filter_map(|s| s.agent()) {
                let _ = agent.storage().maintain(Timestamp(round_end));
            }
        }

        // Retry rejoins that failed (e.g. recovery hit an injected I/O
        // fault) — the operator's move, replayed deterministically.
        for idx in std::mem::take(&mut pending_rejoins) {
            if fed.rejoin(&shard_ids[idx]) {
                counters.rejoins += 1;
                trace.record(
                    Timestamp(round_end),
                    "churn",
                    &format!("rejoin {} (retry)", shard_ids[idx]),
                );
            } else {
                pending_rejoins.push(idx);
            }
        }

        // Observe failover transitions at the round boundary.
        for (i, shard) in fed.shards().iter().enumerate() {
            let p = shard.promotions();
            if p > last_promotions[i] {
                trace.record(
                    Timestamp(round_end),
                    "churn",
                    &format!("promote {} ({})", shard.id, p),
                );
                last_promotions[i] = p;
            }
        }

        // Operator fault lane: one tick per round, outcomes traced.
        if let Some(mgr) = &manager {
            let report = mgr.tick(Timestamp(round_end));
            for name in &report.panics {
                trace.record(Timestamp(round_end), "operator", &format!("panic {name}"));
            }
            for err in &report.errors {
                trace.record(Timestamp(round_end), "operator", &format!("error {err}"));
            }
            for name in &report.newly_quarantined {
                trace.record(
                    Timestamp(round_end),
                    "operator",
                    &format!("quarantine {name}"),
                );
            }
        }

        // Routine probe: one scatter-gather query per round.
        let q = router.query_sensors(&topics[0], Timestamp::ZERO, Timestamp::MAX);
        envelopes_ok &= q.envelope.accounted();
        counters.queries += 1;
        if !q.envelope.complete() {
            counters.partial_queries += 1;
        }
    }

    // --- Drain and settle.
    let mut now_ns = horizon_ns + rm_ns;
    chaos.advance(Timestamp(now_ns));
    while fed.process_pending() > 0 {}
    // The witness covers the faulted horizon; what follows examines
    // the system the faults left behind.
    let witnessed = (trace.events(), trace.witness(), trace.tail());

    // --- Recover: every outage has lifted, so each connection must
    // reconnect and drain its spool within two backoff caps.
    let deadline_ns = now_ns + 2 * ReconnectConfig::default().cap_ms * 1_000_000;
    while now_ns < deadline_ns && connections.iter().any(|c| c.metrics().spool.depth > 0) {
        now_ns += rm_ns;
        chaos.advance(Timestamp(now_ns));
        for conn in connections.iter_mut() {
            let out = conn.deliver(Timestamp(now_ns), Vec::new());
            counters.published += out.published;
            counters.delivery_final_errors += out.final_errors;
        }
    }
    chaos.advance(Timestamp(now_ns + rm_ns));
    while fed.process_pending() > 0 {}
    for shard in fed.shards() {
        if let Some(agent) = shard.agent() {
            // Flush may legitimately fail on a shard still read-only
            // from injected faults; the health books cover it either way.
            let _ = agent.storage().flush();
        }
    }

    let report = finish(
        scenario,
        seed,
        scale,
        &topology,
        agents,
        rounds,
        &fed,
        &router,
        &ledger,
        &topics,
        &chaos,
        &connections,
        manager.as_deref(),
        witnessed,
        counters,
        envelopes_ok,
    );
    drop(connections);
    drop(router);
    report
}

/// The window the storage fault devices are armed in: the middle half
/// of the horizon, so opens run clean and engines get a quarter to heal.
fn fault_window(horizon_ns: u64) -> (u64, u64) {
    (horizon_ns / 4, horizon_ns * 3 / 4)
}

/// Builds the federation. The run owns one in-memory disk and each
/// node opens its durable engine at `/<node id>` on it, behind a
/// per-node seeded fault device when the I/O lane is armed. A kill drops
/// the engine and keeps the disk; a rejoin recovers from it.
fn build_federation(
    lanes_armed: &LaneSet,
    agents: usize,
    seed: u64,
    horizon_ns: u64,
    clock: &Arc<SimClock>,
    trace: &EventTrace,
) -> Arc<FederatedAgent> {
    let replication_factor = if lanes_armed.churn || lanes_armed.facility {
        2
    } else {
        1
    };
    let io_lane = derive_seed(seed, lanes::IO);
    let io_armed = lanes_armed.io;
    let disk = Arc::new(MemIo::default());
    let clock = Arc::clone(clock);
    let trace = trace.clone();
    Arc::new(
        FederatedAgent::new_with(
            FederationConfig {
                agents,
                replication_factor,
                ..FederationConfig::default()
            },
            move |_ordinal, id: &str| {
                let (io, fsync) = if io_armed {
                    // ENOSPC / EIO / torn-write / fsync-poison faults
                    // fire inside the fault window only.
                    let config = FaultConfig {
                        eio_prob: 0.015,
                        fsync_fail_prob: 0.03,
                        torn_write_prob: 0.01,
                        window_ns: Some(fault_window(horizon_ns)),
                        enospc_after_bytes: (id == "agent-00").then_some(8 * 1024),
                        ..FaultConfig::quiet(device_seed(io_lane, id))
                    };
                    let io = FaultIo::with_clock(
                        Arc::clone(&disk) as Arc<dyn StorageIo>,
                        config,
                        Arc::clone(&clock),
                    );
                    io.set_trace(trace.clone(), id);
                    (Arc::new(io) as Arc<dyn StorageIo>, FsyncPolicy::Always)
                } else {
                    (Arc::clone(&disk) as Arc<dyn StorageIo>, FsyncPolicy::Never)
                };
                let db = DurableBackend::open_with(
                    io,
                    &Path::new("/").join(id),
                    DurableConfig {
                        fsync,
                        ..DurableConfig::default()
                    },
                )?;
                Ok(Arc::new(db) as Arc<dyn StorageEngine>)
            },
        )
        .expect("federation builds"),
    )
}

/// The transport chaos schedule for the bus lane.
fn chaos_config(lanes_armed: &LaneSet, seed: u64, horizon_ns: u64, rm_ns: u64) -> ChaosConfig {
    let lane = derive_seed(seed, lanes::BUS);
    if !lanes_armed.bus {
        return ChaosConfig::quiet(lane);
    }
    ChaosConfig {
        drop_prob: 0.02,
        delay_ns: rm_ns / 4,
        outages: ChaosConfig::seeded_outages(lane, horizon_ns, 3, rm_ns, 3 * rm_ns),
        ..ChaosConfig::quiet(lane)
    }
}

/// Seeds the kill/rejoin churn schedule (lane 2): up to `agents / 2`
/// non-overlapping outages per agent, each 1–3 rounds long, always
/// rejoined before the run ends.
fn plan_churn(
    sched: &mut SimScheduler<SimAction>,
    lanes_armed: &LaneSet,
    seed: u64,
    agents: usize,
    rounds: u64,
    rm_ns: u64,
) {
    if !lanes_armed.churn {
        return;
    }
    let mut rng = derive_seed(seed, lanes::KILL);
    let mut busy: HashMap<usize, (u64, u64)> = HashMap::new();
    for _ in 0..(agents / 2).max(1) {
        let agent = (xorshift(&mut rng) % agents as u64) as usize;
        let span = rounds.saturating_sub(6).max(1);
        let start = 2 + xorshift(&mut rng) % span;
        let down = 1 + xorshift(&mut rng) % 3;
        let end = (start + down).min(rounds.saturating_sub(2).max(start + 1));
        if busy.contains_key(&agent) {
            continue; // one outage per agent keeps the plan legible
        }
        busy.insert(agent, (start, end));
        sched.schedule(Timestamp((start - 1) * rm_ns), SimAction::Kill(agent));
        sched.schedule(Timestamp((end - 1) * rm_ns), SimAction::Rejoin(agent));
    }
}

/// Seeds flash-crowd query storms (lane 4).
fn plan_storms(
    sched: &mut SimScheduler<SimAction>,
    lanes_armed: &LaneSet,
    seed: u64,
    scale: Scale,
    rounds: u64,
    rm_ns: u64,
) {
    if !lanes_armed.storm {
        return;
    }
    let mut rng = derive_seed(seed, lanes::STORM);
    let (bursts, base) = match scale {
        Scale::Tiny => (2u64, 8usize),
        Scale::Small => (3, 16),
        Scale::Large => (3, 32),
    };
    for _ in 0..bursts {
        let round = 1 + xorshift(&mut rng) % rounds;
        let burst = base + (xorshift(&mut rng) % base as u64) as usize;
        let offset = xorshift(&mut rng) as usize;
        sched.schedule(
            Timestamp((round - 1) * rm_ns),
            SimAction::Storm { burst, offset },
        );
    }
}

/// Translates the seeded facility schedule (lane 5) into concrete
/// actions: power outages partition the island's topic prefix, thermal
/// throttles decimate its publish rate, rolling restarts sweep
/// kill/rejoin through the island's agents.
fn plan_facility(
    sched: &mut SimScheduler<SimAction>,
    lanes_armed: &LaneSet,
    topology: &Topology,
    seed: u64,
    horizon_ns: u64,
    agents: usize,
) {
    if !lanes_armed.facility || topology.islands < 2 {
        return;
    }
    for event in FacilitySchedule::seeded(topology, seed, horizon_ns).events() {
        match event.kind {
            FacilityEventKind::PowerOutage => {
                let prefix = topology.island_topic(event.island).as_str().to_string();
                sched.schedule(
                    Timestamp(event.from_ns),
                    SimAction::Partition(prefix.clone()),
                );
                sched.schedule(Timestamp(event.until_ns), SimAction::Heal(prefix));
            }
            FacilityEventKind::ThermalThrottle => {
                sched.schedule(
                    Timestamp(event.from_ns),
                    SimAction::ThrottleStart {
                        island: event.island,
                        factor: event.factor.max(2),
                    },
                );
                sched.schedule(
                    Timestamp(event.until_ns),
                    SimAction::ThrottleEnd {
                        island: event.island,
                    },
                );
            }
            FacilityEventKind::RollingRestart => {
                // Agents are mapped to islands round-robin; restart each
                // of the island's agents in sequence across the window.
                let island_agents: Vec<usize> = (0..agents)
                    .filter(|a| a % topology.islands == event.island)
                    .collect();
                let steps = island_agents.len() as u64 + 1;
                let step = (event.until_ns - event.from_ns) / steps.max(1);
                for (j, agent) in island_agents.iter().enumerate() {
                    let at = event.from_ns + j as u64 * step;
                    sched.schedule(Timestamp(at), SimAction::Kill(*agent));
                    sched.schedule(Timestamp(at + step), SimAction::Rejoin(*agent));
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_action(
    at: Timestamp,
    action: SimAction,
    fed: &Arc<FederatedAgent>,
    chaos: &ChaosBus,
    router: &QueryRouter,
    ledger: &Ledger,
    shard_ids: &[String],
    topics: &[Topic],
    trace: &EventTrace,
    throttles: &mut HashMap<usize, u64>,
    pending_rejoins: &mut Vec<usize>,
    counters: &mut CounterSummary,
    envelopes_ok: &mut bool,
) {
    match action {
        SimAction::Kill(idx) => {
            let shard = &fed.shards()[idx];
            // A pair survives one node down: overlapping lanes never
            // take its last live node.
            if !shard.standby_alive() {
                trace.record(at, "churn", &format!("kill {} skipped", shard.id));
                return;
            }
            // Drain first: a kill lands on a round boundary of the
            // victim, so "accepted" always means "on an engine or on
            // the replication link the promotion drains" — never in a
            // broker queue that dies with the node.
            fed.process_pending();
            let Some(agent) = shard.agent() else { return };
            // What dies with the node: readings its engine shed and
            // only its cache still served — and its health books.
            for (topic, ts) in cache_only(agent.query_engine(), agent.storage()) {
                ledger.note_shed_at_kill(topic, ts.as_nanos());
                counters.lost_shed_at_kill += 1;
            }
            tally_health(counters, agent.storage().as_ref());
            if fed.kill(&shard.id) {
                counters.kills += 1;
                trace.record(at, "churn", &format!("kill {}", shard.id));
            }
        }
        SimAction::Rejoin(idx) => {
            if fed.rejoin(&shard_ids[idx]) {
                counters.rejoins += 1;
                trace.record(at, "churn", &format!("rejoin {}", shard_ids[idx]));
            } else if fed.shard(&shard_ids[idx]).is_some_and(|s| !s.is_up()) {
                pending_rejoins.push(idx);
            }
        }
        SimAction::Partition(prefix) => chaos.partition(&prefix),
        SimAction::Heal(prefix) => chaos.heal(&prefix),
        SimAction::ThrottleStart { island, factor } => {
            throttles.insert(island, factor);
            trace.record(
                at,
                "facility",
                &format!("throttle island{island} x{factor}"),
            );
        }
        SimAction::ThrottleEnd { island } => {
            if throttles.remove(&island).is_some() {
                trace.record(at, "facility", &format!("throttle-end island{island}"));
            }
        }
        SimAction::Storm { burst, offset } => {
            trace.record(at, "storm", &format!("burst {burst}"));
            for q in 0..burst {
                let topic = &topics[(offset + q * 7) % topics.len()];
                let result = router.query_sensors(topic, Timestamp::ZERO, Timestamp::MAX);
                *envelopes_ok &= result.envelope.accounted();
                counters.queries += 1;
                counters.storm_queries += 1;
                if !result.envelope.complete() {
                    counters.partial_queries += 1;
                }
            }
        }
    }
}

/// Readings `engine` serves for its cached topics that `storage` does
/// not hold: the engine refused them, the cache kept them.
fn cache_only(engine: &QueryEngine, storage: &Arc<dyn StorageEngine>) -> Vec<(Topic, Timestamp)> {
    let (t0, t1) = (Timestamp::ZERO, Timestamp::MAX);
    let mut only = Vec::new();
    for topic in engine.topics() {
        let stored: HashSet<_> = storage.query(&topic, t0, t1).iter().map(|r| r.ts).collect();
        let served = engine.query(&topic, QueryMode::Absolute { t0, t1 });
        only.extend(
            served
                .iter()
                .map(|r| r.ts)
                .filter(|ts| !stored.contains(ts))
                .map(|ts| (topic.clone(), ts)),
        );
    }
    only
}

/// Adds an engine's health books to the run's sums; false when it keeps
/// none or its own conservation identity is broken.
fn tally_health(counters: &mut CounterSummary, storage: &dyn StorageEngine) -> bool {
    let Some(h) = storage.health() else {
        return false;
    };
    counters.storage_ingested += h.ingested;
    counters.storage_durable += h.durable;
    counters.storage_buffered += h.buffered;
    counters.storage_shed += h.shed;
    h.conserved()
}

/// Collects end-of-run counters, checks every conservation identity,
/// grades the SLOs and assembles the report.
#[allow(clippy::too_many_arguments)]
fn finish(
    scenario: &Scenario,
    seed: u64,
    scale: Scale,
    topology: &Topology,
    agents: usize,
    rounds: u64,
    fed: &Arc<FederatedAgent>,
    router: &QueryRouter,
    ledger: &Ledger,
    topics: &[Topic],
    chaos: &ChaosBus,
    connections: &[BusConnection],
    manager: Option<&OperatorManager>,
    (trace_events, trace_hash, trace_tail): (u64, String, Vec<String>),
    mut counters: CounterSummary,
    envelopes_ok: bool,
) -> ScenarioReport {
    let chaos_m = chaos.metrics();
    counters.chaos_refused = chaos_m.refused_total();
    counters.chaos_dropped = chaos_m.dropped;
    counters.chaos_passed = chaos_m.passed;
    counters.chaos_released = chaos_m.released;

    let fed_stats = fed.stats();
    counters.fed_publishes = fed_stats.publishes;
    counters.fed_refused = fed_stats.publishes_refused;
    counters.degraded_removals = fed_stats.degraded_removals;
    counters.promotions = fed.shards().iter().map(|s| s.promotions()).sum();

    let mut spool_depth = 0u64;
    let mut spool_dropped = 0u64;
    for conn in connections {
        let m = conn.metrics();
        spool_depth += m.spool.depth as u64;
        spool_dropped += m.spool.dropped;
    }
    counters.spool_depth_end = spool_depth;
    counters.spool_dropped = spool_dropped;

    // Live primaries' books join those tallied at each kill; the sums
    // must balance too, and cover every reading a kill was charged with.
    let mut storage_ok = true;
    let mut storage_healed = true;
    for agent in fed.shards().iter().filter_map(|s| s.agent()) {
        storage_ok &= tally_health(&mut counters, agent.storage().as_ref());
        storage_healed &= agent
            .storage()
            .health()
            .is_some_and(|h| h.state != HealthState::ReadOnly && h.buffered == 0);
    }
    storage_ok &= counters.storage_ingested
        == counters.storage_durable + counters.storage_buffered + counters.storage_shed
        && counters.lost_shed_at_kill <= counters.storage_shed;

    let mut operators_ok = true;
    if let Some(mgr) = manager {
        let t = mgr.metrics_totals();
        counters.operator_runs = t.runs;
        counters.operator_panics = t.panics;
        counters.operator_errors = t.errors;
        counters.operator_quarantined = t.quarantined_operators;
        operators_ok =
            t.runs == t.successes + t.errors + t.panics + t.overruns + t.quarantined_skips;
    }

    // One final scatter-gather per topic, held against the ledger.
    let mut answers = AnswerReport::default();
    for topic in topics {
        let q = router.query_sensors(topic, Timestamp::ZERO, Timestamp::MAX);
        ledger.compare(topic, &q.readings, &mut answers);
    }

    let bus_stats = MessageBus::stats(fed.as_ref());
    let identities = IdentityReport {
        bus: bus_stats.published == bus_stats.delivered + bus_stats.dropped,
        delivery: counters.offered
            == counters.published
                + counters.spool_dropped
                + counters.spool_depth_end
                + counters.delivery_final_errors,
        chaos_chain: counters.chaos_passed + counters.chaos_released
            == counters.fed_publishes + counters.fed_refused,
        storage: storage_ok && counters.storage_ingested > 0,
        operators: operators_ok,
        envelopes: envelopes_ok,
        answers: answers.holds(),
    };

    let complete_query_ratio = if counters.queries == 0 {
        1.0
    } else {
        (counters.queries - counters.partial_queries) as f64 / counters.queries as f64
    };
    let drop_ratio = counters.chaos_dropped as f64 / counters.offered.max(1) as f64;
    let shed_ratio = counters.storage_shed as f64 / counters.fed_publishes.max(1) as f64;
    let failovers_resolved = fed_stats.shards_up == agents
        && counters.promotions == counters.kills
        && fed_stats.replication_lag_entries <= topology.total_nodes;
    let delivery_drained = counters.spool_depth_end == 0 && counters.delivery_final_errors == 0;
    let slo = SloReport {
        complete_query_ratio,
        drop_ratio,
        shed_ratio,
        failovers_resolved,
        storage_healed,
        delivery_drained,
        ok: complete_query_ratio >= 0.25
            && drop_ratio <= 0.25
            && shed_ratio <= 0.05
            && failovers_resolved
            && storage_healed
            && delivery_drained,
    };

    let ok = identities.all() && slo.ok;
    ScenarioReport {
        scenario: scenario.name.to_string(),
        seed,
        scale: scale.as_str().to_string(),
        nodes: topology.total_nodes,
        islands: topology.islands,
        agents,
        rounds,
        trace_events,
        trace_hash,
        trace_tail,
        identities,
        answers,
        counters,
        slo,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::find;

    fn run(name: &str, seed: u64) -> ScenarioReport {
        run_scenario(find(name).expect("known scenario"), seed, Scale::Tiny)
    }

    #[test]
    fn bus_outage_holds_identities_and_replays() {
        let a = run("bus_outage", 0xD1CE);
        assert!(a.identities.all(), "{a:#?}");
        assert!(
            a.counters.chaos_refused + a.counters.chaos_dropped > 0,
            "{a:#?}"
        );
        let b = run("bus_outage", 0xD1CE);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn shard_churn_promotes_and_recovers() {
        let a = run("shard_churn", 0xFA11);
        assert!(a.identities.all(), "{a:#?}");
        assert!(a.counters.kills > 0, "{a:#?}");
        assert!(a.slo.failovers_resolved, "{a:#?}");
    }

    #[test]
    fn storage_faults_keep_the_health_books_balanced() {
        let a = run("storage_faults", 0x10FA);
        assert!(a.identities.storage, "{a:#?}");
        assert!(a.identities.all(), "{a:#?}");
    }

    #[test]
    fn operator_faults_are_contained_and_accounted() {
        let a = run("operator_faults", 7);
        assert!(a.identities.operators, "{a:#?}");
        assert!(
            a.counters.operator_panics + a.counters.operator_errors > 0,
            "{a:#?}"
        );
    }

    #[test]
    fn compound_scenario_survives_every_lane_at_once() {
        let a = run("compound", 0xC0FFEE);
        assert!(a.identities.all(), "{a:#?}");
        let b = run("compound", 0xC0FFEE);
        assert_eq!(a.trace_hash, b.trace_hash, "compound replay diverged");
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run("compound", 1);
        let b = run("compound", 2);
        assert_ne!(a.trace_hash, b.trace_hash);
    }
}
