//! `wintermute-sim` — a complete, live DCDB/Wintermute deployment over
//! the simulated cluster, driven on the wall clock.
//!
//! One process plays every role of the paper's Figure 3: per-node
//! Pushers with the production plugin set (perfevent / sysfs / procfs)
//! and in-band Wintermute operators, the MQTT-like broker, one or more
//! Collect Agents with storage and system-level operators, and the REST
//! control API on a real TCP port. Point `curl` at the printed address
//! while it runs.
//!
//! ```text
//! cargo run --release --bin wintermute-sim -- [--nodes N] [--duration SECS] [--port P]
//!     [--scenario NAME --seed S [--sim-scale tiny|small|large]] [--list-scenarios]
//!     [--agents N] [--vnodes N] [--replicas 1|2] [--shard-timeout-ms N]
//!     [--data-dir DIR] [--fsync always|batch|never] [--retention-secs N]
//!     [--sub-depth N] [--overflow drop-newest|drop-oldest]
//!     [--ingest-budget N] [--quarantine-threshold N]
//!     [--chaos-seed N] [--outage-ms N] [--drop-prob P]
//!     [--spool-depth N] [--reconnect-base-ms N]
//!     [--io-fault-seed N] [--enospc-after BYTES] [--eio-prob P]
//!     [--fsync-fail-prob P] [--io-latency-ms N]
//! ```
//!
//! Any other `--flag`, and a value a flag cannot parse, is a usage
//! error (exit status 2).
//!
//! Deterministic replay (`--scenario NAME --seed S`): instead of the
//! wall-clock deployment, run one named fault scenario from the
//! [`dcdb_sim`] harness entirely in virtual time and print its report —
//! trace witness, conservation-identity verdicts, SLO grades — as JSON.
//! The same `(scenario, seed, scale)` triple replays bit-identically
//! anywhere, so a failure seen in CI or a 1500-node soak is reproduced
//! exactly from three values. `--list-scenarios` prints the registry.
//! The process exits non-zero if any identity or SLO gate failed.
//!
//! Federation (`--agents N`, N > 1): the storage tier becomes a
//! [`FederatedAgent`] — N Collect Agents, each owning a shard of the
//! topic space on a consistent-hash ring (`--vnodes` virtual nodes per
//! agent). `--replicas 2` runs every shard as a primary/replica pair
//! with failover; `--shard-timeout-ms` caps how long the router waits
//! on any one shard; `GET /federation` shows the live shard map, roles,
//! replication lag and promotions. Every other flag means the same at
//! any `--agents N`: storage, chaos, the bus knobs, the status line,
//! the shutdown flush and the final report are written once over the
//! live agents (one at `--agents 1`). Two things differ, and only these
//! (ROADMAP item 6; one REST table and one front door wait on item 1):
//!
//! * the **front door** the Pushers publish to: the broker's handle at
//!   `--agents 1` (`Broker → CollectAgent`, as `pipeline-bench` composes
//!   it), else the federation, which routes each reading to the shard
//!   owning its topic;
//! * the **mounted route table**: [`CollectAgent::mount_routes`] at
//!   `--agents 1`, else the scatter-gather [`QueryRouter`]'s — `/sensors`
//!   and `/query` carry a partial-result envelope (`shards_total ==
//!   shards_ok + shards_timed_out + shards_down`), `/metrics` and
//!   `/health` aggregate per-shard state, and `/analytics/plugins*`
//!   actions apply on every shard.
//!
//! `--scenario shard_churn --seed S` (or `dcdb-sim`'s `sim_matrix` for
//! every scenario) is the deterministic driver for shard kills.
//!
//! Backpressure knobs (paper §V scalability): every subscription queue
//! of every agent's broker is bounded at `--sub-depth`; `--overflow`
//! picks which message a full queue sheds (QoS-0 default:
//! `drop-oldest`); a publish never waits for the subscriber.
//! `--ingest-budget` caps how many readings the Collect Agent drains
//! per tick so operators and storage maintenance are never starved: a
//! drain stops before the frame that would pass it, and takes a larger
//! frame alone. Live queue depths and drop counters are served at
//! `GET /metrics`.
//!
//! Fault isolation: every operator runs behind panic containment and is
//! quarantined (with exponential backoff) after `--quarantine-threshold`
//! consecutive failures; resume one with
//! `PUT /analytics/plugins/<name>/start`. The status line and
//! `GET /metrics` report per-operator runs / errors / panics / overruns
//! and quarantine state.
//!
//! Delivery resilience (chaos knobs): any of `--chaos-seed`,
//! `--outage-ms` or `--drop-prob` wraps the front door in a
//! deterministic fault-injecting [`ChaosBus`]. `--outage-ms N` injects
//! two seeded broker outages of up to N ms across the run;
//! `--drop-prob P` silently drops each published message with
//! probability P. Refused publishes land in each Pusher's bounded
//! store-and-forward spool (`--spool-depth` ticks, one entry per
//! refused tick, the oldest tick evicted when full; `--overflow`
//! governs only the bus queues) and are drained oldest-first once the
//! supervised connection reconnects (`--reconnect-base-ms` sets the
//! backoff base). The status line and `GET /metrics` show spool depth
//! and connection state.
//!
//! Storage I/O faults: any of `--io-fault-seed`,
//! `--enospc-after`, `--eio-prob`, `--fsync-fail-prob` or
//! `--io-latency-ms` routes every byte of each durable engine through
//! its own seeded fault-injecting [`FaultIo`] VFS, armed once the
//! engine has recovered — at startup, and when the federation restarts
//! a node. `--enospc-after N` makes the
//! virtual disk run out of space after N written bytes; `--eio-prob` /
//! `--fsync-fail-prob` inject per-operation I/O and fsync failures;
//! `--io-latency-ms` adds per-operation device latency (slept for, since
//! the sim runs on the wall clock). Watch the engine demote through
//! Healthy → Degraded → ReadOnly and heal on the status line, at
//! `GET /health` (503 once read-only) and under `storage.health` in
//! `GET /metrics`.
//!
//! Persistence: each engine is a [`DurableBackend`] journaling every
//! reading to a WAL before it is acknowledged and sealing compressed
//! segments — under `--data-dir DIR` (one subdirectory per node when
//! federated; on restart each engine recovers every acked insert and
//! prints a recovery report), otherwise on one in-memory disk that dies
//! with the process. `--fsync` picks the WAL sync policy (`batch`: a
//! background fsync after a drain that leaves 64 or more records
//! unsynced), and `--retention-secs` bounds how much history is kept.

use dcdb_wintermute::dcdb_bus::{
    Broker, BusConfig, ChaosBus, ChaosConfig, MessageBus, OverflowPolicy,
};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig, SimJobSource};
use dcdb_wintermute::dcdb_common::error::Result;
use dcdb_wintermute::dcdb_common::sim::derive_seed;
use dcdb_wintermute::dcdb_common::{Clock, ConnectionState, ReconnectConfig, Timestamp, Topic};
use dcdb_wintermute::dcdb_federation::{
    FederatedAgent, FederationConfig, QueryRouter, RouterConfig, DEFAULT_VNODES,
};
use dcdb_wintermute::dcdb_pusher::{
    standard_plugin_set, DeliveryConfig, Pusher, PusherConfig, PusherStats, SpoolConfig,
};
use dcdb_wintermute::dcdb_rest::{RestServer, Router};
use dcdb_wintermute::dcdb_storage::{
    DurableBackend, DurableConfig, FaultConfig, FaultIo, FsyncPolicy, MemIo, StdIo, StorageEngine,
    StorageHealthReport, StorageIo,
};
use dcdb_wintermute::sim_cluster::{ClusterConfig, ClusterSimulator, Topology};
use dcdb_wintermute::wintermute::manager::OperatorTotals;
use dcdb_wintermute::wintermute::prelude::*;
use dcdb_wintermute::wintermute_plugins::{self, perfmetrics::cpi_config};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--nodes",
    "--duration",
    "--port",
    "--scenario",
    "--seed",
    "--sim-scale",
    "--list-scenarios",
    "--agents",
    "--vnodes",
    "--replicas",
    "--shard-timeout-ms",
    "--data-dir",
    "--fsync",
    "--retention-secs",
    "--sub-depth",
    "--overflow",
    "--ingest-budget",
    "--quarantine-threshold",
    "--chaos-seed",
    "--outage-ms",
    "--drop-prob",
    "--spool-depth",
    "--reconnect-base-ms",
    "--io-fault-seed",
    "--enospc-after",
    "--eio-prob",
    "--fsync-fail-prob",
    "--io-latency-ms",
];

/// Prints `message` and exits with the usage-error status 2.
fn usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// The value following `name` on the command line, if present. A value
/// that does not parse is a usage error, never the default.
fn flag<T: std::str::FromStr>(name: &str) -> Option<T> {
    let mut from_name = std::env::args().skip_while(|a| a != name);
    let value = from_name.nth(1)?;
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => usage(&format!("malformed {name} value {value:?}")),
    }
}

/// A flag naming one of a fixed set of words (`expected`, `|`-joined);
/// any other word is a usage error.
fn choice<T>(name: &str, default: &str, expected: &str, parse: impl Fn(&str) -> Option<T>) -> T {
    let value = flag::<String>(name).unwrap_or_else(|| default.into());
    parse(&value).unwrap_or_else(|| usage(&format!("{name} must be {expected}, got {value:?}")))
}

fn arg(name: &str, default: u64) -> u64 {
    flag(name).unwrap_or(default)
}

/// One counter summed over the status line's per-pusher / per-agent snapshots.
fn total<T>(snapshots: &[T], counter: fn(&T) -> u64) -> u64 {
    snapshots.iter().map(counter).sum()
}

/// The storage/analytics tier behind the Pushers. `main` is written
/// once over [`Tier::agents`]; `front_door` and `mount_routes` are the
/// two things that differ between `--agents 1` and `--agents N`.
enum Tier {
    /// `Broker → CollectAgent`, composed as `pipeline-bench` composes it.
    Single {
        broker: Broker,
        agent: Arc<CollectAgent>,
    },
    Federated {
        fed: Arc<FederatedAgent>,
        router: Arc<QueryRouter>,
    },
}

impl Tier {
    // Forked until ROADMAP item 1 lets item 6 make `--agents 1` a ring of one.
    fn front_door(&self) -> Arc<dyn MessageBus> {
        match self {
            Tier::Single { broker, .. } => Arc::new(broker.handle()),
            Tier::Federated { fed, .. } => Arc::clone(fed) as Arc<dyn MessageBus>,
        }
    }

    // Forked until ROADMAP item 1 lets item 6 serve both from one REST table.
    fn mount_routes(&self, routes: &mut Router) {
        match self {
            Tier::Single { agent, .. } => agent.mount_routes(routes),
            Tier::Federated { router, .. } => router.mount_routes(routes),
        }
    }

    /// The live primaries with the prefix their log lines carry: one
    /// unprefixed entry at `--agents 1`.
    fn agents(&self) -> Vec<(String, Arc<CollectAgent>)> {
        match self {
            Tier::Single { agent, .. } => vec![(String::new(), Arc::clone(agent))],
            Tier::Federated { fed, .. } => fed
                .shards()
                .iter()
                .filter_map(|s| Some((format!("{}: ", s.id), s.agent()?)))
                .collect(),
        }
    }

    /// One tick of everything behind the front door.
    fn tick(&self, now: Timestamp) -> Vec<(String, TickReport)> {
        match self {
            Tier::Single { agent, .. } => vec![(String::new(), agent.tick(now))],
            Tier::Federated { fed, .. } => {
                let shards = fed.shards();
                let labelled = |(i, report): (usize, _)| (format!("{}: ", shards[i].id), report);
                fed.tick(now).into_iter().map(labelled).collect()
            }
        }
    }
}

/// `--scenario` / `--list-scenarios`: the deterministic replay mode.
/// Returns true when it handled the invocation (main should return).
fn scenario_mode() -> bool {
    use dcdb_wintermute::dcdb_sim::{find, run_scenario, Scale, SCENARIOS};

    if std::env::args().any(|a| a == "--list-scenarios") {
        println!("named fault scenarios (wintermute-sim --scenario <name> --seed <s>):");
        for s in SCENARIOS {
            println!("  {:<16} {}", s.name, s.summary);
        }
        return true;
    }
    let Some(name) = flag::<String>("--scenario") else {
        return false;
    };
    let Some(scenario) = find(&name) else {
        eprintln!("unknown scenario {name:?}; --list-scenarios prints the registry");
        std::process::exit(2);
    };
    let seed = arg("--seed", 0xD1CE);
    let scale = choice("--sim-scale", "small", "tiny|small|large", Scale::parse);
    let report = run_scenario(scenario, seed, scale);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    eprintln!(
        "scenario {name} seed {seed:#x} scale {}: witness {} — {}",
        scale.as_str(),
        report.trace_hash,
        if report.ok { "OK" } else { "FAILED" },
    );
    if !report.ok {
        std::process::exit(1);
    }
    true
}

fn main() {
    if let Some(unknown) = std::env::args()
        .skip(1)
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("unknown flag {unknown}; flags: {}", FLAGS.join(" "));
        std::process::exit(2);
    }
    if scenario_mode() {
        return;
    }
    let nodes = arg("--nodes", 4) as usize;
    let duration_s = arg("--duration", 30);
    let port = arg("--port", 0);
    let agents_n = arg("--agents", 1).max(1) as usize;
    let data_dir = flag::<PathBuf>("--data-dir");
    let fault_policy = FaultPolicy {
        quarantine_threshold: arg(
            "--quarantine-threshold",
            FaultPolicy::default().quarantine_threshold,
        )
        .max(1),
    };
    let agent_config = CollectAgentConfig {
        ingest_budget: arg(
            "--ingest-budget",
            CollectAgentConfig::default().ingest_budget as u64,
        )
        .max(1) as usize,
        ..CollectAgentConfig::default()
    };

    // --- The simulated system with background workload. ---
    let sim = Arc::new(Mutex::new(ClusterSimulator::new(ClusterConfig {
        topology: Topology::new(1, nodes, 8),
        seed: 0x51D,
        auto_workload: true,
    })));

    // --- One clock: the loop below advances it to wall time every tick;
    // the fault layers and the federation read it. ---
    let clock = Clock::new();

    // --- Storage: one opener for every engine of either tier. ---
    let durable_config = DurableConfig {
        fsync: choice("--fsync", "batch", "always|batch|never", |v| {
            FsyncPolicy::parse(v).ok()
        }),
        retention_ns: flag::<u64>("--retention-secs").map(|s| s * 1_000_000_000),
        ..DurableConfig::default()
    };
    // Optional seeded storage I/O fault injection: ENOSPC / EIO / fsync
    // failures / device latency exercise the engines' health state
    // machine on a live deployment.
    let io_faults = {
        let seed = flag::<u64>("--io-fault-seed");
        let cfg = FaultConfig {
            enospc_after_bytes: flag::<u64>("--enospc-after"),
            eio_prob: flag::<f64>("--eio-prob").unwrap_or(0.0).clamp(0.0, 1.0),
            fsync_fail_prob: flag::<f64>("--fsync-fail-prob")
                .unwrap_or(0.0)
                .clamp(0.0, 1.0),
            latency_ns: arg("--io-latency-ms", 0) * 1_000_000,
            sleep_on_latency: true,
            ..FaultConfig::quiet(seed.unwrap_or(0x10FA))
        };
        let requested = seed.is_some()
            || cfg.enospc_after_bytes.is_some()
            || cfg.eio_prob > 0.0
            || cfg.fsync_fail_prob > 0.0
            || cfg.latency_ns > 0;
        requested.then_some(cfg)
    };
    if let Some(cfg) = &io_faults {
        println!(
            "storage io faults: seed {:#x}, enospc-after {:?}, eio-prob {:.3}, \
             fsync-fail-prob {:.3}, latency {}ms",
            cfg.seed,
            cfg.enospc_after_bytes,
            cfg.eio_prob,
            cfg.fsync_fail_prob,
            cfg.latency_ns / 1_000_000,
        );
    }
    // `(node ordinal, node id) -> engine`. The single tier calls it once;
    // the federation keeps it as its storage factory, so a node it
    // restarts is opened, recovered and fault-armed the same way. The
    // disk is the real filesystem under `--data-dir`, otherwise one
    // in-memory disk for the whole process.
    let open_storage = {
        let clock = Arc::clone(&clock);
        let (disk, root): (Arc<dyn StorageIo>, _) = match data_dir.clone() {
            Some(dir) => (Arc::new(StdIo), dir),
            None => (Arc::new(MemIo::default()), PathBuf::from("/")),
        };
        move |ordinal: usize, node_id: &str| -> Result<Arc<dyn StorageEngine>> {
            let dir = match agents_n {
                1 => root.clone(),
                _ => root.join(node_id),
            };
            // Opened with the faults disarmed so startup recovery runs on
            // a clean disk; armed below for the live run.
            let fault_io = io_faults.map(|cfg| {
                let seed = derive_seed(cfg.seed, ordinal as u64);
                let io = FaultIo::new(
                    Arc::clone(&disk),
                    FaultConfig::quiet(seed),
                    Arc::clone(&clock),
                );
                (Arc::new(io), FaultConfig { seed, ..cfg })
            });
            let io: Arc<dyn StorageIo> = match &fault_io {
                Some((io, _)) => Arc::clone(io) as Arc<dyn StorageIo>,
                None => Arc::clone(&disk),
            };
            let db = Arc::new(DurableBackend::open_with(io, &dir, durable_config.clone())?);
            let rec = db.recovery();
            println!(
                "durable storage in {}: recovered {} segments ({} readings) + \
                 {} WAL files ({} batches, {} readings, {} torn tails)",
                dir.display(),
                rec.segments,
                rec.segment_readings,
                rec.wal_files,
                rec.wal_batches,
                rec.wal_readings,
                rec.torn_tails,
            );
            if let Some((io, cfg)) = fault_io {
                io.set_config(cfg);
                println!(
                    "storage io faults armed under {}: device seed {:#x}",
                    dir.display(),
                    cfg.seed
                );
            }
            Ok(db)
        }
    };

    // --- Transport + storage tier: one broker and agent, or the federation. ---
    let expected = "drop-newest|drop-oldest";
    let overflow = choice("--overflow", "drop-oldest", expected, OverflowPolicy::parse);
    let bus_config = BusConfig {
        sub_depth: arg("--sub-depth", BusConfig::default().sub_depth as u64).max(1) as usize,
        sub_policy: overflow,
    };
    let tier = if agents_n == 1 {
        let broker = Broker::with_config(bus_config);
        let storage = open_storage(0, &agent_config.agent_id).expect("open data dir");
        let agent = CollectAgent::new(agent_config, &broker.handle(), storage);
        Tier::Single {
            broker,
            agent: Arc::new(agent.expect("collect agent")),
        }
    } else {
        let fed = FederatedAgent::new_with(
            FederationConfig {
                agents: agents_n,
                vnodes: arg("--vnodes", DEFAULT_VNODES as u64).max(1) as usize,
                agent: agent_config,
                bus: bus_config,
                replication_factor: arg("--replicas", 1).clamp(1, 2) as usize,
            },
            Arc::clone(&clock),
            open_storage,
        );
        let fed = Arc::new(fed.expect("federation"));
        let router = Arc::new(QueryRouter::new(
            Arc::clone(&fed),
            RouterConfig {
                shard_timeout_ms: arg(
                    "--shard-timeout-ms",
                    RouterConfig::default().shard_timeout_ms,
                )
                .max(1),
            },
        ));
        Tier::Federated { fed, router }
    };
    let jobs: Arc<dyn JobDataSource> = Arc::new(SimJobSource::new(Arc::clone(&sim)));
    for (_, agent) in tier.agents() {
        agent.manager().set_fault_policy(fault_policy);
        wintermute_plugins::register_all(agent.manager(), Some(Arc::clone(&jobs)));
        agent
            .manager()
            .load(
                PluginConfig::online("persyst", "persyst", 2000).with_option("window_ms", 5000u64),
            )
            .expect("persyst loads");
    }

    // --- Optional deterministic fault injection on the pusher→agent path,
    // wrapped around whichever front door the Pushers publish to. ---
    let front_door = tier.front_door();
    let chaos_seed = flag::<u64>("--chaos-seed");
    let outage_ms = arg("--outage-ms", 0);
    let drop_prob = flag::<f64>("--drop-prob").unwrap_or(0.0).clamp(0.0, 1.0);
    let chaos = (chaos_seed.is_some() || outage_ms > 0 || drop_prob > 0.0).then(|| {
        let seed = chaos_seed.unwrap_or(0xC4A05);
        let mut cfg = ChaosConfig::quiet(seed);
        cfg.drop_prob = drop_prob;
        if outage_ms > 0 {
            // Two seeded outages of up to --outage-ms, placed within the
            // run and shifted onto the wall clock.
            let start_ns = Timestamp::now().as_nanos();
            let horizon_ns = duration_s.max(1) * 1_000_000_000;
            cfg.outages = ChaosConfig::seeded_outages(
                seed,
                horizon_ns,
                2,
                outage_ms * 1_000_000 / 2,
                outage_ms * 1_000_000,
            )
            .into_iter()
            .map(|(from, until)| (start_ns + from, start_ns + until))
            .collect();
        }
        println!(
            "chaos: seed {seed:#x}, drop-prob {:.3}, {} outage window(s)",
            cfg.drop_prob,
            cfg.outages.len()
        );
        ChaosBus::new(Arc::clone(&front_door), cfg, Arc::clone(&clock))
    });
    let pusher_bus: Arc<dyn MessageBus> = match &chaos {
        Some(chaos) => Arc::new(chaos.clone()),
        None => Arc::clone(&front_door),
    };

    // --- Per-node Pushers: production plugin set + in-band operators. ---
    let delivery = DeliveryConfig {
        reconnect: ReconnectConfig {
            base_ms: arg("--reconnect-base-ms", ReconnectConfig::default().base_ms).max(1),
            ..ReconnectConfig::default()
        },
        spool: SpoolConfig {
            depth: arg("--spool-depth", SpoolConfig::default().depth as u64) as usize,
        },
    };
    let mut pushers = Vec::new();
    for node in 0..nodes {
        let mut pusher = Pusher::with_bus(
            PusherConfig {
                sampling_interval_ms: 1000,
                cache_secs: 180,
                publish: true,
                delivery,
                plugin_fault: fault_policy,
            },
            Some(Arc::clone(&pusher_bus)),
        );
        for plugin in standard_plugin_set(Arc::clone(&sim), node) {
            pusher.add_monitoring_plugin(plugin);
        }
        pusher.refresh_sensor_tree();
        pusher.manager().set_fault_policy(fault_policy);
        wintermute_plugins::register_all(pusher.manager(), None);
        pusher
            .manager()
            .load(cpi_config("cpi", 1000).with_option("window_ms", 3000u64))
            .expect("perfmetrics loads");
        pushers.push(Arc::new(pusher));
    }

    // --- REST control plane. ---
    let mut routes = Router::new();
    tier.mount_routes(&mut routes);
    let server = RestServer::serve(&format!("127.0.0.1:{port}"), routes).expect("bind REST server");
    println!(
        "wintermute-sim: {nodes} nodes, {agents_n} Collect Agent(s), REST on http://{}",
        server.addr()
    );
    println!("try: curl http://{}/analytics/plugins", server.addr());
    println!("     curl http://{}/metrics", server.addr());
    if let Tier::Federated { .. } = &tier {
        println!("     curl http://{}/federation", server.addr());
    }
    println!();

    // --- Drive everything on the wall clock. ---
    let start = std::time::Instant::now();
    let mut last_status = 0u64;
    while start.elapsed().as_secs() < duration_s {
        let now = clock.advance_to(Timestamp::now());
        if let Some(chaos) = &chaos {
            chaos.advance(now);
        }
        for pusher in &pushers {
            if let Err(e) = pusher.tick(now) {
                eprintln!("pusher tick failed: {e}");
            }
        }
        for (prefix, report) in tier.tick(now) {
            report_operator_faults(&prefix, &report);
        }

        let elapsed = start.elapsed().as_secs();
        if elapsed > last_status && elapsed.is_multiple_of(5) {
            last_status = elapsed;
            let jobs_running = sim.lock().scheduler().running_at(now).len();
            // Delivery summary across all pushers: connection states,
            // total spool depth and losses.
            let mut state_counts = [0usize; 3];
            for state in pushers.iter().filter_map(|p| p.connection_state()) {
                state_counts[state as usize] += 1;
            }
            let delivery: Vec<PusherStats> = pushers.iter().map(|p| p.stats()).collect();
            // Totals over the live agents.
            let mut ingested = 0u64;
            let mut stored = 0usize;
            let mut backlog = 0usize;
            let mut ops: Vec<OperatorTotals> = Vec::new();
            let mut health: Vec<StorageHealthReport> = Vec::new();
            for (_, agent) in tier.agents() {
                ingested += agent.stats().readings;
                stored += agent.storage().stats().readings;
                backlog += agent.ingest_backlog();
                ops.push(agent.manager().metrics_totals());
                health.extend(agent.storage().health());
            }
            // Storage health segment: the worst engine's state over the
            // summed counters.
            let health_seg = match health.iter().map(|h| h.state).max_by_key(|s| *s as u8) {
                Some(worst) => format!(
                    ", storage {} (errs {}, retries {}, rotations {}, buffered {}, shed {})",
                    worst.as_str(),
                    total(&health, |h| h.write_errors),
                    total(&health, |h| h.write_retries),
                    total(&health, |h| h.wal_rotations),
                    total(&health, |h| h.buffered),
                    total(&health, |h| h.shed),
                ),
                None => String::new(),
            };
            let federation_seg = match &tier {
                Tier::Single { .. } => String::new(),
                Tier::Federated { fed, router } => {
                    let fs = fed.stats();
                    let rs = router.stats();
                    format!(
                        ", federation epoch {}: {}/{} shards up, routed {} (refused {}), \
                         rebalances {}, promotions {} (degraded {}), \
                         replication lag {} entries, router: {} queries ({} timeouts, {} \
                         marked down)",
                        fs.epoch,
                        fs.shards_up,
                        fs.shards_total,
                        fs.publishes,
                        fs.publishes_refused,
                        fs.rebalances,
                        fs.promotions,
                        fs.degraded_removals,
                        fs.replication_lag_entries,
                        rs.queries,
                        rs.shard_timeouts,
                        rs.marked_down,
                    )
                }
            };
            println!(
                "[{elapsed:>3}s] ingested {ingested} readings, {jobs_running} jobs running, \
                 storage holds {stored} readings, bus dropped {}, backlog {backlog}, \
                 delivery: {} up / {} degraded / {} down, spool {} (refused {}, dropped {}, \
                 reconnects {}), operators: {} runs ({} ok, {} err, {} panic, {} overrun, {} \
                 quarantined){health_seg}{federation_seg}",
                front_door.stats().dropped,
                state_counts[ConnectionState::Up as usize],
                state_counts[ConnectionState::Degraded as usize],
                state_counts[ConnectionState::Down as usize],
                total(&delivery, |s| s.spooled_pending),
                total(&delivery, |s| s.publish_errors),
                total(&delivery, |s| s.spool_dropped),
                total(&delivery, |s| s.reconnects),
                total(&ops, |t| t.runs),
                total(&ops, |t| t.successes),
                total(&ops, |t| t.errors),
                total(&ops, |t| t.panics),
                total(&ops, |t| t.overruns),
                total(&ops, |t| t.quarantined_operators),
            );
        }
        std::thread::sleep(Duration::from_millis(200));
    }

    // --- Graceful shutdown: make everything acked durable. ---
    let agents = tier.agents();
    let mut flushed = data_dir.is_some();
    for (prefix, agent) in &agents {
        if let Err(e) = agent.storage().flush() {
            eprintln!("{prefix}storage flush failed: {e}");
            flushed = false;
        }
    }
    if flushed {
        println!("\nflushed durable storage (memtable sealed, WAL synced)");
    }

    // --- Final report. ---
    println!("\nshutting down after {duration_s}s:");
    let example_cpi = Topic::parse("/rack00/node00/cpu00/cpi").unwrap();
    for (prefix, agent) in &agents {
        for (name, kind, running, ops, units) in agent.manager().list() {
            println!(
                "  {prefix}plugin {name} ({kind}): {} operators, {units} units, {}",
                ops,
                if running { "running" } else { "stopped" }
            );
        }
        let cpi = agent.query_engine().query(&example_cpi, QueryMode::Latest);
        if let Some(r) = cpi.first() {
            println!(
                "  {prefix}sample derived metric {example_cpi} = {:.2}",
                dcdb_wintermute::dcdb_common::decode_f64(r.value)
            );
        }
        println!("  {prefix}storage: {:?}", agent.storage().stats());
    }
    if let Tier::Federated { fed, router } = &tier {
        // One scatter-gather query through the router, envelope and all.
        let q = router.query_sensors(&example_cpi, Timestamp::ZERO, Timestamp::MAX);
        let fs = fed.stats();
        println!(
            "  federation: {}/{} shards up, {} promotions; router returned {} readings of \
             {example_cpi} ({}/{} shards answered)",
            fs.shards_up,
            fs.shards_total,
            fs.promotions,
            q.readings.len(),
            q.envelope.shards_ok,
            q.envelope.shards_total,
        );
    }
}

/// Prints operator-fault events from one tick (prefix identifies the
/// shard in federated mode).
fn report_operator_faults(prefix: &str, report: &TickReport) {
    if !report.errors.is_empty() {
        eprintln!("{prefix}operator errors: {:?}", report.errors);
    }
    if !report.panics.is_empty() {
        eprintln!("{prefix}operator panics (contained): {:?}", report.panics);
    }
    for name in &report.newly_quarantined {
        eprintln!(
            "{prefix}operator {name} quarantined after repeated failures; \
             resume with PUT /analytics/plugins/{name}/start"
        );
    }
}
