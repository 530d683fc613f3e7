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
//!     [--sub-depth N] [--overflow block|drop-newest|drop-oldest]
//!     [--ingest-budget N] [--quarantine-threshold N]
//!     [--chaos-seed N] [--outage-ms N] [--drop-prob P]
//!     [--spool-depth N] [--reconnect-base-ms N]
//!     [--io-fault-seed N] [--enospc-after BYTES] [--eio-prob P]
//!     [--fsync-fail-prob P] [--io-latency-ms N]
//! ```
//!
//! Any other `--flag` is a usage error (exit status 2).
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
//! agent). `--replicas 2` runs every shard as a primary/replica pair:
//! the primary streams its acked journal to a standby, failure
//! detection promotes the standby when the primary dies, and the
//! status line and `GET /federation` report per-shard roles,
//! replication lag, and promotions. Pushers publish *through the
//! federation*, which routes each reading to the shard owning its
//! topic, and the REST surface is
//! served by the scatter-gather [`QueryRouter`]: `/sensors` responses
//! carry a partial-result envelope (`shards_total == shards_ok +
//! shards_timed_out + shards_down`), `/metrics` and `/health` aggregate
//! per-shard state, and `GET /federation` shows the live shard map.
//! `--shard-timeout-ms` caps how long the router waits on any one
//! shard. In durable mode each shard journals under its own
//! subdirectory of `--data-dir`. The chaos and storage I/O-fault
//! knobs apply to single-agent runs only and are ignored
//! (with a warning) when `--agents` > 1 — `--scenario shard_churn
//! --seed S` (or `oda-bench sim_matrix` for every scenario) is the
//! chaos driver for the federated tier.
//!
//! Backpressure knobs (paper §V scalability): every subscription queue
//! of the broker is bounded at `--sub-depth`; `--overflow` picks what
//! happens when a queue is full (QoS-0 default: `drop-oldest`). `block`
//! parks the publisher until the subscriber pops, and this binary
//! drives Pushers and Collect Agent from one loop, so under `block`
//! `--sub-depth` must hold one tick's worth of messages.
//! `--ingest-budget` caps how many bus messages the Collect Agent
//! drains per tick so operators and storage maintenance are never
//! starved. Live queue depths and drop counters are served at
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
//! `--outage-ms` or `--drop-prob` routes the Pushers through a
//! deterministic fault-injecting [`ChaosBus`]. `--outage-ms N` injects
//! two seeded broker outages of up to N ms across the run;
//! `--drop-prob P` silently drops each published message with
//! probability P. Refused publishes land in each Pusher's bounded
//! store-and-forward spool (`--spool-depth` readings per topic,
//! `--overflow` policy) and are drained oldest-first once the
//! supervised connection reconnects (`--reconnect-base-ms` sets the
//! backoff base). The status line and `GET /metrics` show spool depth
//! and connection state.
//!
//! Storage I/O faults (durable mode only): any of `--io-fault-seed`,
//! `--enospc-after`, `--eio-prob`, `--fsync-fail-prob` or
//! `--io-latency-ms` routes every byte of the durable engine through a
//! seeded fault-injecting [`FaultIo`] VFS. `--enospc-after N` makes the
//! virtual disk run out of space after N written bytes; `--eio-prob` /
//! `--fsync-fail-prob` inject per-operation I/O and fsync failures;
//! `--io-latency-ms` adds per-operation device latency (slept for, since
//! the sim runs on the wall clock). Watch the engine demote through
//! Healthy → Degraded → ReadOnly and heal on the status line, at
//! `GET /health` (503 once read-only) and under `storage.health` in
//! `GET /metrics`.
//!
//! Persistence:
//!
//! * `--data-dir DIR` — durable mode: storage becomes a
//!   [`DurableBackend`] journaling every reading to a WAL before it is
//!   acknowledged and sealing compressed segments under `DIR` (one
//!   subdirectory per shard when federated). On restart the engine
//!   recovers every acked insert (a recovery report is printed).
//!   `--fsync` picks the WAL sync policy, and `--retention-secs`
//!   bounds how much history is kept on disk.

use dcdb_wintermute::dcdb_bus::{
    Broker, BusConfig, ChaosBus, ChaosConfig, MessageBus, OverflowPolicy,
};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig, SimJobSource};
use dcdb_wintermute::dcdb_common::{Timestamp, Topic};
use dcdb_wintermute::dcdb_federation::{
    FederatedAgent, FederationConfig, QueryRouter, ReplicationConfig, RouterConfig, DEFAULT_VNODES,
};
use dcdb_wintermute::dcdb_pusher::{
    standard_plugin_set, ConnectionState, DeliveryConfig, Pusher, PusherConfig, ReconnectConfig,
    SpoolConfig,
};
use dcdb_wintermute::dcdb_rest::{RestServer, Router};
use dcdb_wintermute::dcdb_storage::{
    DurableBackend, DurableConfig, FaultConfig, FaultIo, FsyncPolicy, StorageBackend,
    StorageEngine, StorageIo,
};
use dcdb_wintermute::sim_cluster::{ClusterConfig, ClusterSimulator, Topology};
use dcdb_wintermute::wintermute::manager::{BusSink, OperatorTotals};
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

fn arg(name: &str, default: u64) -> u64 {
    arg_str(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The storage/analytics tier behind the Pushers: one Collect Agent, or
/// a sharded federation behind a scatter-gather router.
enum Tier {
    Single {
        agent: Arc<CollectAgent>,
        storage: Arc<dyn StorageEngine>,
    },
    Federated {
        fed: Arc<FederatedAgent>,
        router: Arc<QueryRouter>,
    },
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
    let Some(name) = arg_str("--scenario") else {
        return false;
    };
    let Some(scenario) = find(&name) else {
        eprintln!("unknown scenario {name:?}; --list-scenarios prints the registry");
        std::process::exit(2);
    };
    let seed = arg("--seed", 0xD1CE);
    let scale_name = arg_str("--sim-scale").unwrap_or("small".into());
    let Some(scale) = Scale::parse(&scale_name) else {
        eprintln!("--sim-scale must be tiny|small|large, got {scale_name:?}");
        std::process::exit(2);
    };
    let report = run_scenario(scenario, seed, scale);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    eprintln!(
        "scenario {name} seed {seed:#x} scale {scale_name}: witness {} — {}",
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
    let vnodes = arg("--vnodes", DEFAULT_VNODES as u64).max(1) as usize;
    let replication_factor = arg("--replicas", 1).clamp(1, 2) as usize;
    let federated = agents_n > 1;
    let data_dir = arg_str("--data-dir").map(PathBuf::from);
    let fault_policy = FaultPolicy {
        quarantine_threshold: arg(
            "--quarantine-threshold",
            FaultPolicy::default().quarantine_threshold,
        )
        .max(1),
        ..FaultPolicy::default()
    };
    let ingest_budget = arg(
        "--ingest-budget",
        CollectAgentConfig::default().ingest_budget as u64,
    )
    .max(1) as usize;

    // --- The simulated system with background workload. ---
    let sim = Arc::new(Mutex::new(ClusterSimulator::new(ClusterConfig {
        topology: Topology::new(1, nodes, 8),
        seed: 0x51D,
        auto_workload: true,
    })));

    // --- Transport + storage tier: single broker, or the federation. ---
    let overflow = OverflowPolicy::parse(&arg_str("--overflow").unwrap_or("drop-oldest".into()))
        .expect("--overflow must be block|drop-newest|drop-oldest");
    // Optional deterministic fault injection on the pusher→agent path.
    let chaos_seed = arg_str("--chaos-seed").and_then(|v| v.parse::<u64>().ok());
    let outage_ms = arg("--outage-ms", 0);
    let drop_prob = arg_str("--drop-prob")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    let chaos_requested = chaos_seed.is_some() || outage_ms > 0 || drop_prob > 0.0;
    if federated && chaos_requested {
        eprintln!(
            "chaos knobs (--chaos-seed/--outage-ms/--drop-prob) apply to --agents 1 only; \
             ignoring (use --scenario shard_churn --seed S, or oda-bench sim_matrix, \
             for federated chaos)"
        );
    }

    // Durable-engine knobs, shared by both tiers.
    let fsync = FsyncPolicy::parse(&arg_str("--fsync").unwrap_or("batch".into()))
        .expect("--fsync must be always|batch|never");
    let durable_config = DurableConfig {
        fsync,
        retention_ns: arg_str("--retention-secs")
            .and_then(|v| v.parse::<u64>().ok())
            .map(|s| s * 1_000_000_000),
        ..DurableConfig::default()
    };

    let jobs: Arc<dyn JobDataSource> = Arc::new(SimJobSource::new(Arc::clone(&sim)));
    let mut chaos: Option<ChaosBus> = None;
    let mut broker: Option<Broker> = None;

    let (tier, pusher_bus): (Tier, Arc<dyn MessageBus>) = if federated {
        // --- Federated tier: N sharded Collect Agents + query router. ---
        let io_fault_requested = arg_str("--io-fault-seed").is_some()
            || arg_str("--enospc-after").is_some()
            || arg_str("--eio-prob").is_some()
            || arg_str("--fsync-fail-prob").is_some()
            || arg("--io-latency-ms", 0) > 0;
        if io_fault_requested && data_dir.is_some() {
            eprintln!("storage I/O fault knobs apply to --agents 1 only; ignoring");
        }
        let fed = Arc::new(
            FederatedAgent::new_with(
                FederationConfig {
                    agents: agents_n,
                    vnodes,
                    agent: CollectAgentConfig {
                        ingest_budget,
                        ..CollectAgentConfig::default()
                    },
                    replication: ReplicationConfig {
                        replication_factor,
                        ..ReplicationConfig::default()
                    },
                    ..FederationConfig::default()
                },
                {
                    // The federation keeps the factory for rejoins, so
                    // it owns its inputs.
                    let data_dir = data_dir.clone();
                    let durable_config = durable_config.clone();
                    move |_, id: &str| match &data_dir {
                        Some(dir) => {
                            let io: Arc<dyn StorageIo> =
                                Arc::new(dcdb_wintermute::dcdb_storage::StdIo);
                            let db = Arc::new(DurableBackend::open_with(
                                io,
                                &dir.join(id),
                                durable_config.clone(),
                            )?);
                            let rec = db.recovery();
                            println!(
                                "shard {id}: durable storage in {}, recovered {} segments \
                                 ({} readings) + {} WAL files ({} readings)",
                                dir.join(id).display(),
                                rec.segments,
                                rec.segment_readings,
                                rec.wal_files,
                                rec.wal_readings,
                            );
                            Ok(db as Arc<dyn StorageEngine>)
                        }
                        None => Ok(Arc::new(StorageBackend::new()) as Arc<dyn StorageEngine>),
                    }
                },
            )
            .expect("federation"),
        );
        for shard in fed.shards() {
            let agent = shard.agent().expect("shards start up");
            agent.manager().set_fault_policy(fault_policy);
            wintermute_plugins::register_all(agent.manager(), Some(Arc::clone(&jobs)));
            agent
                .manager()
                .load(
                    PluginConfig::online("persyst", "persyst", 2000)
                        .with_option("window_ms", 5000u64),
                )
                .expect("persyst loads");
        }
        let query_router = Arc::new(QueryRouter::new(
            Arc::clone(&fed),
            RouterConfig {
                shard_timeout_ms: arg(
                    "--shard-timeout-ms",
                    RouterConfig::default().shard_timeout_ms,
                )
                .max(1),
                ..RouterConfig::default()
            },
        ));
        let bus: Arc<dyn MessageBus> = Arc::clone(&fed) as Arc<dyn MessageBus>;
        (
            Tier::Federated {
                fed,
                router: query_router,
            },
            bus,
        )
    } else {
        // --- Single-agent tier (the pre-federation deployment). ---
        let b = Broker::with_config(BusConfig {
            sub_depth: arg("--sub-depth", BusConfig::default().sub_depth as u64).max(1) as usize,
            sub_policy: overflow,
        });
        chaos = if chaos_requested {
            let seed = chaos_seed.unwrap_or(0xC4A05);
            let mut cfg = ChaosConfig::quiet(seed);
            cfg.drop_prob = drop_prob.clamp(0.0, 1.0);
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
            Some(ChaosBus::new(b.handle(), cfg))
        } else {
            None
        };
        let bus: Arc<dyn MessageBus> = match &chaos {
            Some(chaos) => Arc::new(chaos.clone()),
            None => Arc::new(b.handle()),
        };

        // --- The storage tier: durable or plain volatile. ---
        let storage: Arc<dyn StorageEngine> = match &data_dir {
            Some(dir) => {
                // Optional seeded storage I/O fault injection: wrap the
                // real filesystem in the FaultIo VFS so ENOSPC / EIO /
                // fsync failures / device latency exercise the engine's
                // health state machine on a live deployment.
                let io_fault_seed = arg_str("--io-fault-seed").and_then(|v| v.parse::<u64>().ok());
                let enospc_after = arg_str("--enospc-after").and_then(|v| v.parse::<u64>().ok());
                let eio_prob = arg_str("--eio-prob")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0);
                let fsync_fail_prob = arg_str("--fsync-fail-prob")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0);
                let io_latency_ms = arg("--io-latency-ms", 0);
                let fault_io = if io_fault_seed.is_some()
                    || enospc_after.is_some()
                    || eio_prob > 0.0
                    || fsync_fail_prob > 0.0
                    || io_latency_ms > 0
                {
                    let seed = io_fault_seed.unwrap_or(0x10FA);
                    let cfg = FaultConfig {
                        enospc_after_bytes: enospc_after,
                        eio_prob: eio_prob.clamp(0.0, 1.0),
                        fsync_fail_prob: fsync_fail_prob.clamp(0.0, 1.0),
                        latency_ns: io_latency_ms * 1_000_000,
                        sleep_on_latency: true,
                        ..FaultConfig::quiet(seed)
                    };
                    println!(
                        "storage io faults: seed {seed:#x}, enospc-after {:?}, eio-prob {:.3}, \
                         fsync-fail-prob {:.3}, latency {io_latency_ms}ms",
                        enospc_after, cfg.eio_prob, cfg.fsync_fail_prob,
                    );
                    // Open with faults disarmed so startup recovery runs on the
                    // real filesystem, then arm them for the live run.
                    Some((Arc::new(FaultIo::std(FaultConfig::quiet(seed))), cfg))
                } else {
                    None
                };
                let io: Arc<dyn StorageIo> = match &fault_io {
                    Some((io, _)) => Arc::clone(io) as Arc<dyn StorageIo>,
                    None => Arc::new(dcdb_wintermute::dcdb_storage::StdIo),
                };
                let db = Arc::new(
                    DurableBackend::open_with(io, dir, durable_config).expect("open data dir"),
                );
                if let Some((io, cfg)) = &fault_io {
                    io.set_config(*cfg);
                }
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
                db
            }
            None => Arc::new(StorageBackend::new()),
        };

        // --- The Collect Agent: storage + job analytics + health. ---
        let agent = Arc::new(
            CollectAgent::new(
                CollectAgentConfig {
                    ingest_budget,
                    ..CollectAgentConfig::default()
                },
                &b.handle(),
                Arc::clone(&storage),
            )
            .expect("collect agent"),
        );
        agent.manager().set_fault_policy(fault_policy);
        wintermute_plugins::register_all(agent.manager(), Some(Arc::clone(&jobs)));
        agent
            .manager()
            .load(
                PluginConfig::online("persyst", "persyst", 2000).with_option("window_ms", 5000u64),
            )
            .expect("persyst loads");
        broker = Some(b);
        (Tier::Single { agent, storage }, bus)
    };

    // --- Per-node Pushers: production plugin set + in-band operators. ---
    let delivery = DeliveryConfig {
        reconnect: ReconnectConfig {
            base_ms: arg("--reconnect-base-ms", ReconnectConfig::default().base_ms).max(1),
            ..ReconnectConfig::default()
        },
        spool: SpoolConfig {
            per_topic_depth: arg(
                "--spool-depth",
                SpoolConfig::default().per_topic_depth as u64,
            ) as usize,
            policy: overflow,
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
        // Operator outputs ride the same (chaos-wrapped, or federated)
        // transport as the raw sensor data — a broker outage silences
        // the node's derived metrics too, so staleness tracking sees it.
        pusher
            .manager()
            .add_sink(Arc::new(BusSink::over(Arc::clone(&pusher_bus))));
        pusher
            .manager()
            .load(cpi_config("cpi", 1000).with_option("window_ms", 3000u64))
            .expect("perfmetrics loads");
        pushers.push(Arc::new(pusher));
    }

    // --- REST control plane. ---
    let mut router = Router::new();
    match &tier {
        Tier::Single { agent, .. } => agent.mount_routes(&mut router),
        Tier::Federated { router: rt, .. } => rt.mount_routes(&mut router),
    }
    let server = RestServer::serve(&format!("127.0.0.1:{port}"), router).expect("bind REST server");
    match &tier {
        Tier::Single { .. } => println!(
            "wintermute-sim: {nodes} nodes, REST on http://{}",
            server.addr()
        ),
        Tier::Federated { fed, .. } => println!(
            "wintermute-sim: {nodes} nodes, {agents_n} sharded agents \
             ({vnodes} vnodes each, replication factor {replication_factor}, epoch {}), \
             REST on http://{}",
            fed.shard_map().epoch,
            server.addr()
        ),
    }
    println!("try: curl http://{}/analytics/plugins", server.addr());
    println!("     curl http://{}/metrics", server.addr());
    if federated {
        println!("     curl http://{}/federation", server.addr());
    }
    println!();

    // --- Drive everything on the wall clock. ---
    let start = std::time::Instant::now();
    let mut last_status = 0u64;
    while start.elapsed().as_secs() < duration_s {
        let now = Timestamp::now();
        if let Some(chaos) = &chaos {
            chaos.advance(now);
        }
        for pusher in &pushers {
            if let Err(e) = pusher.tick(now) {
                eprintln!("pusher tick failed: {e}");
            }
        }
        match &tier {
            Tier::Single { agent, .. } => {
                let report = agent.tick(now);
                report_operator_faults("", &report);
            }
            Tier::Federated { fed, .. } => {
                for (index, report) in fed.tick(now) {
                    report_operator_faults(&format!("agent-{index:02}: "), &report);
                }
            }
        }

        let elapsed = start.elapsed().as_secs();
        if elapsed > last_status && elapsed.is_multiple_of(5) {
            last_status = elapsed;
            let jobs_running = sim.lock().scheduler().running_at(now).len();
            // Delivery summary across all pushers: connection states,
            // total spool depth and losses.
            let mut state_counts = [0usize; 3];
            let mut spool_depth = 0u64;
            let mut spool_dropped = 0u64;
            let mut refused = 0u64;
            let mut reconnects = 0u64;
            for pusher in &pushers {
                if let Some(state) = pusher.connection_state() {
                    state_counts[state.index()] += 1;
                }
                let s = pusher.stats();
                spool_depth += s.spooled_pending;
                spool_dropped += s.spool_dropped;
                refused += s.publish_errors;
                reconnects += s.reconnects;
            }
            let delivery_seg = format!(
                "delivery: {} up / {} degraded / {} down, spool {} (refused {}, dropped {}, \
                 reconnects {})",
                state_counts[ConnectionState::Up.index()],
                state_counts[ConnectionState::Degraded.index()],
                state_counts[ConnectionState::Down.index()],
                spool_depth,
                refused,
                spool_dropped,
                reconnects,
            );
            match &tier {
                Tier::Single { agent, storage } => {
                    let a = agent.stats();
                    let bus = broker.as_ref().expect("single tier keeps its broker");
                    let bus = bus.handle().stats();
                    let ops = agent.manager().metrics_totals();
                    // Storage health segment, present in durable mode only.
                    let health_seg = match storage.health() {
                        Some(h) => format!(
                            ", storage {} (errs {}, retries {}, rotations {}, buffered {}, shed {})",
                            h.state.as_str(),
                            h.write_errors,
                            h.write_retries,
                            h.wal_rotations,
                            h.buffered,
                            h.shed,
                        ),
                        None => String::new(),
                    };
                    println!(
                        "[{elapsed:>3}s] ingested {} readings, {jobs_running} jobs running, \
                         storage holds {} readings, bus dropped {}, backlog {}, \
                         {delivery_seg}, operators: {} runs ({} ok, {} err, {} panic, {} \
                         overrun, {} quarantined){health_seg}",
                        a.readings,
                        storage.stats().readings,
                        bus.dropped,
                        agent.ingest_backlog(),
                        ops.runs,
                        ops.successes,
                        ops.errors,
                        ops.panics,
                        ops.overruns,
                        ops.quarantined_operators,
                    );
                }
                Tier::Federated { fed, router } => {
                    let fs = fed.stats();
                    let rs = router.stats();
                    let bus = MessageBus::stats(fed.as_ref());
                    let mut ingested = 0u64;
                    let mut stored = 0usize;
                    let mut backlog = 0usize;
                    let mut ops = OperatorTotals::default();
                    for shard in fed.shards() {
                        let Some(agent) = shard.agent() else { continue };
                        let a = agent.stats();
                        ingested += a.readings;
                        stored += agent.storage().stats().readings;
                        backlog += agent.ingest_backlog();
                        let t = agent.manager().metrics_totals();
                        ops.runs += t.runs;
                        ops.successes += t.successes;
                        ops.errors += t.errors;
                        ops.panics += t.panics;
                        ops.overruns += t.overruns;
                        ops.quarantined_operators += t.quarantined_operators;
                    }
                    // Per-shard role summary: primary node + replication
                    // lag where a standby is wired.
                    let roles: Vec<String> = fed
                        .shards()
                        .iter()
                        .map(|s| match s.replication_stats() {
                            Some(r) => format!(
                                "{}={} (lag {} entries/{} ms)",
                                s.id,
                                s.primary_node_id(),
                                r.lag_entries,
                                r.lag_ms
                            ),
                            None => format!(
                                "{}={}",
                                s.id,
                                if s.is_up() {
                                    s.primary_node_id()
                                } else {
                                    "down"
                                }
                            ),
                        })
                        .collect();
                    println!(
                        "[{elapsed:>3}s] federation epoch {}: {}/{} shards up, ingested \
                         {ingested} readings, {jobs_running} jobs running, storage holds \
                         {stored} readings, bus dropped {}, backlog {backlog}, routed {} \
                         (refused {}), rebalances {} (drain timeouts {}), promotions {} \
                         (degraded {}), replication lag {} entries, roles [{}], router: {} \
                         queries ({} timeouts, {} marked down), {delivery_seg}, operators: \
                         {} runs ({} ok, {} err, {} panic, {} overrun, {} quarantined)",
                        fs.epoch,
                        fs.shards_up,
                        fs.shards_total,
                        bus.dropped,
                        fs.publishes,
                        fs.publishes_refused,
                        fs.rebalances,
                        fs.drains_timed_out,
                        fs.promotions,
                        fs.degraded_removals,
                        fs.replication_lag_entries,
                        roles.join(", "),
                        rs.queries,
                        rs.shard_timeouts,
                        rs.marked_down,
                        ops.runs,
                        ops.successes,
                        ops.errors,
                        ops.panics,
                        ops.overruns,
                        ops.quarantined_operators,
                    );
                }
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    }

    // --- Graceful shutdown: make everything acked durable. ---
    match &tier {
        Tier::Single { storage, .. } => match storage.flush() {
            Ok(()) => {
                if data_dir.is_some() {
                    println!("\nflushed durable storage (memtable sealed, WAL synced)");
                }
            }
            Err(e) => eprintln!("storage flush failed: {e}"),
        },
        Tier::Federated { fed, .. } => {
            for shard in fed.shards() {
                let Some(agent) = shard.agent() else { continue };
                if let Err(e) = agent.storage().flush() {
                    eprintln!("shard {} storage flush failed: {e}", shard.id);
                }
            }
            if data_dir.is_some() {
                println!("\nflushed durable storage on every shard");
            }
        }
    }

    // --- Final report. ---
    println!("\nshutting down after {duration_s}s:");
    let example_cpi = Topic::parse("/rack00/node00/cpu00/cpi").unwrap();
    match &tier {
        Tier::Single { agent, storage } => {
            for (name, kind, running, ops, units) in agent.manager().list() {
                println!(
                    "  plugin {name} ({kind}): {} operators, {units} units, {}",
                    ops,
                    if running { "running" } else { "stopped" }
                );
            }
            let cpi = agent.query_engine().query(&example_cpi, QueryMode::Latest);
            if let Some(r) = cpi.first() {
                println!(
                    "  sample derived metric {example_cpi} = {:.2}",
                    dcdb_wintermute::dcdb_common::decode_f64(r.value)
                );
            }
            println!("  storage: {:?}", storage.stats());
        }
        Tier::Federated { fed, router } => {
            for shard in fed.shards() {
                let Some(agent) = shard.agent() else {
                    println!("  shard {} (down)", shard.id);
                    continue;
                };
                let a = agent.stats();
                println!(
                    "  shard {} (up, primary {}, promotions {}): {} readings ingested, \
                     {} sensors, storage {:?}",
                    shard.id,
                    shard.primary_node_id(),
                    shard.promotions(),
                    a.readings,
                    agent.query_engine().sensor_count(),
                    agent.storage().stats(),
                );
            }
            // One scatter-gather query through the router, envelope and all.
            let q = router.query_sensors(&example_cpi, Timestamp::ZERO, Timestamp::MAX);
            if let Some(r) = q.readings.last() {
                println!(
                    "  sample derived metric {example_cpi} = {:.2} \
                     ({}/{} shards answered)",
                    dcdb_wintermute::dcdb_common::decode_f64(r.value),
                    q.envelope.shards_ok,
                    q.envelope.shards_total,
                );
            }
        }
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
