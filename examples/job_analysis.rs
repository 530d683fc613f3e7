//! Case Study 2 (paper §VI-C): per-job CPI analysis through a
//! two-stage pipeline.
//!
//! perfmetrics operators in each node's Pusher derive per-core CPI from
//! performance counters and publish it over the MQTT-like bus; a
//! persyst operator in the Collect Agent instantiates one unit per
//! running job and publishes the deciles of the job's CPI distribution.
//! The example runs two jobs (LAMMPS and AMG) side by side and prints
//! their decile series — LAMMPS stays low and tight, AMG's upper tail
//! spikes on network-latency stalls.
//!
//! Run with:
//! ```text
//! cargo run --release --example job_analysis
//! ```

use dcdb_bus::Broker;
use dcdb_collectagent::{CollectAgent, CollectAgentConfig, SimJobSource};
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_pusher::{Pusher, PusherConfig, SimMonitoringPlugin};
use dcdb_storage::StorageBackend;
use parking_lot::Mutex;
use sim_cluster::{AppModel, ClusterConfig, ClusterSimulator, Topology};
use std::sync::Arc;
use wintermute::manager::BusSink;
use wintermute::prelude::*;
use wintermute_plugins::perfmetrics::cpi_config;
use wintermute_plugins::persyst::decode_decile;
use wintermute_plugins::{PerfMetricsPlugin, PersystPlugin};

fn main() {
    // --- 4 nodes × 8 cores; two jobs of 2 nodes each. ---
    let topology = Topology::new(1, 4, 8);
    let mut sim = ClusterSimulator::new(ClusterConfig {
        topology,
        seed: 7,
        auto_workload: false,
    });
    let start = Timestamp::from_secs(2);
    let end = Timestamp::from_secs(120);
    sim.submit_job("alice", AppModel::Lammps, vec![0, 1], start, end);
    sim.submit_job("bob", AppModel::Amg, vec![2, 3], start, end);
    let sim = Arc::new(Mutex::new(sim));

    // --- Stage 1: one Pusher per node with a perfmetrics operator. ---
    let broker = Broker::new();
    let mut pushers = Vec::new();
    for node in 0..4 {
        let mut pusher = Pusher::new(
            PusherConfig {
                sampling_interval_ms: 1000,
                cache_secs: 60,
                publish: true,
                ..PusherConfig::default()
            },
            Some(broker.handle()),
        );
        pusher.add_monitoring_plugin(Box::new(SimMonitoringPlugin::new(Arc::clone(&sim), node)));
        pusher.refresh_sensor_tree();
        pusher
            .manager()
            .register_plugin(Box::new(PerfMetricsPlugin));
        pusher
            .manager()
            .add_sink(Arc::new(BusSink::new(broker.handle())));
        pusher
            .manager()
            .load(cpi_config("cpi", 1000).with_option("window_ms", 3000u64))
            .expect("perfmetrics loads");
        pushers.push(pusher);
    }

    // --- Stage 2: the Collect Agent with the persyst job operator. ---
    let storage = Arc::new(StorageBackend::new());
    let agent =
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap();
    let jobs: Arc<dyn JobDataSource> = Arc::new(SimJobSource::new(Arc::clone(&sim)));
    agent
        .manager()
        .register_plugin(Box::new(PersystPlugin::new(jobs)));
    agent
        .manager()
        .load(PluginConfig::online("persyst", "persyst", 1000).with_option("window_ms", 3000u64))
        .expect("persyst loads");

    // --- Drive the whole system for two virtual minutes. ---
    let mut now = Timestamp::from_secs(1);
    while now < end {
        for p in &pushers {
            p.tick(now).expect("pusher tick");
        }
        agent.tick(now);
        now = now.saturating_add_ns(NS_PER_SEC);
    }

    // --- Print the per-job decile series (every 10th second). ---
    for (job_id, name) in [(0u64, "LAMMPS (job 0, alice)"), (1, "AMG (job 1, bob)")] {
        println!("\n=== {name} — CPI deciles over time ===");
        println!(
            "{:>6} | {:>6} {:>6} {:>6} {:>6} {:>6}",
            "t[s]", "d0", "d2", "d5", "d8", "d10"
        );
        let fetch = |d: &str| {
            agent.query_engine().query(
                &Topic::parse(&format!("/job/{job_id}/{d}")).unwrap(),
                QueryMode::Absolute {
                    t0: Timestamp::ZERO,
                    t1: Timestamp::MAX,
                },
            )
        };
        let (d0, d2, d5, d8, d10) = (
            fetch("d0"),
            fetch("d2"),
            fetch("d5"),
            fetch("d8"),
            fetch("d10"),
        );
        for i in (0..d0.len()).step_by(10) {
            println!(
                "{:>6} | {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
                d0[i].ts.as_secs(),
                decode_decile(&d0[i]),
                decode_decile(&d2[i]),
                decode_decile(&d5[i]),
                decode_decile(&d8[i]),
                decode_decile(&d10[i]),
            );
        }
    }

    let stats = agent.stats();
    println!(
        "\ncollect agent ingested {} readings over {} messages ({} stored)",
        stats.readings,
        stats.messages,
        agent.storage().stats().readings
    );
}
