//! End-to-end integration: the full DCDB/Wintermute data path of the
//! paper's Figure 3 — Pushers sampling a simulated cluster, MQTT-like
//! transport, a Collect Agent forwarding to storage, and Wintermute
//! operators at both levels, including a cross-component pipeline and a
//! feedback loop.

use dcdb_wintermute::dcdb_bus::Broker;
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::time::Timestamp;
use dcdb_wintermute::dcdb_common::topic::Topic;
use dcdb_wintermute::dcdb_pusher::{Pusher, PusherConfig, SimMonitoringPlugin};
use dcdb_wintermute::dcdb_storage::DurableBackend;
use dcdb_wintermute::sim_cluster::{AppModel, ClusterConfig, ClusterSimulator};
use dcdb_wintermute::wintermute::prelude::*;
use dcdb_wintermute::wintermute_plugins;
use parking_lot::Mutex;
use std::sync::Arc;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

/// Builds a 4-node system: pushers with aggregators, one collect agent.
fn build_system() -> (
    Vec<Pusher>,
    Arc<CollectAgent>,
    Broker,
    Arc<Mutex<ClusterSimulator>>,
) {
    let mut sim = ClusterSimulator::new(ClusterConfig::small_manual(99));
    sim.submit_job(
        "e2e",
        AppModel::Lammps,
        vec![0, 1, 2, 3],
        Timestamp::from_secs(1),
        Timestamp::from_secs(1000),
    );
    let sim = Arc::new(Mutex::new(sim));
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
        wintermute_plugins::register_all(pusher.manager(), None);
        pushers.push(pusher);
    }
    let storage = Arc::new(DurableBackend::in_memory());
    let agent = Arc::new(
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap(),
    );
    wintermute_plugins::register_all(agent.manager(), None);
    (pushers, agent, broker, sim)
}

fn drive(pushers: &[Pusher], agent: &CollectAgent, from_s: u64, to_s: u64) {
    for s in from_s..=to_s {
        let now = Timestamp::from_secs(s);
        for p in pushers {
            p.tick(now).unwrap();
        }
        agent.tick(now);
    }
}

#[test]
fn raw_data_flows_pusher_to_storage() {
    let (pushers, agent, _broker, _sim) = build_system();
    drive(&pushers, &agent, 1, 10);
    // Every node's power is in the agent's cache and in storage.
    for node in 0..4 {
        let topic = t(&format!("/rack0{}/node0{}/power", node / 4, node % 4));
        let got = agent.query_engine().query(&topic, QueryMode::Latest);
        assert!(!got.is_empty(), "missing {topic} in agent cache");
        assert!(
            agent.storage().contains(&topic),
            "missing {topic} in storage"
        );
    }
    // Volumes line up: 4 nodes × 22 sensors × 10 ticks.
    assert_eq!(agent.stats().readings, 4 * 22 * 10);
}

#[test]
fn cross_component_pipeline_pusher_derives_agent_aggregates() {
    let (pushers, agent, _broker, _sim) = build_system();
    // Stage 1 in each pusher: node power 5s-average, published to bus.
    for pusher in &pushers {
        pusher
            .manager()
            .load(
                PluginConfig::online("node-avg", "aggregator", 1000)
                    .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-avg"])
                    .with_option("window_ms", 5000u64),
            )
            .unwrap();
    }
    // Prime: deliver a few rounds so the agent's tree contains the
    // derived sensors, then load stage 2 there.
    drive(&pushers, &agent, 1, 3);
    agent
        .manager()
        .load(
            PluginConfig::online("sys-max", "aggregator", 1000)
                .with_patterns(&["<bottomup-1>power-avg"], &["<topdown>power-avg-max"])
                .with_option("op", "max")
                .with_option("window_ms", 5000u64),
        )
        .unwrap();
    drive(&pushers, &agent, 4, 12);

    // Stage 2 output exists per rack and is plausible (W range).
    let got = agent
        .query_engine()
        .query(&t("/rack00/power-avg-max"), QueryMode::Latest);
    assert!(!got.is_empty(), "pipeline stage 2 produced nothing");
    assert!(
        (150..=350).contains(&got[0].value),
        "value {}",
        got[0].value
    );
}

#[test]
fn feedback_loop_operator_reacts_to_derived_state() {
    // A control-style operator at the end of a pipeline: reads the
    // system aggregate and publishes a "throttle" knob when power
    // exceeds a budget (paper §IV-B d: "control operators at the end of
    // the pipeline that use processed data to tune system knobs").
    let (pushers, agent, _broker, _sim) = build_system();
    for pusher in &pushers {
        pusher
            .manager()
            .load(
                PluginConfig::online("node-avg", "aggregator", 1000)
                    .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-avg"])
                    .with_option("window_ms", 5000u64),
            )
            .unwrap();
    }
    drive(&pushers, &agent, 1, 3);
    // "Control": a quantile aggregator whose output a real deployment
    // would wire to a knob; here we assert the signal exists and tracks
    // load.
    agent
        .manager()
        .load(
            PluginConfig::online("power-p95", "aggregator", 1000)
                .with_patterns(&["<bottomup-1>power-avg"], &["<topdown>throttle-signal"])
                .with_option("op", "quantile")
                .with_option("q", 0.95)
                .with_option("window_ms", 5000u64),
        )
        .unwrap();
    drive(&pushers, &agent, 4, 15);
    let signal = agent
        .query_engine()
        .query(&t("/rack00/throttle-signal"), QueryMode::Latest);
    assert!(!signal.is_empty());
    // All nodes run LAMMPS: p95 of node averages must be in busy range.
    assert!(signal[0].value > 150, "throttle signal {}", signal[0].value);
}

#[test]
fn process_pending_ingests_everything_published() {
    // One pusher, no `agent.tick`: the count `process_pending` returns
    // is exactly what was published.
    let mut sim = ClusterSimulator::new(ClusterConfig::small_manual(5));
    sim.submit_job(
        "x",
        AppModel::Hpl,
        vec![0],
        Timestamp::from_secs(1),
        Timestamp::from_secs(100),
    );
    let sim = Arc::new(Mutex::new(sim));
    let broker = Broker::new();
    let mut pusher = Pusher::new(PusherConfig::default(), Some(broker.handle()));
    pusher.add_monitoring_plugin(Box::new(SimMonitoringPlugin::new(Arc::clone(&sim), 0)));
    pusher.refresh_sensor_tree();
    let storage = Arc::new(DurableBackend::in_memory());
    let agent =
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap();
    for s in 1..=5u64 {
        pusher.tick(Timestamp::from_secs(s)).unwrap();
    }
    let ingested = agent.process_pending();
    assert_eq!(ingested, 5 * 22);
}

/// A Pusher's operator outputs leave through its connection with the
/// samples: they reach storage, every reading the agent ingests is one
/// a Pusher counted, and every message is one Pusher tick's node frame.
#[test]
fn pusher_operator_outputs_reach_storage_and_are_counted() {
    let (pushers, agent, broker, _sim) = build_system();
    pushers[0]
        .manager()
        .load(
            PluginConfig::online("node-avg", "aggregator", 1000)
                .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-avg"])
                .with_option("window_ms", 5000u64),
        )
        .unwrap();
    drive(&pushers, &agent, 1, 10);
    agent.process_pending();
    // The derived sensor persisted in the storage backend.
    assert!(
        agent.storage().contains(&t("/rack00/node00/power-avg")),
        "derived sensor not persisted"
    );
    for pusher in &pushers {
        let stats = pusher.stats();
        assert!(stats.delivery_conserved(), "{stats:?}");
    }
    assert_eq!(pushers[0].stats().derived, 10);
    let published: u64 = pushers.iter().map(|p| p.stats().published).sum();
    assert_eq!(published, agent.stats().readings);
    // The output is under its node: one frame per Pusher and tick.
    assert_eq!(agent.stats().messages, broker.stats().published);
    assert_eq!(agent.stats().messages, 4 * 10);
}

#[test]
fn simulated_counters_produce_sane_cpi_at_the_agent() {
    // Pushers send their operators' outputs with their samples, so
    // perfmetrics outputs travel to the agent like raw sensors.
    let (pushers, agent, _broker, _sim) = build_system();
    for pusher in &pushers {
        pusher
            .manager()
            .load(
                wintermute_plugins::perfmetrics::cpi_config("cpi", 1000)
                    .with_option("window_ms", 3000u64),
            )
            .unwrap();
    }
    drive(&pushers, &agent, 1, 8);
    // LAMMPS runs everywhere: CPI near 1.6 on every core sampled.
    let cpi = agent
        .query_engine()
        .query(&t("/rack00/node00/cpu00/cpi"), QueryMode::Latest);
    assert!(!cpi.is_empty(), "no derived CPI at the agent");
    let v = dcdb_wintermute::dcdb_common::decode_f64(cpi[0].value);
    assert!((1.2..2.5).contains(&v), "LAMMPS CPI {v}");
}

#[test]
fn reload_after_new_sensors_appear_at_runtime() {
    let (pushers, agent, _broker, _sim) = build_system();
    agent
        .manager()
        .load(
            PluginConfig::online("avg", "aggregator", 1000)
                .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-avg2"])
                .with_option("window_ms", 5000u64),
        )
        .unwrap_err(); // no sensors known yet: must fail loudly
    drive(&pushers, &agent, 1, 2);
    // Now the tree is populated; load succeeds and resolves 4 units.
    agent
        .manager()
        .load(
            PluginConfig::online("avg", "aggregator", 1000)
                .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-avg2"])
                .with_option("window_ms", 5000u64),
        )
        .unwrap();
    assert_eq!(agent.manager().units_of("avg").unwrap().len(), 4);
}

#[test]
fn sensor_reading_volume_accounting_is_consistent() {
    let (pushers, agent, broker, _sim) = build_system();
    drive(&pushers, &agent, 1, 20);
    agent.process_pending();
    let pusher_published: u64 = pushers.iter().map(|p| p.stats().published).sum();
    assert_eq!(pusher_published, agent.stats().readings);
    assert_eq!(agent.stats().messages, broker.stats().published);
    assert_eq!(agent.stats().messages, 4 * 20);
    assert_eq!(agent.stats().decode_errors, 0);
    let storage_readings = agent.storage().stats().readings as u64;
    assert_eq!(storage_readings, agent.stats().readings);
}
