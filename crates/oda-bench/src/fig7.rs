//! Figure 7 — per-job CPI decile analysis (paper §VI-C).
//!
//! The full two-stage pipeline across components: perfmetrics operators
//! in every node's Pusher derive per-core CPI from counters and publish
//! it over the bus; a persyst operator in the Collect Agent instantiates
//! one unit per running job and publishes the deciles of each job's
//! per-core CPI distribution each second. The figure plots deciles
//! {0, 2, 5, 8, 10} over time for jobs running Kripke, AMG, Nekbone and
//! LAMMPS, whose distinct signatures (tight/low for LAMMPS, spiky upper
//! tail for AMG, sawtooth for Kripke, late spread blow-up for Nekbone)
//! must reproduce.

use dcdb_bus::Broker;
use dcdb_collectagent::{CollectAgent, CollectAgentConfig, SimJobSource};
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_pusher::{Pusher, PusherConfig, SimMonitoringPlugin};
use dcdb_storage::StorageBackend;
use parking_lot::Mutex;
use serde::Serialize;
use sim_cluster::{AppModel, ClusterConfig, ClusterSimulator, Topology};
use std::sync::Arc;
use wintermute::manager::BusSink;
use wintermute::prelude::*;
use wintermute_plugins::perfmetrics::cpi_config;
use wintermute_plugins::persyst::decode_decile;
use wintermute_plugins::{PerfMetricsPlugin, PersystPlugin};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Nodes per job (paper: 32).
    pub nodes_per_job: usize,
    /// Cores per node (paper: 64 → 2048 samples per decile).
    pub cores_per_node: usize,
    /// Sampling / computation interval, seconds (paper: 1 s).
    pub interval_s: u64,
    /// Run duration per application, seconds (paper: the app's full
    /// runtime; `None` = the model's nominal duration).
    pub duration_s: Option<u64>,
    /// RNG seed.
    pub seed: u64,
}

impl Fig7Config {
    /// Paper-scale configuration (2048 cores per job).
    pub fn paper() -> Fig7Config {
        Fig7Config {
            nodes_per_job: 32,
            cores_per_node: 64,
            interval_s: 1,
            duration_s: None,
            seed: 0xF17,
        }
    }

    /// Scaled-down default preserving the distribution shapes.
    pub fn quick() -> Fig7Config {
        Fig7Config {
            nodes_per_job: 4,
            cores_per_node: 16,
            interval_s: 2,
            duration_s: None, // full nominal runtimes (Nekbone's late
            // memory-limited phase needs them)
            seed: 0xF17,
        }
    }
}

/// One time point of the decile series.
#[derive(Debug, Clone, Serialize)]
pub struct DecilePoint {
    /// Seconds since job start.
    pub t_s: f64,
    /// Deciles 0, 2, 5, 8, 10 of the per-core CPI distribution.
    pub d0: f64,
    /// 2nd decile.
    pub d2: f64,
    /// Median.
    pub d5: f64,
    /// 8th decile.
    pub d8: f64,
    /// Maximum.
    pub d10: f64,
}

/// Result for one application.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Result {
    /// Application name.
    pub app: String,
    /// Decile series over the job's runtime.
    pub series: Vec<DecilePoint>,
    /// Samples aggregated per decile point (cores in the job).
    pub samples_per_point: usize,
}

/// Runs the pipeline for one application and returns its decile series.
pub fn run_app(config: &Fig7Config, app: AppModel) -> Fig7Result {
    let topology = Topology::new(1, config.nodes_per_job, config.cores_per_node);
    let total_nodes = topology.total_nodes;
    let sim = Arc::new(Mutex::new(ClusterSimulator::new(ClusterConfig {
        topology,
        seed: config.seed,
        auto_workload: false,
    })));

    let duration_s = config.duration_s.unwrap_or(app.nominal_duration_s() as u64);
    let job_start = Timestamp::from_secs(2);
    let job_end = job_start.saturating_add_ns(duration_s * NS_PER_SEC);
    sim.lock()
        .submit_job("fig7", app, (0..total_nodes).collect(), job_start, job_end);

    let broker = Broker::new();

    // One Pusher per node, each with a perfmetrics CPI operator whose
    // outputs are forwarded onto the bus (pipeline stage 1).
    let mut pushers = Vec::with_capacity(total_nodes);
    for node in 0..total_nodes {
        let mut pusher = Pusher::new(
            PusherConfig {
                sampling_interval_ms: config.interval_s * 1000,
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
            .load(
                cpi_config("cpi", config.interval_s * 1000)
                    .with_option("window_ms", config.interval_s * 3000),
            )
            .expect("perfmetrics loads");
        pushers.push(pusher);
    }

    // Collect Agent with the persyst job operator (pipeline stage 2).
    let storage = Arc::new(StorageBackend::new());
    let agent =
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).expect("agent");
    let job_source: Arc<dyn JobDataSource> = Arc::new(SimJobSource::new(Arc::clone(&sim)));
    agent
        .manager()
        .register_plugin(Box::new(PersystPlugin::new(job_source)));
    agent
        .manager()
        .load(
            PluginConfig::online("persyst", "persyst", config.interval_s * 1000)
                .with_option("window_ms", config.interval_s * 3000),
        )
        .expect("persyst loads");

    // Drive the whole system on the virtual clock.
    let mut now = Timestamp::from_secs(1);
    let end = job_end.saturating_add_ns(2 * NS_PER_SEC);
    while now < end {
        for pusher in &pushers {
            pusher.tick(now).expect("pusher tick");
        }
        agent.tick(now);
        now = now.saturating_add_ns(config.interval_s * NS_PER_SEC);
    }

    // Extract the decile series for the job (id 0).
    let fetch = |name: &str| -> Vec<(Timestamp, f64)> {
        agent
            .query_engine()
            .query(
                &Topic::parse(&format!("/job/0/{name}")).unwrap(),
                QueryMode::Absolute {
                    t0: Timestamp::ZERO,
                    t1: Timestamp::MAX,
                },
            )
            .iter()
            .map(|r| (r.ts, decode_decile(r)))
            .collect()
    };
    let d0 = fetch("d0");
    let d2 = fetch("d2");
    let d5 = fetch("d5");
    let d8 = fetch("d8");
    let d10 = fetch("d10");

    let series = d0
        .iter()
        .zip(&d2)
        .zip(&d5)
        .zip(&d8)
        .zip(&d10)
        .map(
            |(((((ts, v0), (_, v2)), (_, v5)), (_, v8)), (_, v10))| DecilePoint {
                t_s: ts.elapsed_since(job_start) as f64 / 1e9,
                d0: *v0,
                d2: *v2,
                d5: *v5,
                d8: *v8,
                d10: *v10,
            },
        )
        .collect();

    Fig7Result {
        app: app.name().to_string(),
        series,
        samples_per_point: total_nodes * config.cores_per_node,
    }
}

/// Runs all four CORAL-2 applications (the paper's Figure 7).
pub fn run_all(config: &Fig7Config) -> Vec<Fig7Result> {
    AppModel::coral2()
        .into_iter()
        .map(|app| run_app(config, app))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig7Config {
        Fig7Config {
            nodes_per_job: 2,
            cores_per_node: 8,
            interval_s: 2,
            duration_s: Some(60),
            seed: 5,
        }
    }

    #[test]
    fn lammps_series_is_low_and_tight() {
        let result = run_app(&tiny(), AppModel::Lammps);
        assert!(result.series.len() >= 20, "{} points", result.series.len());
        let med: Vec<f64> = result.series.iter().map(|p| p.d5).collect();
        let avg = oda_ml::stats::mean(&med);
        assert!((1.2..2.2).contains(&avg), "LAMMPS median CPI {avg}");
        // Spread stays small.
        let spreads: Vec<f64> = result.series.iter().map(|p| p.d10 - p.d0).collect();
        assert!(oda_ml::stats::mean(&spreads) < 2.0);
    }

    #[test]
    fn amg_has_tail_spikes() {
        let result = run_app(&tiny(), AppModel::Amg);
        let max_d10 = result.series.iter().map(|p| p.d10).fold(0.0, f64::max);
        let avg_d5 = oda_ml::stats::mean(&result.series.iter().map(|p| p.d5).collect::<Vec<_>>());
        assert!(avg_d5 < 5.0, "AMG median {avg_d5}");
        assert!(max_d10 > 10.0, "AMG tail {max_d10}");
    }

    #[test]
    fn deciles_are_ordered() {
        let result = run_app(&tiny(), AppModel::Kripke);
        for p in &result.series {
            assert!(
                p.d0 <= p.d2 && p.d2 <= p.d5 && p.d5 <= p.d8 && p.d8 <= p.d10,
                "unordered deciles at t={}",
                p.t_s
            );
        }
    }
}
