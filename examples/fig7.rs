//! Figure 7 (paper §VI-C): per-job CPI deciles over time.
//!
//! The full two-stage pipeline across components: perfmetrics operators
//! in every node's Pusher derive per-core CPI from counters and publish
//! it over the bus; a persyst operator in the Collect Agent instantiates
//! one unit per running job and publishes the deciles of each job's
//! per-core CPI distribution each interval. The figure plots deciles
//! {0, 2, 5, 8, 10} over time for jobs running Kripke, AMG, Nekbone and
//! LAMMPS, whose distinct signatures (tight/low for LAMMPS, spiky upper
//! tail for AMG, sawtooth for Kripke, late spread blow-up for Nekbone)
//! must reproduce. Writes `bench-results/fig7_<app>.json`.
//!
//! ```text
//! cargo run --release --example fig7             # scaled default
//! cargo run --release --example fig7 -- --full   # 32 nodes × 64 cores
//! ```

use dcdb_bus::Broker;
use dcdb_collectagent::{CollectAgent, CollectAgentConfig, SimJobSource};
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_pusher::{Pusher, PusherConfig, SimMonitoringPlugin};
use dcdb_storage::DurableBackend;
use dcdb_wintermute::dcdb_sim::report::{write_json_report, BenchMeta};
use oda_ml::stats::{mean, quantile};
use parking_lot::Mutex;
use serde::Serialize;
use sim_cluster::{AppModel, ClusterConfig, ClusterSimulator, Topology};
use std::sync::Arc;
use wintermute::prelude::*;
use wintermute_plugins::perfmetrics::cpi_config;
use wintermute_plugins::persyst::decode_decile;
use wintermute_plugins::{PerfMetricsPlugin, PersystPlugin};

/// Experiment configuration.
#[derive(Debug, Clone)]
struct Fig7Config {
    /// Nodes per job (paper: 32).
    nodes_per_job: usize,
    /// Cores per node (paper: 64 → 2048 samples per decile).
    cores_per_node: usize,
    /// Sampling / computation interval, seconds (paper: 1 s).
    interval_s: u64,
    /// Run duration per application, seconds (paper: the app's full
    /// runtime; `None` = the model's nominal duration).
    duration_s: Option<u64>,
    /// RNG seed.
    seed: u64,
}

impl Fig7Config {
    /// Paper-scale configuration (2048 cores per job).
    fn paper() -> Fig7Config {
        Fig7Config {
            nodes_per_job: 32,
            cores_per_node: 64,
            interval_s: 1,
            duration_s: None,
            seed: 0xF17,
        }
    }

    /// Scaled-down default preserving the distribution shapes.
    fn quick() -> Fig7Config {
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
struct DecilePoint {
    /// Seconds since job start.
    t_s: f64,
    /// Minimum of the per-core CPI distribution.
    d0: f64,
    /// 2nd decile.
    d2: f64,
    /// Median.
    d5: f64,
    /// 8th decile.
    d8: f64,
    /// Maximum.
    d10: f64,
}

/// Result for one application.
#[derive(Debug, Clone, Serialize)]
struct Fig7Result {
    /// Application name.
    app: String,
    /// Decile series over the job's runtime.
    series: Vec<DecilePoint>,
    /// Samples aggregated per decile point (cores in the job).
    samples_per_point: usize,
}

/// Runs the pipeline for one application and returns its decile series.
fn run_app(config: &Fig7Config, app: AppModel) -> Fig7Result {
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
    // outputs leave over the bus with the samples (pipeline stage 1).
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
            .load(
                cpi_config("cpi", config.interval_s * 1000)
                    .with_option("window_ms", config.interval_s * 3000),
            )
            .expect("perfmetrics loads");
        pushers.push(pusher);
    }

    // Collect Agent with the persyst job operator (pipeline stage 2).
    let storage = Arc::new(DurableBackend::in_memory());
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

    // Extract the decile series for the job (id 0), stamped by d0.
    let everything = QueryMode::Absolute {
        t0: Timestamp::ZERO,
        t1: Timestamp::MAX,
    };
    let d = ["d0", "d2", "d5", "d8", "d10"].map(|name| {
        let topic = Topic::parse(&format!("/job/0/{name}")).expect("valid decile topic");
        agent.query_engine().query(&topic, everything)
    });
    let points = d.iter().map(Vec::len).min().unwrap_or(0);
    let series = (0..points)
        .map(|i| DecilePoint {
            t_s: d[0][i].ts.elapsed_since(job_start) as f64 / 1e9,
            d0: decode_decile(&d[0][i]),
            d2: decode_decile(&d[1][i]),
            d5: decode_decile(&d[2][i]),
            d8: decode_decile(&d[3][i]),
            d10: decode_decile(&d[4][i]),
        })
        .collect();

    Fig7Result {
        app: app.name().to_string(),
        series,
        samples_per_point: total_nodes * config.cores_per_node,
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        Fig7Config::paper()
    } else {
        Fig7Config::quick()
    };
    println!(
        "{} nodes × {} cores per job, {} s interval ({} samples per decile)\n",
        config.nodes_per_job,
        config.cores_per_node,
        config.interval_s,
        config.nodes_per_job * config.cores_per_node
    );

    for app in AppModel::coral2() {
        let started = std::time::Instant::now();
        let result = run_app(&config, app);
        println!("=== Fig. 7 — {} ===", result.app);
        println!(
            "{:>6} | {:>6} {:>6} {:>6} {:>6} {:>6}",
            "t[s]", "d0", "d2", "d5", "d8", "d10"
        );
        let step = (result.series.len() / 20).max(1);
        for p in result.series.iter().step_by(step) {
            println!(
                "{:>6.0} | {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
                p.t_s, p.d0, p.d2, p.d5, p.d8, p.d10
            );
        }
        // Shape summary in the paper's terms.
        let meds: Vec<f64> = result.series.iter().map(|p| p.d5).collect();
        let spreads: Vec<f64> = result.series.iter().map(|p| p.d10 - p.d0).collect();
        println!(
            "median CPI {:.2}, mean d10-d0 spread {:.2}, max d10 {:.2}\n",
            quantile(&meds, 0.5),
            mean(&spreads),
            result.series.iter().map(|p| p.d10).fold(0.0, f64::max),
        );
        let meta = BenchMeta::new(
            &format!("fig7_{}", result.app.to_lowercase()),
            Some(config.seed),
            &config,
            started,
        );
        write_json_report(&meta, &result).expect("write json");
    }
    println!(
        "expected shapes (paper): LAMMPS low/tight ~1.6; AMG low median with d8/d10 spikes to ~30;"
    );
    println!("Kripke sawtooth across all deciles; Nekbone tight early, spread blow-up late.");
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
        let avg = mean(&med);
        assert!((1.2..2.2).contains(&avg), "LAMMPS median CPI {avg}");
        // Spread stays small.
        let spreads: Vec<f64> = result.series.iter().map(|p| p.d10 - p.d0).collect();
        assert!(mean(&spreads) < 2.0);
        // The same configuration reproduces the same series.
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&run_app(&tiny(), AppModel::Lammps)).unwrap()
        );
    }

    #[test]
    fn amg_has_tail_spikes() {
        let result = run_app(&tiny(), AppModel::Amg);
        let max_d10 = result.series.iter().map(|p| p.d10).fold(0.0, f64::max);
        let avg_d5 = mean(&result.series.iter().map(|p| p.d5).collect::<Vec<_>>());
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
