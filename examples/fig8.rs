//! Figure 8 (paper §VI-D): identification of performance anomalies via
//! Bayesian gaussian mixture clustering.
//!
//! A clustering operator in the Collect Agent holds one unit per
//! compute node with inputs (power, temperature, CPU idle time). At
//! each (hourly, in production) computation it averages each input over
//! a long window (2 weeks in the paper), treats each node as a 3-D
//! point, and fits a Bayesian GMM. The paper finds three clusters —
//! under-utilized, normal, heavily loaded — plus outliers below the
//! 0.001 probability threshold, among them one node drawing ~20 % more
//! power than its idle time predicts.
//!
//! The simulated 148-node cluster plants exactly that structure through
//! node behavioural profiles, so the reproduction must recover the
//! three groups and flag the planted anomalous nodes. Writes
//! `bench-results/fig8.json`.
//!
//! ```text
//! cargo run --release --example fig8
//! ```

use dcdb_common::reading::decode_f64;
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_wintermute::dcdb_sim::report::{write_json_report, BenchMeta};
use oda_ml::stats::mean;
use serde::Serialize;
use sim_cluster::{ClusterConfig, ClusterSimulator, ProfileClass};
use std::collections::HashMap;
use std::sync::Arc;
use wintermute::prelude::*;
use wintermute_plugins::clustering::node_clustering_config;
use wintermute_plugins::ClusteringPlugin;

/// Experiment configuration.
#[derive(Debug, Clone)]
struct Fig8Config {
    /// Virtual duration of the monitoring window, seconds (paper: two
    /// weeks; the simulation compresses the same behavioural contrast
    /// into less virtual time).
    duration_s: u64,
    /// Sampling interval, seconds (paper: 10 s).
    sample_interval_s: u64,
    /// RNG seed.
    seed: u64,
}

impl Fig8Config {
    /// Default: one virtual hour at 10 s sampling on 148 nodes.
    fn default_run() -> Fig8Config {
        Fig8Config {
            duration_s: 3600,
            sample_interval_s: 10,
            seed: 0xF18,
        }
    }
}

/// One node's averaged metrics and assigned cluster.
#[derive(Debug, Clone, Serialize)]
struct NodePoint {
    /// Global node index.
    node: usize,
    /// Window-average power, watts.
    power_w: f64,
    /// Window-average temperature, °C.
    temp_c: f64,
    /// Window-average idle time, ms of idle per second.
    idle_ms_per_s: f64,
    /// Cluster label; `-1` = outlier.
    label: i64,
    /// Ground-truth behavioural profile.
    profile: String,
}

/// Summary of one discovered cluster.
#[derive(Debug, Clone, Serialize)]
struct ClusterSummary {
    /// Cluster label.
    label: i64,
    /// Member count.
    nodes: usize,
    /// Mean power of members, watts.
    mean_power_w: f64,
    /// Mean temperature, °C.
    mean_temp_c: f64,
    /// Mean idle, ms/s.
    mean_idle_ms_per_s: f64,
}

/// The experiment result.
#[derive(Debug, Clone, Serialize)]
struct Fig8Result {
    /// Per-node points (the scatter of Fig. 8).
    points: Vec<NodePoint>,
    /// Discovered clusters.
    clusters: Vec<ClusterSummary>,
    /// Nodes flagged as outliers.
    outliers: Vec<usize>,
    /// Fraction of non-anomalous nodes whose cluster is the majority
    /// cluster of their ground-truth profile (label purity).
    profile_agreement: f64,
    /// True if both planted anomalous nodes were flagged.
    anomalies_flagged: bool,
}

/// Runs the clustering case study on the 148-node simulated system.
fn run(config: &Fig8Config) -> Fig8Result {
    let mut sim = ClusterSimulator::new(ClusterConfig::coolmuc3(config.seed));
    // Short, frequent jobs: every node's realized utilization converges
    // tightly to its profile's duty cycle within the window, giving the
    // clustering the same modal structure the production system shows.
    if let Some(w) = sim.workload_mut() {
        w.mean_interarrival_s = 2.0;
        w.duration_range_s = (60.0, 180.0);
        w.size_range = (1, 4);
    }
    let profiles = sim.profiles().to_vec();
    let total_nodes = sim.topology().total_nodes;

    // Collect-Agent-style engine: big enough caches to hold the window.
    let slots = (config.duration_s / config.sample_interval_s) as usize + 2;
    let query = Arc::new(QueryEngine::new(slots));
    let manager = OperatorManager::new(Arc::clone(&query));
    manager.register_plugin(Box::new(ClusteringPlugin));

    // Long-horizon monitoring at node granularity.
    let mut now = Timestamp::from_secs(1);
    let end = now.saturating_add_ns(config.duration_s * NS_PER_SEC);
    while now < end {
        for (topic, reading) in sim.tick_node_level(now) {
            query.insert(&topic, reading);
        }
        now = now.saturating_add_ns(config.sample_interval_s * NS_PER_SEC);
    }
    query.rebuild_navigator();

    manager
        .load(
            node_clustering_config("bgmm", 1000)
                .with_option("window_ms", config.duration_s * 1000)
                .with_option("seed", config.seed),
        )
        .expect("clustering loads");
    let report = manager.tick(now);
    assert!(
        report.errors.is_empty(),
        "clustering errors: {:?}",
        report.errors
    );

    // Gather per-node averages + labels.
    let window = QueryMode::Relative {
        offset_ns: config.duration_s * NS_PER_SEC,
    };
    let mut points = Vec::with_capacity(total_nodes);
    let topology = sim.topology().clone();
    for (node, node_profile) in profiles.iter().enumerate().take(total_nodes) {
        let base = topology.node_topic(node);
        let avg_of = |name: &str, decode: fn(i64) -> f64| {
            let series = query.query(&base.child(name).unwrap(), window);
            mean(&series.iter().map(|r| decode(r.value)).collect::<Vec<_>>())
        };
        let idle_series = query.query(&base.child("cpu-idle").unwrap(), window);
        let idle_rate = match (idle_series.first(), idle_series.last()) {
            (Some(a), Some(b)) if b.ts > a.ts => {
                (b.value - a.value) as f64 / (b.ts.elapsed_since(a.ts) as f64 / 1e9)
            }
            _ => 0.0,
        };
        let label = query
            .query(&base.child("cluster-label").unwrap(), QueryMode::Latest)
            .first()
            .map(|r| r.value)
            .unwrap_or(i64::MIN);
        points.push(NodePoint {
            node,
            power_w: avg_of("power", |v| v as f64),
            temp_c: avg_of("temp", decode_f64),
            idle_ms_per_s: idle_rate,
            label,
            profile: format!("{node_profile:?}"),
        });
    }

    // Cluster summaries.
    let mut by_label: HashMap<i64, Vec<&NodePoint>> = HashMap::new();
    for p in &points {
        if p.label >= 0 {
            by_label.entry(p.label).or_default().push(p);
        }
    }
    let mut clusters: Vec<ClusterSummary> = by_label
        .iter()
        .map(|(&label, members)| ClusterSummary {
            label,
            nodes: members.len(),
            mean_power_w: mean(&members.iter().map(|p| p.power_w).collect::<Vec<_>>()),
            mean_temp_c: mean(&members.iter().map(|p| p.temp_c).collect::<Vec<_>>()),
            mean_idle_ms_per_s: mean(&members.iter().map(|p| p.idle_ms_per_s).collect::<Vec<_>>()),
        })
        .collect();
    clusters.sort_by(|a, b| a.mean_power_w.partial_cmp(&b.mean_power_w).unwrap());

    let outliers: Vec<usize> = points
        .iter()
        .filter(|p| p.label == -1)
        .map(|p| p.node)
        .collect();

    // Purity: majority label per ground-truth class.
    let classes = [
        ProfileClass::Underutilized,
        ProfileClass::Normal,
        ProfileClass::Heavy,
    ];
    let mut agree = 0usize;
    let mut total = 0usize;
    for class in classes {
        let members: Vec<&NodePoint> = points
            .iter()
            .filter(|p| profiles[p.node] == class && p.label >= 0)
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut counts: HashMap<i64, usize> = HashMap::new();
        for m in &members {
            *counts.entry(m.label).or_default() += 1;
        }
        let majority = counts.values().copied().max().unwrap_or(0);
        agree += majority;
        total += members.len();
    }
    let profile_agreement = if total > 0 {
        agree as f64 / total as f64
    } else {
        0.0
    };

    let anomalies_flagged = points
        .iter()
        .filter(|p| profiles[p.node] == ProfileClass::ExcessPower)
        .all(|p| p.label == -1);

    Fig8Result {
        points,
        clusters,
        outliers,
        profile_agreement,
        anomalies_flagged,
    }
}

fn main() {
    let config = Fig8Config::default_run();
    println!(
        "clustering 148 nodes over a {} s window sampled every {} s...\n",
        config.duration_s, config.sample_interval_s
    );
    let started = std::time::Instant::now();
    let result = run(&config);

    println!("=== Fig. 8 — discovered clusters (paper: 3 clusters + outliers) ===");
    println!(
        "{:>6} | {:>5} | {:>9} | {:>8} | {:>12}",
        "label", "nodes", "power[W]", "temp[C]", "idle[ms/s]"
    );
    for c in &result.clusters {
        println!(
            "{:>6} | {:>5} | {:>9.0} | {:>8.1} | {:>12.0}",
            c.label, c.nodes, c.mean_power_w, c.mean_temp_c, c.mean_idle_ms_per_s
        );
    }

    println!("\noutliers (density < 0.001 under every component):");
    for &node in &result.outliers {
        let p = &result.points[node];
        println!(
            "  node {node:>3}: {:>4.0} W, {:>4.1} C, {:>4.0} ms/s idle  [{}]",
            p.power_w, p.temp_c, p.idle_ms_per_s, p.profile
        );
    }
    println!(
        "\nprofile purity: {:.0} %; planted anomalies flagged: {}",
        result.profile_agreement * 100.0,
        result.anomalies_flagged
    );
    println!(
        "(paper: one outlier node consumed ~20% more power than nodes with similar idle time)"
    );
    let meta = BenchMeta::new("fig8", Some(config.seed), &config, started);
    let path = write_json_report(&meta, &result).expect("write json");
    println!("raw data -> {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_recovers_structure() {
        let config = Fig8Config {
            duration_s: 3600,
            sample_interval_s: 30,
            seed: 11,
        };
        let result = run(&config);
        assert_eq!(result.points.len(), 148);
        assert!(
            (2..=4).contains(&result.clusters.len()),
            "clusters: {}",
            result.clusters.len()
        );
        assert!(
            result.profile_agreement > 0.75,
            "agreement {}",
            result.profile_agreement
        );
        // Clusters are ordered by power and separate idle behaviour:
        // lowest-power cluster idles the most.
        let first = result.clusters.first().unwrap();
        let last = result.clusters.last().unwrap();
        assert!(first.mean_power_w < last.mean_power_w);
        assert!(first.mean_idle_ms_per_s > last.mean_idle_ms_per_s);
        // The same configuration reproduces the same figure.
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&run(&config)).unwrap()
        );
    }
}
