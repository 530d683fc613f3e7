//! Figure 8 — identification of performance anomalies via Bayesian
//! gaussian mixture clustering (paper §VI-D).
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
//! The simulated cluster plants exactly that structure through node
//! behavioural profiles, so the reproduction must recover the three
//! groups and flag the planted anomalous nodes.

use dcdb_common::reading::decode_f64;
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use serde::Serialize;
use sim_cluster::{ClusterConfig, ClusterSimulator, ProfileClass};
use std::collections::HashMap;
use std::sync::Arc;
use wintermute::prelude::*;
use wintermute_plugins::clustering::node_clustering_config;
use wintermute_plugins::ClusteringPlugin;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Virtual duration of the monitoring window, seconds (paper: two
    /// weeks; the simulation compresses the same behavioural contrast
    /// into less virtual time).
    pub duration_s: u64,
    /// Sampling interval, seconds (paper: 10 s).
    pub sample_interval_s: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Fig8Config {
    /// Default: one virtual hour at 10 s sampling on 148 nodes.
    pub fn default_run() -> Fig8Config {
        Fig8Config {
            duration_s: 3600,
            sample_interval_s: 10,
            seed: 0xF18,
        }
    }
}

/// One node's averaged metrics and assigned cluster.
#[derive(Debug, Clone, Serialize)]
pub struct NodePoint {
    /// Global node index.
    pub node: usize,
    /// Window-average power, watts.
    pub power_w: f64,
    /// Window-average temperature, °C.
    pub temp_c: f64,
    /// Window-average idle time, ms of idle per second.
    pub idle_ms_per_s: f64,
    /// Cluster label; `-1` = outlier.
    pub label: i64,
    /// Ground-truth behavioural profile.
    pub profile: String,
}

/// Summary of one discovered cluster.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterSummary {
    /// Cluster label.
    pub label: i64,
    /// Member count.
    pub nodes: usize,
    /// Mean power of members, watts.
    pub mean_power_w: f64,
    /// Mean temperature, °C.
    pub mean_temp_c: f64,
    /// Mean idle, ms/s.
    pub mean_idle_ms_per_s: f64,
}

/// The experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Result {
    /// Per-node points (the scatter of Fig. 8).
    pub points: Vec<NodePoint>,
    /// Discovered clusters.
    pub clusters: Vec<ClusterSummary>,
    /// Nodes flagged as outliers.
    pub outliers: Vec<usize>,
    /// Fraction of non-anomalous nodes whose cluster is the majority
    /// cluster of their ground-truth profile (label purity).
    pub profile_agreement: f64,
    /// True if both planted anomalous nodes were flagged.
    pub anomalies_flagged: bool,
}

/// Runs the clustering case study on the 148-node simulated system.
pub fn run(config: &Fig8Config) -> Fig8Result {
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
    let window_ns = config.duration_s * NS_PER_SEC;
    let mut points = Vec::with_capacity(total_nodes);
    let topology = sim.topology().clone();
    for (node, node_profile) in profiles.iter().enumerate().take(total_nodes) {
        let base = topology.node_topic(node);
        let avg_of = |name: &str, fixed: bool| -> f64 {
            let vals: Vec<f64> = query
                .query(
                    &base.child(name).unwrap(),
                    QueryMode::Relative {
                        offset_ns: window_ns,
                    },
                )
                .iter()
                .map(|r| {
                    if fixed {
                        decode_f64(r.value)
                    } else {
                        r.value as f64
                    }
                })
                .collect();
            oda_ml::stats::mean(&vals)
        };
        let idle_series = query.query(
            &base.child("cpu-idle").unwrap(),
            QueryMode::Relative {
                offset_ns: window_ns,
            },
        );
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
            power_w: avg_of("power", false),
            temp_c: avg_of("temp", true),
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
            mean_power_w: oda_ml::stats::mean(
                &members.iter().map(|p| p.power_w).collect::<Vec<_>>(),
            ),
            mean_temp_c: oda_ml::stats::mean(&members.iter().map(|p| p.temp_c).collect::<Vec<_>>()),
            mean_idle_ms_per_s: oda_ml::stats::mean(
                &members.iter().map(|p| p.idle_ms_per_s).collect::<Vec<_>>(),
            ),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_recovers_structure() {
        let result = run(&Fig8Config {
            duration_s: 3600,
            sample_interval_s: 30,
            seed: 11,
        });
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
    }
}
