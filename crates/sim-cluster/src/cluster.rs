//! Whole-cluster simulation: nodes + scheduler + workload, ticked on a
//! virtual clock.
//!
//! [`ClusterSimulator`] is what the figure harnesses drive: it owns one
//! [`NodeSimulator`](crate::node::NodeSimulator) per compute node, keeps
//! the node's running application in sync with the job table, and
//! produces the full system's sensor samples each tick — the same
//! stream 148 real Pushers would publish.

use crate::apps::AppModel;
use crate::node::{NodeSimulator, ProfileClass, Sample};
use crate::scheduler::{JobScheduler, WorkloadGenerator};
use crate::topology::Topology;
use dcdb_common::time::Timestamp;

/// Configuration of a cluster simulation.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The cluster shape.
    pub topology: Topology,
    /// Master seed; every node derives its own stream.
    pub seed: u64,
    /// Enable the background workload generator.
    pub auto_workload: bool,
}

impl ClusterConfig {
    /// CooLMUC-3-scale simulation with automatic workload.
    pub fn coolmuc3(seed: u64) -> Self {
        ClusterConfig {
            topology: Topology::coolmuc3(),
            seed,
            auto_workload: true,
        }
    }

    /// Small deterministic cluster without background jobs (tests,
    /// examples and single-node case studies).
    pub fn small_manual(seed: u64) -> Self {
        ClusterConfig {
            topology: Topology::small(),
            seed,
            auto_workload: false,
        }
    }
}

/// The full simulated system.
pub struct ClusterSimulator {
    topology: Topology,
    nodes: Vec<NodeSimulator>,
    profiles: Vec<ProfileClass>,
    scheduler: JobScheduler,
    workload: Option<WorkloadGenerator>,
}

impl ClusterSimulator {
    /// Builds the simulator.
    pub fn new(config: ClusterConfig) -> Self {
        let profiles = ProfileClass::assign(config.topology.total_nodes, config.seed);
        let nodes = config
            .topology
            .nodes()
            .map(|n| NodeSimulator::new(config.topology.clone(), n, profiles[n], config.seed))
            .collect();
        let workload = config
            .auto_workload
            .then(|| WorkloadGenerator::new(profiles.clone(), config.seed ^ 0xA11C));
        ClusterSimulator {
            topology: config.topology,
            nodes,
            profiles,
            scheduler: JobScheduler::new(),
            workload,
        }
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-node behavioural profiles (ground truth for evaluating the
    /// clustering case study).
    pub fn profiles(&self) -> &[ProfileClass] {
        &self.profiles
    }

    /// The job table.
    pub fn scheduler(&self) -> &JobScheduler {
        &self.scheduler
    }

    /// Mutable access to the background workload generator (tuning job
    /// mix parameters), when auto-workload is enabled.
    pub fn workload_mut(&mut self) -> Option<&mut WorkloadGenerator> {
        self.workload.as_mut()
    }

    /// Direct access to one node's simulator.
    pub fn node_mut(&mut self, node: usize) -> &mut NodeSimulator {
        &mut self.nodes[node]
    }

    /// Submits a job and returns its id (manual workloads).
    pub fn submit_job(
        &mut self,
        user: &str,
        app: AppModel,
        nodes: Vec<usize>,
        start: Timestamp,
        end: Timestamp,
    ) -> u64 {
        self.scheduler.submit(user, app, nodes, start, end)
    }

    /// Advances the simulation to `now` and samples every sensor of
    /// every node. Apps on nodes are switched to match the job table
    /// before sampling.
    pub fn tick(&mut self, now: Timestamp) -> Vec<Sample> {
        if let Some(w) = self.workload.as_mut() {
            w.step(&mut self.scheduler, now);
        }
        self.sync_apps(now);
        let mut out = Vec::new();
        for node in &mut self.nodes {
            out.extend(node.sample(now));
        }
        out
    }

    /// Advances the simulation to `now` sampling only node-level
    /// sensors (power/temp/memfree/cpu-idle) — the cheap path for
    /// long-horizon, node-granularity experiments.
    pub fn tick_node_level(&mut self, now: Timestamp) -> Vec<Sample> {
        if let Some(w) = self.workload.as_mut() {
            w.step(&mut self.scheduler, now);
        }
        self.sync_apps(now);
        let mut out = Vec::with_capacity(self.nodes.len() * 4);
        for node in &mut self.nodes {
            out.extend(node.sample_node_level(now));
        }
        out
    }

    /// Advances and samples a single node (used by per-node Pushers).
    pub fn tick_node(&mut self, node: usize, now: Timestamp) -> Vec<Sample> {
        if let Some(w) = self.workload.as_mut() {
            w.step(&mut self.scheduler, now);
        }
        self.sync_apps(now);
        self.nodes[node].sample(now)
    }

    fn sync_apps(&mut self, now: Timestamp) {
        // Which app should each node be running right now?
        let mut desired: Vec<Option<AppModel>> = vec![None; self.nodes.len()];
        for job in self.scheduler.running_at(now) {
            for &n in &job.nodes {
                if n < desired.len() {
                    desired[n] = Some(job.app);
                }
            }
        }
        for (n, node) in self.nodes.iter_mut().enumerate() {
            match (node.current_app(), desired[n]) {
                (cur, Some(app)) if cur != Some(app) => node.start_app(app, now),
                (Some(_), None) => node.stop_app(),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn tick_produces_all_sensors() {
        let mut sim = ClusterSimulator::new(ClusterConfig::small_manual(1));
        let samples = sim.tick(ts(1));
        // 8 nodes × (4 node-level + 2 OPA + 4 cores × 4 counters).
        assert_eq!(samples.len(), 8 * (6 + 16));
    }

    #[test]
    fn jobs_drive_node_apps() {
        let mut sim = ClusterSimulator::new(ClusterConfig::small_manual(1));
        sim.submit_job("u", AppModel::Hpl, vec![0, 1], ts(10), ts(100));
        sim.tick(ts(5));
        assert_eq!(sim.node_mut(0).current_app(), None);
        sim.tick(ts(20));
        assert_eq!(sim.node_mut(0).current_app(), Some(AppModel::Hpl));
        assert_eq!(sim.node_mut(1).current_app(), Some(AppModel::Hpl));
        assert_eq!(sim.node_mut(2).current_app(), None);
        sim.tick(ts(150));
        assert_eq!(sim.node_mut(0).current_app(), None);
    }

    #[test]
    fn busy_nodes_draw_more_power_than_free_ones() {
        let mut sim = ClusterSimulator::new(ClusterConfig::small_manual(2));
        sim.submit_job("u", AppModel::Hpl, vec![0], ts(0), ts(1000));
        let mut busy_power = 0i64;
        let mut idle_power = 0i64;
        for s in 1..=10u64 {
            for (topic, reading) in sim.tick(ts(s)) {
                if topic.as_str() == "/rack00/node00/power" {
                    busy_power += reading.value;
                }
                if topic.as_str() == "/rack00/node03/power" {
                    idle_power += reading.value;
                }
            }
        }
        assert!(
            busy_power > idle_power * 2,
            "busy {busy_power} idle {idle_power}"
        );
    }

    #[test]
    fn auto_workload_populates_scheduler() {
        let mut sim = ClusterSimulator::new(ClusterConfig {
            topology: Topology::small(),
            seed: 3,
            auto_workload: true,
        });
        for s in 0..120u64 {
            sim.tick(ts(s * 10));
        }
        assert!(!sim.scheduler().all().is_empty());
    }

    #[test]
    fn coolmuc3_scale_tick() {
        let mut sim = ClusterSimulator::new(ClusterConfig::coolmuc3(7));
        let samples = sim.tick(ts(1));
        assert_eq!(samples.len(), 148 * (6 + 64 * 4));
    }

    #[test]
    fn tick_node_isolates_one_node() {
        let mut sim = ClusterSimulator::new(ClusterConfig::small_manual(4));
        let samples = sim.tick_node(5, ts(1));
        assert_eq!(samples.len(), 6 + 16);
        assert!(samples
            .iter()
            .all(|(t, _)| t.as_str().starts_with("/rack01/node01/")));
    }
}
