//! Job scheduling simulation.
//!
//! The persyst case study asks the Collect Agent for "the set of running
//! jobs on the HPC system" and instantiates one unit per job
//! (paper §VI-C). This module provides that substrate: a job table with
//! start/end times and node lists, plus a workload generator that keeps
//! the simulated cluster busy according to each node's behavioural
//! profile.

use crate::apps::AppModel;
use crate::node::ProfileClass;
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A batch job occupying a set of nodes for a span of time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Scheduler-assigned job id.
    pub id: u64,
    /// Submitting user.
    pub user: String,
    /// The application the job runs.
    pub app: AppModel,
    /// Global node indices allocated to the job.
    pub nodes: Vec<usize>,
    /// Start time.
    pub start: Timestamp,
    /// End time (exclusive).
    pub end: Timestamp,
}

impl Job {
    /// True if the job is running at `t`.
    pub fn is_running_at(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }
}

/// The job table.
#[derive(Debug, Default)]
pub struct JobScheduler {
    jobs: Vec<Job>,
    next_id: u64,
}

impl JobScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a job; node lists must be non-empty and the time span
    /// positive. Returns the assigned id.
    pub fn submit(
        &mut self,
        user: &str,
        app: AppModel,
        nodes: Vec<usize>,
        start: Timestamp,
        end: Timestamp,
    ) -> u64 {
        assert!(!nodes.is_empty(), "job needs at least one node");
        assert!(end > start, "job must have positive duration");
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.push(Job {
            id,
            user: user.to_string(),
            app,
            nodes,
            start,
            end,
        });
        id
    }

    /// Jobs running at time `t`.
    pub fn running_at(&self, t: Timestamp) -> Vec<&Job> {
        self.jobs.iter().filter(|j| j.is_running_at(t)).collect()
    }

    /// All jobs ever submitted.
    pub fn all(&self) -> &[Job] {
        &self.jobs
    }

    /// Nodes that are free (not allocated to any running job) at `t`,
    /// out of `total_nodes`.
    pub fn free_nodes(&self, t: Timestamp, total_nodes: usize) -> Vec<usize> {
        let mut busy = vec![false; total_nodes];
        for j in self.running_at(t) {
            for &n in &j.nodes {
                if n < total_nodes {
                    busy[n] = true;
                }
            }
        }
        (0..total_nodes).filter(|&n| !busy[n]).collect()
    }
}

/// Randomized workload generation driven by node profiles: heavy nodes
/// are preferentially allocated, under-utilized nodes mostly skipped —
/// this is what makes the long-term node behaviour separable into the
/// clusters of the paper's Fig. 8.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: StdRng,
    profiles: Vec<ProfileClass>,
    /// Mean time between job submissions, seconds.
    pub mean_interarrival_s: f64,
    /// Job duration range, seconds.
    pub duration_range_s: (f64, f64),
    /// Job size range in nodes.
    pub size_range: (usize, usize),
    next_submit: Timestamp,
    /// First timestamp seen; anchors the arrival process and the
    /// utilization accounting.
    t0: Option<Timestamp>,
    /// Cumulative seconds of allocated job time per node, used to hold
    /// every node to its profile's long-run duty cycle.
    busy_s: Vec<f64>,
}

impl WorkloadGenerator {
    /// Creates a generator for nodes with the given profiles.
    pub fn new(profiles: Vec<ProfileClass>, seed: u64) -> Self {
        let n = profiles.len();
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(seed),
            profiles,
            mean_interarrival_s: 30.0,
            duration_range_s: (120.0, 900.0),
            size_range: (1, 8),
            next_submit: Timestamp::ZERO,
            t0: None,
            busy_s: vec![0.0; n],
        }
    }

    /// Advances the generator to `now`, possibly submitting new jobs.
    /// Returns the ids of jobs submitted this step.
    pub fn step(&mut self, scheduler: &mut JobScheduler, now: Timestamp) -> Vec<u64> {
        // Lazy epoch: the first observed timestamp anchors the arrival
        // process. Without this, wall-clock timestamps (decades past
        // epoch zero) would make the catch-up loop below spin for
        // billions of iterations.
        if self.t0.is_none() {
            self.t0 = Some(now);
            self.next_submit = now;
        }
        let mut submitted = Vec::new();
        while self.next_submit <= now {
            // Exponential inter-arrival times.
            let u: f64 = self.rng.gen_range(1e-9..1.0);
            let gap_s = -self.mean_interarrival_s * u.ln();
            self.next_submit = self
                .next_submit
                .saturating_add_ns((gap_s * NS_PER_SEC as f64) as u64);

            let free = scheduler.free_nodes(now, self.profiles.len());
            if free.is_empty() {
                continue;
            }
            // Hold every node to its profile's long-run duty cycle: a
            // node is eligible only while its achieved utilization is
            // below target (plus a small random admission to break ties
            // early in the run).
            let elapsed_s = (now.elapsed_since(self.t0.unwrap_or(Timestamp::ZERO)) as f64
                / NS_PER_SEC as f64)
                .max(1.0);
            let mut candidates: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&n| {
                    let target = self.profiles[n].duty_cycle();
                    self.busy_s[n] / elapsed_s < target && self.rng.gen::<f64>() < target.max(0.05)
                })
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let size = self
                .rng
                .gen_range(self.size_range.0..=self.size_range.1)
                .min(candidates.len());
            // Random subset of the willing candidates.
            for i in (1..candidates.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                candidates.swap(i, j);
            }
            candidates.truncate(size);
            let apps = [
                AppModel::Kripke,
                AppModel::Amg,
                AppModel::Nekbone,
                AppModel::Lammps,
                AppModel::Hpl,
            ];
            let app = apps[self.rng.gen_range(0..apps.len())];
            let dur_s = self
                .rng
                .gen_range(self.duration_range_s.0..self.duration_range_s.1);
            for &n in &candidates {
                self.busy_s[n] += dur_s;
            }
            let id = scheduler.submit(
                &format!("user{:02}", self.rng.gen_range(0..16)),
                app,
                candidates,
                now,
                now.saturating_add_ns((dur_s * NS_PER_SEC as f64) as u64),
            );
            submitted.push(id);
        }
        submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn submit_and_query() {
        let mut sched = JobScheduler::new();
        let id = sched.submit("alice", AppModel::Kripke, vec![0, 1], ts(10), ts(100));
        assert_eq!(sched.running_at(ts(5)).len(), 0);
        assert_eq!(sched.running_at(ts(99)).len(), 1);
        assert_eq!(sched.running_at(ts(100)).len(), 0);
        let job = sched.running_at(ts(10))[0];
        assert_eq!(job.id, id);
        assert_eq!(job.user, "alice");
        assert_eq!(job.nodes, vec![0, 1]);
    }

    #[test]
    fn overlapping_jobs() {
        let mut sched = JobScheduler::new();
        sched.submit("a", AppModel::Amg, vec![0], ts(0), ts(50));
        sched.submit("b", AppModel::Lammps, vec![1], ts(25), ts(75));
        assert_eq!(sched.running_at(ts(30)).len(), 2);
        assert_eq!(sched.running_at(ts(60)).len(), 1);
    }

    #[test]
    fn free_nodes_excludes_running() {
        let mut sched = JobScheduler::new();
        sched.submit("a", AppModel::Hpl, vec![1, 3], ts(0), ts(100));
        assert_eq!(sched.free_nodes(ts(50), 5), vec![0, 2, 4]);
        assert_eq!(sched.free_nodes(ts(200), 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_rejected() {
        JobScheduler::new().submit("x", AppModel::Hpl, vec![0], ts(5), ts(5));
    }

    #[test]
    fn workload_generator_keeps_cluster_busy() {
        let profiles = ProfileClass::assign(32, 3);
        let mut gen = WorkloadGenerator::new(profiles.clone(), 3);
        let mut sched = JobScheduler::new();
        // Simulate an hour in 10 s steps.
        for step in 0..360u64 {
            gen.step(&mut sched, ts(step * 10));
        }
        assert!(!sched.all().is_empty(), "no jobs submitted");
        // Mid-simulation, a decent share of nodes should be busy.
        let busy = 32 - sched.free_nodes(ts(1800), 32).len();
        assert!(busy > 4, "only {busy} nodes busy");
        // Heavy-profile nodes should be allocated more often than
        // under-utilized ones in aggregate.
        let mut alloc = vec![0usize; 32];
        for j in sched.all() {
            for &n in &j.nodes {
                alloc[n] += 1;
            }
        }
        let avg = |class: ProfileClass| {
            let idx: Vec<usize> = (0..32).filter(|&n| profiles[n] == class).collect();
            if idx.is_empty() {
                return 0.0;
            }
            idx.iter().map(|&n| alloc[n]).sum::<usize>() as f64 / idx.len() as f64
        };
        assert!(
            avg(ProfileClass::Heavy) > avg(ProfileClass::Underutilized),
            "heavy {} vs under {}",
            avg(ProfileClass::Heavy),
            avg(ProfileClass::Underutilized)
        );
    }

    #[test]
    fn workload_generator_is_deterministic() {
        let profiles = ProfileClass::assign(16, 1);
        let run = |seed| {
            let mut gen = WorkloadGenerator::new(profiles.clone(), seed);
            let mut sched = JobScheduler::new();
            for step in 0..100u64 {
                gen.step(&mut sched, ts(step * 10));
            }
            sched.all().to_vec()
        };
        assert_eq!(run(5), run(5));
    }
}
