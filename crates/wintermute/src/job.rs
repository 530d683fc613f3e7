//! Job operators (paper §V-C, §VI-C).
//!
//! "Job operator plugins are an extension of normal operator plugins,
//! complying to the same interface, and can also use job-related data
//! (e.g., user id or node list) producing output that is associated to
//! a specific job."
//!
//! A [`JobDataSource`] supplies the set of running jobs; the
//! [`JobUnitBuilder`] turns each job into a unit whose inputs gather a
//! named sensor across the subtrees of every node the job runs on, and
//! whose outputs live under the virtual `/job/<id>/` namespace so
//! per-job results flow through the same caches, bus and storage as any
//! other sensor.

use crate::tree::SensorNavigator;
use crate::unit::Unit;
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;

/// Job metadata exposed to job operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// Scheduler job id.
    pub id: u64,
    /// Submitting user.
    pub user: String,
    /// Component paths of the nodes allocated to the job.
    pub node_paths: Vec<Topic>,
}

/// Supplies the currently running jobs (implemented by the collect
/// agent against the resource manager; by the simulator in tests).
pub trait JobDataSource: Send + Sync {
    /// Jobs running at `now`.
    fn running_jobs(&self, now: Timestamp) -> Vec<JobInfo>;
}

/// A fixed job list (tests, replays).
#[derive(Debug, Default)]
pub struct StaticJobSource {
    jobs: parking_lot::RwLock<Vec<JobInfo>>,
}

impl StaticJobSource {
    /// Creates an empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the job list.
    pub fn set_jobs(&self, jobs: Vec<JobInfo>) {
        *self.jobs.write() = jobs;
    }
}

impl JobDataSource for StaticJobSource {
    fn running_jobs(&self, _now: Timestamp) -> Vec<JobInfo> {
        self.jobs.read().clone()
    }
}

/// Builds per-job units: inputs = every sensor named `input_sensor`
/// under any of the job's nodes; outputs = the requested output names
/// under `/job/<id>/`.
#[derive(Debug, Clone)]
pub struct JobUnitBuilder {
    /// The metric gathered from the job's nodes (e.g. `"cpi"`).
    pub input_sensor: String,
    /// Output sensor names created under the job topic.
    pub output_sensors: Vec<String>,
}

impl JobUnitBuilder {
    /// Creates a builder; at least one output name is required.
    pub fn new(input_sensor: &str, output_sensors: &[&str]) -> Result<JobUnitBuilder> {
        if output_sensors.is_empty() {
            return Err(DcdbError::Config(
                "job unit builder needs at least one output sensor".into(),
            ));
        }
        Ok(JobUnitBuilder {
            input_sensor: input_sensor.to_string(),
            output_sensors: output_sensors.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// The virtual topic of a job.
    pub fn job_topic(id: u64) -> Topic {
        Topic::parse(&format!("/job/{id}")).expect("valid job topic")
    }

    /// Builds the unit for one job against the current tree; `None`
    /// when no node of the job carries the input sensor (the job just
    /// started, or its nodes are not monitored).
    pub fn unit_for(&self, job: &JobInfo, nav: &SensorNavigator) -> Option<Unit> {
        let mut inputs = Vec::new();
        for node in &job.node_paths {
            inputs.extend(nav.sensors_in_subtree(node, &self.input_sensor));
        }
        if inputs.is_empty() {
            return None;
        }
        let job_topic = Self::job_topic(job.id);
        let outputs = self
            .output_sensors
            .iter()
            .map(|s| job_topic.child(s).expect("valid output topic"))
            .collect();
        Some(Unit::new(job_topic, inputs, outputs))
    }

    /// Builds units for every running job.
    pub fn units_for_all(
        &self,
        source: &dyn JobDataSource,
        nav: &SensorNavigator,
        now: Timestamp,
    ) -> Vec<(JobInfo, Unit)> {
        source
            .running_jobs(now)
            .into_iter()
            .filter_map(|job| self.unit_for(&job, nav).map(|u| (job, u)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn nav() -> SensorNavigator {
        let topics: Vec<Topic> = vec![
            t("/r0/n0/cpu0/cpi"),
            t("/r0/n0/cpu1/cpi"),
            t("/r0/n0/power"),
            t("/r0/n1/cpu0/cpi"),
            t("/r0/n1/cpu1/cpi"),
            t("/r1/n0/cpu0/cpi"),
        ];
        SensorNavigator::build(&topics)
    }

    fn job(id: u64, nodes: &[&str]) -> JobInfo {
        JobInfo {
            id,
            user: "alice".into(),
            node_paths: nodes.iter().map(|n| t(n)).collect(),
        }
    }

    #[test]
    fn unit_gathers_sensor_across_job_nodes() {
        let builder = JobUnitBuilder::new("cpi", &["cpi-median"]).unwrap();
        let unit = builder
            .unit_for(&job(42, &["/r0/n0", "/r0/n1"]), &nav())
            .unwrap();
        assert_eq!(unit.name.as_str(), "/job/42");
        assert_eq!(unit.inputs.len(), 4);
        assert!(unit.inputs.iter().all(|i| i.name() == "cpi"));
        assert_eq!(unit.outputs, vec![t("/job/42/cpi-median")]);
    }

    #[test]
    fn job_without_monitored_nodes_yields_none() {
        let builder = JobUnitBuilder::new("cpi", &["out"]).unwrap();
        assert!(builder.unit_for(&job(1, &["/r9/n9"]), &nav()).is_none());
        // Node exists but lacks the sensor.
        let builder = JobUnitBuilder::new("nonexistent", &["out"]).unwrap();
        assert!(builder.unit_for(&job(2, &["/r0/n0"]), &nav()).is_none());
    }

    #[test]
    fn static_source_units_for_all() {
        let source = StaticJobSource::new();
        source.set_jobs(vec![
            job(1, &["/r0/n0"]),
            job(2, &["/r9/gone"]),
            job(3, &["/r1/n0"]),
        ]);
        let builder = JobUnitBuilder::new("cpi", &["deciles"]).unwrap();
        let units = builder.units_for_all(&source, &nav(), Timestamp::ZERO);
        let ids: Vec<u64> = units.iter().map(|(j, _)| j.id).collect();
        assert_eq!(ids, vec![1, 3]); // job 2 has no monitored nodes
        assert_eq!(units[0].1.inputs.len(), 2);
        assert_eq!(units[1].1.inputs.len(), 1);
    }

    #[test]
    fn multiple_outputs_under_job_topic() {
        let builder = JobUnitBuilder::new("cpi", &["d0", "d5", "d10"]).unwrap();
        let unit = builder.unit_for(&job(7, &["/r0/n0"]), &nav()).unwrap();
        let outs: Vec<&str> = unit.outputs.iter().map(|o| o.as_str()).collect();
        assert_eq!(outs, vec!["/job/7/d0", "/job/7/d5", "/job/7/d10"]);
    }

    #[test]
    fn builder_requires_outputs() {
        assert!(JobUnitBuilder::new("cpi", &[]).is_err());
    }

    #[test]
    fn node_level_sensor_is_found_from_node_root() {
        let builder = JobUnitBuilder::new("power", &["avg"]).unwrap();
        let unit = builder.unit_for(&job(9, &["/r0/n0"]), &nav()).unwrap();
        assert_eq!(unit.inputs, vec![t("/r0/n0/power")]);
    }
}
