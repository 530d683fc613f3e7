//! Per-job quantile aggregation plugin (paper §VI-C, Case Study 2 —
//! second pipeline stage; a re-implementation of the PerSyst transport).
//!
//! "A second persyst plugin is instantiated in the main Collect Agent:
//! at each computing interval, it queries the set of running jobs on the
//! HPC system, and for each of them it instantiates a unit ... units
//! have as input one of the perfmetrics derived metrics from all compute
//! nodes on which the job is running. From these, the operator computes
//! a series of job-level statistical indicators."
//!
//! Each job unit gathers the chosen metric (default `cpi`) from every
//! core of every node in the job and publishes the 11 deciles of that
//! distribution under `/job/<id>/d0 .. d10` — exactly the series
//! Figure 7 plots.
//!
//! Options:
//! * `input` — metric sensor name to aggregate (default `"cpi"`);
//! * `fixed_point` — whether input values are ×1000 fixed point
//!   (default true: perfmetrics outputs are);
//! * `window_ms` — how far back to look for each core's latest value
//!   (default 3000).

use dcdb_common::error::Result;
use dcdb_common::reading::{decode_f64, encode_f64, SensorReading};
use dcdb_common::time::NS_PER_MS;
use oda_ml::stats::deciles;
use std::sync::Arc;
use wintermute::prelude::*;

/// The 11 output sensor names.
pub const DECILE_SENSORS: [&str; 11] = [
    "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10",
];

/// The per-job aggregation operator.
pub struct PersystOperator {
    name: String,
    builder: JobUnitBuilder,
    source: Arc<dyn JobDataSource>,
    units: Vec<Unit>,
    window_ns: u64,
    fixed_point: bool,
}

impl Operator for PersystOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn refresh_units(&mut self, ctx: &ComputeContext<'_>) -> Result<()> {
        let nav = ctx.query.navigator();
        self.units = self
            .builder
            .units_for_all(self.source.as_ref(), &nav, ctx.now)
            .into_iter()
            .map(|(_, u)| u)
            .collect();
        Ok(())
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let unit = &self.units[i];
        // Latest value of the metric on every core of the job.
        let mut values = Vec::with_capacity(unit.inputs.len());
        let window = QueryMode::Relative {
            offset_ns: self.window_ns,
        };
        for k in 0..unit.inputs.len() {
            let last = ctx.input_view(unit, k, window, |recent| recent.last().copied());
            if let Some(last) = last {
                values.push(if self.fixed_point {
                    decode_f64(last.value)
                } else {
                    last.value as f64
                });
            }
        }
        if values.is_empty() {
            return Ok(Vec::new()); // job just started; metrics not flowing yet
        }
        let ds = deciles(&values);
        Ok(unit
            .outputs
            .iter()
            .zip(ds.iter())
            .map(|(o, &d)| (o.clone(), SensorReading::new(encode_f64(d), ctx.now)))
            .collect())
    }
}

/// The plugin factory; carries the job data source it hands to every
/// operator (the Collect Agent wires in the resource manager's view).
pub struct PersystPlugin {
    source: Arc<dyn JobDataSource>,
}

impl PersystPlugin {
    /// Creates the factory around a job data source.
    pub fn new(source: Arc<dyn JobDataSource>) -> Self {
        PersystPlugin { source }
    }
}

impl OperatorPlugin for PersystPlugin {
    fn kind(&self) -> &str {
        "persyst"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        _nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let input = config.options.str_opt("input").unwrap_or("cpi").to_string();
        let fixed_point = config.options.bool_or("fixed_point", true);
        let window_ns = config.options.u64_or("window_ms", 3000) * NS_PER_MS;
        let builder = JobUnitBuilder::new(&input, &DECILE_SENSORS)?;
        // Units are dynamic (one per running job), so configuration
        // ignores pattern expressions and starts with no units.
        Ok(vec![Box::new(PersystOperator {
            name: config.name.clone(),
            builder,
            source: Arc::clone(&self.source),
            units: Vec::new(),
            window_ns,
            fixed_point,
        })])
    }
}

/// Decodes a decile output value.
pub fn decode_decile(reading: &SensorReading) -> f64 {
    decode_f64(reading.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::{Timestamp, Topic};

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// Engine with per-core CPI sensors on two nodes (4 cores each).
    fn engine() -> Arc<QueryEngine> {
        let qe = Arc::new(QueryEngine::new(32));
        for node in 0..2 {
            for core in 0..4 {
                let topic = t(&format!("/r0/n{node}/cpu{core}/cpi"));
                // CPI value = node*4+core+1 (1..=8), fixed point.
                let v = encode_f64((node * 4 + core + 1) as f64);
                qe.insert(&topic, SensorReading::new(v, Timestamp::from_secs(5)));
            }
        }
        qe.rebuild_navigator();
        qe
    }

    fn manager_with_jobs(jobs: Vec<JobInfo>) -> Arc<OperatorManager> {
        let source = Arc::new(StaticJobSource::new());
        source.set_jobs(jobs);
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(PersystPlugin::new(source)));
        mgr.load(PluginConfig::online("ps", "persyst", 1000))
            .unwrap();
        mgr
    }

    fn job(id: u64, nodes: &[&str]) -> JobInfo {
        JobInfo {
            id,
            user: "u".into(),
            node_paths: nodes.iter().map(|n| t(n)).collect(),
        }
    }

    #[test]
    fn deciles_across_job_cores() {
        let mgr = manager_with_jobs(vec![job(1, &["/r0/n0", "/r0/n1"])]);
        let report = mgr.tick(Timestamp::from_secs(6));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.outputs_published, 11);
        // Values 1..=8 across 8 cores: d0 = 1, d10 = 8, d5 = 4.5.
        let d0 = mgr.query_engine().query(&t("/job/1/d0"), QueryMode::Latest);
        let d5 = mgr.query_engine().query(&t("/job/1/d5"), QueryMode::Latest);
        let d10 = mgr
            .query_engine()
            .query(&t("/job/1/d10"), QueryMode::Latest);
        assert!((decode_decile(&d0[0]) - 1.0).abs() < 1e-9);
        assert!((decode_decile(&d5[0]) - 4.5).abs() < 1e-9);
        assert!((decode_decile(&d10[0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn one_unit_per_running_job() {
        let mgr = manager_with_jobs(vec![job(1, &["/r0/n0"]), job(2, &["/r0/n1"])]);
        let report = mgr.tick(Timestamp::from_secs(6));
        assert_eq!(report.outputs_published, 22);
        assert!(!mgr
            .query_engine()
            .query(&t("/job/1/d5"), QueryMode::Latest)
            .is_empty());
        assert!(!mgr
            .query_engine()
            .query(&t("/job/2/d5"), QueryMode::Latest)
            .is_empty());
        // Jobs see only their own nodes: job 1 max = 4, job 2 min = 5.
        let d10 = mgr
            .query_engine()
            .query(&t("/job/1/d10"), QueryMode::Latest);
        assert!((decode_decile(&d10[0]) - 4.0).abs() < 1e-9);
        let d0 = mgr.query_engine().query(&t("/job/2/d0"), QueryMode::Latest);
        assert!((decode_decile(&d0[0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn units_follow_job_churn() {
        let source = Arc::new(StaticJobSource::new());
        source.set_jobs(vec![job(1, &["/r0/n0"])]);
        let mgr = OperatorManager::new(engine());
        let src: Arc<dyn JobDataSource> = Arc::clone(&source) as Arc<dyn JobDataSource>;
        mgr.register_plugin(Box::new(PersystPlugin::new(src)));
        mgr.load(PluginConfig::online("ps", "persyst", 1000))
            .unwrap();
        mgr.tick(Timestamp::from_secs(6));
        assert_eq!(mgr.units_of("ps").unwrap().len(), 1);
        // Job 1 ends; jobs 2 and 3 start.
        source.set_jobs(vec![job(2, &["/r0/n0"]), job(3, &["/r0/n1"])]);
        mgr.tick(Timestamp::from_secs(7));
        let units = mgr.units_of("ps").unwrap();
        let names: Vec<&str> = units.iter().map(|u| u.as_str()).collect();
        assert_eq!(names, vec!["/job/2", "/job/3"]);
    }

    #[test]
    fn no_jobs_no_outputs() {
        let mgr = manager_with_jobs(vec![]);
        let report = mgr.tick(Timestamp::from_secs(6));
        assert_eq!(report.outputs_published, 0);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn job_on_unmonitored_nodes_is_skipped() {
        let mgr = manager_with_jobs(vec![job(9, &["/r9/ghost"])]);
        let report = mgr.tick(Timestamp::from_secs(6));
        assert_eq!(report.outputs_published, 0);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn pipeline_from_perfmetrics_to_persyst() {
        // Full two-stage pipeline inside one engine: perfmetrics derives
        // CPI from counters, persyst aggregates it per job.
        let qe = Arc::new(QueryEngine::new(64));
        for sec in 0..=5u64 {
            for core in 0..4 {
                qe.insert(
                    &t(&format!("/r0/n0/cpu{core}/cycles")),
                    SensorReading::new(
                        (sec * 1_000_000 * (core + 2)) as i64,
                        Timestamp::from_secs(sec),
                    ),
                );
                qe.insert(
                    &t(&format!("/r0/n0/cpu{core}/instructions")),
                    SensorReading::new((sec * 1_000_000) as i64, Timestamp::from_secs(sec)),
                );
            }
        }
        qe.rebuild_navigator();
        let source = Arc::new(StaticJobSource::new());
        source.set_jobs(vec![job(7, &["/r0/n0"])]);
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(crate::perfmetrics::PerfMetricsPlugin));
        mgr.register_plugin(Box::new(PersystPlugin::new(source)));
        mgr.load(crate::perfmetrics::cpi_config("pm", 1000).with_option("window_ms", 4000u64))
            .unwrap();
        mgr.load(PluginConfig::online("ps", "persyst", 1000))
            .unwrap();

        // Tick 1: perfmetrics publishes CPI; persyst sees no cpi sensors
        // in the tree yet (navigator predates them).
        mgr.tick(Timestamp::from_secs(6));
        mgr.query_engine().rebuild_navigator();
        // Tick 2: persyst now aggregates the derived metric.
        let report = mgr.tick(Timestamp::from_secs(7));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let d10 = mgr
            .query_engine()
            .query(&t("/job/7/d10"), QueryMode::Latest);
        assert!(!d10.is_empty(), "pipeline did not produce job deciles");
        // Core CPIs are 2,3,4,5 -> max 5.
        assert!((decode_decile(&d10[0]) - 5.0).abs() < 0.01);
    }
}
