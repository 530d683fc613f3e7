//! Generic aggregation plugin.
//!
//! Wintermute's bread-and-butter production deployment: "Wintermute is
//! currently deployed to perform aggregation of monitored metrics in
//! the CooLMUC-3 system" (paper §VII). Each unit aggregates the recent
//! window of its input sensors into one output value using a
//! configurable operation.
//!
//! Options:
//! * `op` — `"mean"` (default), `"sum"`, `"min"`, `"max"`, `"std"`,
//!   `"median"`, `"quantile"`;
//! * `q` — quantile in \[0, 1\] when `op == "quantile"`;
//! * `window_ms` — aggregation window (default 5000).

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::NS_PER_MS;
use oda_ml::stats;
use wintermute::prelude::*;

/// Supported aggregation operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateOp {
    /// Arithmetic mean.
    Mean,
    /// Sum of all window values.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Population standard deviation.
    Std,
    /// Median (0.5-quantile).
    Median,
    /// Arbitrary quantile.
    Quantile(f64),
}

impl AggregateOp {
    /// Parses the `op` / `q` options.
    pub fn from_options(options: &dcdb_common::KvConfig) -> Result<AggregateOp> {
        let name = options.str_opt("op").unwrap_or("mean");
        Ok(match name {
            "mean" => AggregateOp::Mean,
            "sum" => AggregateOp::Sum,
            "min" => AggregateOp::Min,
            "max" => AggregateOp::Max,
            "std" => AggregateOp::Std,
            "median" => AggregateOp::Median,
            "quantile" => {
                let q = options.f64("q")?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(DcdbError::Config(format!("quantile q={q} out of [0,1]")));
                }
                AggregateOp::Quantile(q)
            }
            other => {
                return Err(DcdbError::Config(format!(
                    "unknown aggregation op {other:?}"
                )))
            }
        })
    }

    /// Applies the operation to a window of values.
    pub fn apply(&self, values: &[f64]) -> f64 {
        match self {
            AggregateOp::Mean => stats::mean(values),
            AggregateOp::Sum => values.iter().sum(),
            AggregateOp::Min => stats::min(values),
            AggregateOp::Max => stats::max(values),
            AggregateOp::Std => stats::std_dev(values),
            AggregateOp::Median => stats::quantile(values, 0.5),
            AggregateOp::Quantile(q) => stats::quantile(values, *q),
        }
    }
}

/// The aggregation operator.
pub struct AggregatorOperator {
    name: String,
    units: Vec<Unit>,
    op: AggregateOp,
    window_ns: u64,
    /// One unit's window values, reused by every unit.
    values: Vec<f64>,
}

impl Operator for AggregatorOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let unit = &self.units[i];
        let window = QueryMode::Relative {
            offset_ns: self.window_ns,
        };
        self.values.clear();
        for k in 0..unit.inputs.len() {
            ctx.input_view(unit, k, window, |readings| {
                self.values.extend(readings.iter().map(|r| r.value as f64))
            });
        }
        if self.values.is_empty() {
            // No data yet: skip silently; aggregation on a cold cache is
            // expected at startup, not an error.
            return Ok(Vec::new());
        }
        let agg = self.op.apply(&self.values);
        // A non-representable aggregate (NaN/±inf division artifacts,
        // or magnitudes past i64) is an error the runtime counts, not
        // a silently saturated reading.
        let value = finite_output(format_args!("aggregator {}", self.name), agg)?;
        Ok(unit
            .outputs
            .iter()
            .map(|o| (o.clone(), SensorReading::new(value, ctx.now)))
            .collect())
    }
}

/// The plugin factory.
pub struct AggregatorPlugin;

impl OperatorPlugin for AggregatorPlugin {
    fn kind(&self) -> &str {
        "aggregator"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let op = AggregateOp::from_options(&config.options)?;
        let window_ns = config.options.u64_or("window_ms", 5000) * NS_PER_MS;
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |name, units| {
            Ok(Box::new(AggregatorOperator {
                name,
                units,
                op,
                window_ns,
                values: Vec::new(),
            }) as Box<dyn Operator>)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::{KvConfig, Timestamp, Topic};
    use std::sync::Arc;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn engine() -> Arc<QueryEngine> {
        let qe = Arc::new(QueryEngine::new(64));
        for n in 0..2 {
            for i in 1..=10u64 {
                qe.insert(
                    &t(&format!("/rack0/n{n}/power")),
                    SensorReading::new((n * 100 + i) as i64, Timestamp::from_secs(i)),
                );
            }
        }
        qe.rebuild_navigator();
        qe
    }

    fn manager() -> Arc<OperatorManager> {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(AggregatorPlugin));
        mgr
    }

    #[test]
    fn op_parsing() {
        let opts = KvConfig::new().with("op", "max");
        assert_eq!(AggregateOp::from_options(&opts).unwrap(), AggregateOp::Max);
        let opts = KvConfig::new();
        assert_eq!(AggregateOp::from_options(&opts).unwrap(), AggregateOp::Mean);
        let opts = KvConfig::new().with("op", "quantile").with("q", 0.9);
        assert_eq!(
            AggregateOp::from_options(&opts).unwrap(),
            AggregateOp::Quantile(0.9)
        );
        assert!(AggregateOp::from_options(&KvConfig::new().with("op", "nope")).is_err());
        assert!(
            AggregateOp::from_options(&KvConfig::new().with("op", "quantile").with("q", 1.5))
                .is_err()
        );
    }

    #[test]
    fn apply_matches_stats() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(AggregateOp::Mean.apply(&v), 2.5);
        assert_eq!(AggregateOp::Sum.apply(&v), 10.0);
        assert_eq!(AggregateOp::Min.apply(&v), 1.0);
        assert_eq!(AggregateOp::Max.apply(&v), 4.0);
        assert_eq!(AggregateOp::Median.apply(&v), 2.5);
        assert_eq!(AggregateOp::Quantile(1.0).apply(&v), 4.0);
    }

    #[test]
    fn end_to_end_mean_aggregation() {
        let mgr = manager();
        let cfg = PluginConfig::online("agg", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
            .with_option("op", "mean")
            .with_option("window_ms", 3_000u64);
        mgr.load(cfg).unwrap();
        let report = mgr.tick(Timestamp::from_secs(11));
        assert_eq!(report.operators_run, 1);
        assert_eq!(report.outputs_published, 2);
        // Node n0: values ~8,9,10 in the last 3 s window.
        let got = mgr
            .query_engine()
            .query(&t("/rack0/n0/power-avg"), QueryMode::Latest);
        assert!((8..=10).contains(&got[0].value), "{}", got[0].value);
    }

    #[test]
    fn rack_level_sum_aggregation() {
        // Pipelines upward: sum node powers into a rack sensor.
        let mgr = manager();
        let cfg = PluginConfig::online("rack-sum", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<topdown>rack-power"])
            .with_option("op", "sum")
            .with_option("window_ms", 0u64); // latest reading only
        mgr.load(cfg).unwrap();
        mgr.tick(Timestamp::from_secs(11));
        let got = mgr
            .query_engine()
            .query(&t("/rack0/rack-power"), QueryMode::Latest);
        // Latest values are 10 and 110.
        assert_eq!(got[0].value, 120);
    }

    #[test]
    fn extreme_aggregate_is_counted_error_not_saturated_output() {
        // A sum of i64::MAX readings overflows the representable
        // range. The runtime must count an operator error and publish
        // nothing — previously `agg.round() as i64` silently saturated
        // to i64::MAX and published it as a plausible reading.
        let qe = Arc::new(QueryEngine::new(8));
        for i in 1..=3u64 {
            qe.insert(
                &t("/r/n/power"),
                SensorReading::new(i64::MAX, Timestamp::from_secs(i)),
            );
        }
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(AggregatorPlugin));
        let cfg = PluginConfig::online("agg", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>out"])
            .with_option("op", "sum")
            .with_option("window_ms", 10_000u64);
        mgr.load(cfg).unwrap();
        let report = mgr.tick(Timestamp::from_secs(4));
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].contains("non-representable"),
            "{:?}",
            report.errors
        );
        assert!(mgr
            .query_engine()
            .query(&t("/r/n/out"), QueryMode::Latest)
            .is_empty());
    }

    #[test]
    fn empty_window_is_skipped_not_error() {
        let qe = Arc::new(QueryEngine::new(8));
        qe.insert(
            &t("/r/n/power"),
            SensorReading::new(5, Timestamp::from_secs(1)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(AggregatorPlugin));
        let cfg = PluginConfig::online("agg", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>out"]);
        mgr.load(cfg).unwrap();
        let report = mgr.tick(Timestamp::from_secs(2));
        assert!(report.errors.is_empty());
    }
}
