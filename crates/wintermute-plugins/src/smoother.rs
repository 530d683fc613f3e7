//! Exponential smoothing plugin.
//!
//! A small stateful operator used in production-style aggregation
//! pipelines: each unit maintains an exponentially weighted moving
//! average of its input sensor and publishes it as a derived sensor.
//! Where the [`aggregator`](crate::aggregator) recomputes over a window
//! each tick, the smoother carries state across ticks — it exists partly
//! to exercise and document that pattern for plugin authors.
//!
//! Options:
//! * `alpha` — smoothing factor in (0, 1]; higher = more reactive
//!   (default 0.2).

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use wintermute::prelude::*;

/// The smoothing operator.
pub struct SmootherOperator {
    name: String,
    units: Vec<Unit>,
    alpha: f64,
    /// Per-unit EWMA state.
    state: Vec<Option<f64>>,
}

impl Operator for SmootherOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let unit = &self.units[i];
        let latest = ctx.input_view(unit, 0, QueryMode::Latest, |latest| {
            latest.last().map(|r| r.value as f64)
        });
        let Some(latest) = latest else {
            return Ok(Vec::new());
        };
        let smoothed = match self.state[i] {
            None => latest,
            Some(prev) => prev + self.alpha * (latest - prev),
        };
        self.state[i] = Some(smoothed);
        let value = finite_output(format_args!("smoother {}", self.name), smoothed)?;
        Ok(unit
            .outputs
            .iter()
            .map(|o| (o.clone(), SensorReading::new(value, ctx.now)))
            .collect())
    }
}

/// The plugin factory.
pub struct SmootherPlugin;

impl OperatorPlugin for SmootherPlugin {
    fn kind(&self) -> &str {
        "smoother"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let alpha = config.options.f64_or("alpha", 0.2);
        if !(0.0..=1.0).contains(&alpha) || alpha == 0.0 {
            return Err(DcdbError::Config(format!("alpha {alpha} outside (0, 1]")));
        }
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |name, units| {
            let state = vec![None; units.len()];
            Ok(Box::new(SmootherOperator {
                name,
                units,
                alpha,
                state,
            }) as Box<dyn Operator>)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::{Timestamp, Topic};
    use std::sync::Arc;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn setup(alpha: f64) -> Arc<OperatorManager> {
        let qe = Arc::new(QueryEngine::new(32));
        qe.insert(
            &t("/n0/power"),
            SensorReading::new(100, Timestamp::from_secs(1)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(SmootherPlugin));
        mgr.load(
            PluginConfig::online("sm", "smoother", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>power-smooth"])
                .with_option("alpha", alpha),
        )
        .unwrap();
        mgr
    }

    #[test]
    fn first_sample_initializes_state() {
        let mgr = setup(0.5);
        mgr.tick(Timestamp::from_secs(2));
        let got = mgr
            .query_engine()
            .query(&t("/n0/power-smooth"), QueryMode::Latest);
        assert_eq!(got[0].value, 100);
    }

    #[test]
    fn smoothing_lags_step_changes() {
        let mgr = setup(0.5);
        mgr.tick(Timestamp::from_secs(2)); // ewma = 100
        mgr.query_engine().insert(
            &t("/n0/power"),
            SensorReading::new(200, Timestamp::from_secs(3)),
        );
        mgr.tick(Timestamp::from_secs(3)); // ewma = 150
        let got = mgr
            .query_engine()
            .query(&t("/n0/power-smooth"), QueryMode::Latest);
        assert_eq!(got[0].value, 150);
        mgr.query_engine().insert(
            &t("/n0/power"),
            SensorReading::new(200, Timestamp::from_secs(4)),
        );
        mgr.tick(Timestamp::from_secs(4)); // ewma = 175
        let got = mgr
            .query_engine()
            .query(&t("/n0/power-smooth"), QueryMode::Latest);
        assert_eq!(got[0].value, 175);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let qe = Arc::new(QueryEngine::new(8));
        qe.insert(
            &t("/n0/power"),
            SensorReading::new(1, Timestamp::from_secs(1)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(SmootherPlugin));
        for alpha in [0.0, -0.5, 1.5] {
            let cfg = PluginConfig::online(&format!("sm{alpha}"), "smoother", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>out"])
                .with_option("alpha", alpha);
            assert!(mgr.load(cfg).is_err(), "alpha {alpha}");
        }
    }
}
