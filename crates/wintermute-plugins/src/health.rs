//! Fault-detection plugin.
//!
//! Fault detection is one of the taxonomy's core ODA use cases
//! (paper §II-A), and the paper's running Unit System example computes
//! exactly this shape of output: a per-node `healthy` sensor derived
//! from per-core counters and chassis power (Fig. 2, §III-C). This
//! plugin implements a simple, robust online detector: each unit keeps
//! an exponentially-decayed baseline (mean + variance) per input sensor
//! and flags the unit unhealthy when the current window of any input
//! deviates from its baseline by more than `z_threshold` standard
//! deviations.
//!
//! Outputs `1` (healthy) or `0` (anomalous) — a time series a resiliency
//! pipeline can alert on, exactly the "detecting and predicting
//! anomalous states in hardware and software components" scenario.
//!
//! Options:
//! * `z_threshold` — deviation threshold in baseline standard
//!   deviations (default 4.0);
//! * `window_ms` — evaluation window (default 5000);
//! * `alpha` — baseline decay factor in (0, 1] (default 0.05);
//! * `warmup` — computations before verdicts are emitted (default 5;
//!   the baseline needs data before deviations mean anything).

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::NS_PER_MS;
use wintermute::prelude::*;

/// Per-sensor rolling baseline.
#[derive(Debug, Clone, Copy, Default)]
struct Baseline {
    mean: f64,
    var: f64,
    samples: usize,
}

impl Baseline {
    fn update(&mut self, x: f64, alpha: f64) {
        if self.samples == 0 {
            self.mean = x;
            self.var = 0.0;
        } else {
            let delta = x - self.mean;
            self.mean += alpha * delta;
            self.var = (1.0 - alpha) * (self.var + alpha * delta * delta);
        }
        self.samples += 1;
    }

    fn z_score(&self, x: f64) -> f64 {
        let std = self.var.sqrt();
        if std < 1e-9 {
            // Degenerate baseline: any change is infinitely surprising;
            // use a tolerant fallback of 1% of the mean.
            let fallback = (self.mean.abs() * 0.01).max(1e-9);
            (x - self.mean).abs() / fallback
        } else {
            (x - self.mean).abs() / std
        }
    }
}

/// Per-unit detector state.
#[derive(Debug, Default)]
struct UnitState {
    baselines: Vec<Baseline>,
    computations: usize,
}

/// The health operator.
pub struct HealthOperator {
    name: String,
    units: Vec<Unit>,
    window_ns: u64,
    z_threshold: f64,
    alpha: f64,
    warmup: usize,
    states: Vec<UnitState>,
    /// Unhealthy verdicts emitted (operator-level diagnostics).
    anomalies: u64,
}

impl Operator for HealthOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let unit = &self.units[i];
        let state = &mut self.states[i];
        if state.baselines.len() != unit.inputs.len() {
            state.baselines = vec![Baseline::default(); unit.inputs.len()];
        }
        state.computations += 1;

        let mut worst_z = 0.0f64;
        let mut saw_data = false;
        let window = QueryMode::Relative {
            offset_ns: self.window_ns,
        };
        for (k, baseline) in state.baselines.iter_mut().enumerate() {
            // The window mean, summed in reading order as `mean` does.
            let current = ctx.input_view(unit, k, window, |readings| {
                let sum: f64 = readings.iter().map(|r| r.value as f64).sum();
                (!readings.is_empty()).then(|| sum / readings.len() as f64)
            });
            let Some(current) = current else {
                continue;
            };
            saw_data = true;
            if state.computations > 1 {
                worst_z = worst_z.max(baseline.z_score(current));
            }
            baseline.update(current, self.alpha);
        }
        if !saw_data || state.computations <= self.warmup {
            return Ok(Vec::new());
        }
        let healthy = worst_z <= self.z_threshold;
        if !healthy {
            self.anomalies += 1;
        }
        Ok(unit
            .outputs
            .iter()
            .map(|o| (o.clone(), SensorReading::new(healthy as i64, ctx.now)))
            .collect())
    }

    fn operator_outputs(&mut self, ctx: &ComputeContext<'_>) -> Vec<Output> {
        let topic = match dcdb_common::Topic::parse(&format!("/analytics/{}/anomalies", self.name))
        {
            Ok(t) => t,
            Err(_) => return Vec::new(),
        };
        vec![(topic, SensorReading::new(self.anomalies as i64, ctx.now))]
    }
}

/// The plugin factory.
pub struct HealthPlugin;

impl OperatorPlugin for HealthPlugin {
    fn kind(&self) -> &str {
        "health"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let z_threshold = config.options.f64_or("z_threshold", 4.0);
        let alpha = config.options.f64_or("alpha", 0.05);
        if !(0.0..=1.0).contains(&alpha) || alpha == 0.0 {
            return Err(DcdbError::Config(format!("alpha {alpha} outside (0, 1]")));
        }
        let window_ns = config.options.u64_or("window_ms", 5000) * NS_PER_MS;
        let warmup = config.options.u64_or("warmup", 5) as usize;
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |name, units| {
            let states = units.iter().map(|_| UnitState::default()).collect();
            Ok(Box::new(HealthOperator {
                name,
                units,
                window_ns,
                z_threshold,
                alpha,
                warmup,
                states,
                anomalies: 0,
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

    fn setup() -> Arc<OperatorManager> {
        let qe = Arc::new(QueryEngine::new(64));
        qe.insert(
            &t("/n0/power"),
            SensorReading::new(100, Timestamp::from_secs(1)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(HealthPlugin));
        mgr.load(
            PluginConfig::online("hc", "health", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>healthy"])
                .with_option("z_threshold", 4.0)
                .with_option("window_ms", 2000u64)
                .with_option("warmup", 3u64),
        )
        .unwrap();
        mgr
    }

    fn feed(mgr: &OperatorManager, sec: u64, value: i64) {
        mgr.query_engine().insert(
            &t("/n0/power"),
            SensorReading::new(value, Timestamp::from_secs(sec)),
        );
        mgr.tick(Timestamp::from_secs(sec));
    }

    fn latest_health(mgr: &OperatorManager) -> Option<i64> {
        mgr.query_engine()
            .query(&t("/n0/healthy"), QueryMode::Latest)
            .first()
            .map(|r| r.value)
    }

    #[test]
    fn steady_signal_is_healthy() {
        let mgr = setup();
        for sec in 2..=20u64 {
            feed(&mgr, sec, 100 + (sec % 3) as i64);
        }
        assert_eq!(latest_health(&mgr), Some(1));
    }

    #[test]
    fn no_verdict_during_warmup() {
        let mgr = setup();
        feed(&mgr, 2, 100);
        feed(&mgr, 3, 100);
        assert_eq!(latest_health(&mgr), None);
    }

    #[test]
    fn level_shift_is_flagged_then_absorbed() {
        let mgr = setup();
        for sec in 2..=20u64 {
            feed(&mgr, sec, 100 + (sec % 3) as i64);
        }
        // Sudden jump far outside the baseline spread.
        feed(&mgr, 21, 400);
        feed(&mgr, 22, 400);
        assert_eq!(latest_health(&mgr), Some(0), "shift not flagged");
        // After enough time at the new level, the decayed baseline
        // adapts and the unit recovers (alpha=0.05 needs a while).
        for sec in 23..=140u64 {
            feed(&mgr, sec, 400 + (sec % 3) as i64);
        }
        assert_eq!(latest_health(&mgr), Some(1), "baseline never adapted");
    }

    #[test]
    fn anomaly_counter_is_published() {
        let mgr = setup();
        for sec in 2..=20u64 {
            feed(&mgr, sec, 100);
        }
        feed(&mgr, 21, 500);
        let count = mgr
            .query_engine()
            .query(&t("/analytics/hc/anomalies"), QueryMode::Latest);
        assert!(!count.is_empty());
        assert!(count[0].value >= 1);
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
        mgr.register_plugin(Box::new(HealthPlugin));
        let cfg = PluginConfig::online("hc", "health", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>healthy"])
            .with_option("alpha", 0.0);
        assert!(mgr.load(cfg).is_err());
    }
}
