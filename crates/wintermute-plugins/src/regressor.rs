//! Online random-forest regression plugin (paper §VI-B, Case Study 1).
//!
//! Re-implements the paper's regressor: "at each computation interval,
//! for each input sensor of a certain unit a series of statistical
//! features (e.g., mean or standard deviation) are computed from its
//! recent readings. These features are then combined to form a feature
//! vector, which is fed into the random forest model to perform
//! regression and output a sensor prediction of the next \[interval\].
//! Training of the model, which is shared by all units of an operator,
//! is performed automatically: feature vectors are accumulated in
//! memory until a certain training set size is reached."
//!
//! Options:
//! * `target` — name (last segment) of the input sensor to predict
//!   (required);
//! * `training_size` — samples accumulated before fitting (default
//!   1000; the paper's case study uses 30 000);
//! * `window_ms` — feature window (default 4 × interval);
//! * `trees` — forest size (default 20);
//! * `max_depth` — tree depth cap (default 12);
//! * `features` — list of per-sensor statistics (default
//!   mean/std/min/max/last/slope).
//!
//! The operator also exposes an operator-level output —
//! `<first unit>/avg-rel-error` — carrying the running mean relative
//! error across all units, mirroring §V-C.2's "average error of a model
//! applied to a set of units". Option `model` switches between the
//! paper's random forest and a ridge-regression ablation baseline.

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::{encode_f64, SensorReading};
use dcdb_common::time::NS_PER_MS;
use oda_ml::features::{Feature, FeatureExtractor};
use oda_ml::forest::{ForestConfig, RandomForest};
use oda_ml::linear::RidgeRegression;
use oda_ml::tree::TreeConfig;
use wintermute::prelude::*;

/// Which model family the operator trains (option `model`); the random
/// forest is the paper's choice, ridge regression the ablation baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Bagged CART forest (paper §VI-B).
    Forest,
    /// Ridge linear regression (ablation baseline).
    Linear,
}

enum FittedModel {
    Forest(RandomForest),
    Linear(RidgeRegression),
}

impl FittedModel {
    fn predict(&self, features: &[f64]) -> f64 {
        match self {
            FittedModel::Forest(m) => m.predict(features),
            FittedModel::Linear(m) => m.predict(features),
        }
    }
}

/// Per-unit training state.
#[derive(Default)]
struct UnitState {
    /// Features computed at the previous tick, waiting for their label
    /// (the target's value one interval later).
    pending: Option<Vec<f64>>,
    /// Relative errors of recent predictions (bounded).
    recent_errors: Vec<f64>,
    /// The last prediction made, to score once truth arrives.
    last_prediction: Option<f64>,
}

/// The regression operator. One model shared by all of its units
/// (sequential mode), or one per unit (parallel mode — the configurator
/// splits units across operators, giving each its own model).
pub struct RegressorOperator {
    name: String,
    units: Vec<Unit>,
    extractor: FeatureExtractor,
    target: String,
    window_ns: u64,
    training_size: usize,
    forest_config: ForestConfig,
    model_kind: ModelKind,
    /// Accumulated training data (shared across units, as in the paper).
    train_x: Vec<Vec<f64>>,
    train_y: Vec<f64>,
    model: Option<FittedModel>,
    states: Vec<UnitState>,
    retrain: bool,
}

impl RegressorOperator {
    fn feature_vector(&self, unit: &Unit, ctx: &ComputeContext<'_>) -> Vec<f64> {
        let window = QueryMode::Relative {
            offset_ns: self.window_ns,
        };
        let windows: Vec<Vec<f64>> = (0..unit.inputs.len())
            .map(|k| {
                ctx.input_view(unit, k, window, |readings| {
                    readings.iter().map(|r| r.value as f64).collect()
                })
            })
            .collect();
        self.extractor.extract(&windows)
    }

    fn target_value(&self, unit: &Unit, ctx: &ComputeContext<'_>) -> Option<f64> {
        let target = unit.inputs.iter().position(|i| i.name() == self.target)?;
        ctx.input_view(unit, target, QueryMode::Latest, |latest| {
            latest.last().map(|r| r.value as f64)
        })
    }
}

impl Operator for RegressorOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let unit = &self.units[i];
        let Some(truth) = self.target_value(unit, ctx) else {
            return Ok(Vec::new()); // target sensor has no data yet
        };

        // Score the previous prediction against today's truth.
        if let Some(pred) = self.states[i].last_prediction.take() {
            if truth.abs() > 1e-9 {
                let errs = &mut self.states[i].recent_errors;
                errs.push(((pred - truth) / truth).abs());
                if errs.len() > 256 {
                    errs.remove(0);
                }
            }
        }

        // Label the pending feature vector with the current truth.
        if let Some(prev_features) = self.states[i].pending.take() {
            if self.model.is_none() || self.retrain {
                self.train_x.push(prev_features);
                self.train_y.push(truth);
            }
        }

        // Train once enough samples have accumulated.
        if self.model.is_none() && self.train_x.len() >= self.training_size {
            self.model = Some(match self.model_kind {
                ModelKind::Forest => FittedModel::Forest(RandomForest::fit(
                    &self.train_x,
                    &self.train_y,
                    &self.forest_config,
                )),
                ModelKind::Linear => FittedModel::Linear(
                    RidgeRegression::fit(&self.train_x, &self.train_y, 1e-3)
                        .expect("ridge normal matrix is SPD with lambda > 0"),
                ),
            });
            if !self.retrain {
                self.train_x = Vec::new();
                self.train_y = Vec::new();
            }
        }

        // Extract features now; they predict the next interval.
        let features = self.feature_vector(unit, ctx);
        let mut out = Vec::new();
        if let Some(model) = &self.model {
            let prediction = model.predict(&features);
            self.states[i].last_prediction = Some(prediction);
            for output in &unit.outputs {
                out.push((
                    output.clone(),
                    SensorReading::new(encode_f64(prediction), ctx.now),
                ));
            }
        }
        self.states[i].pending = Some(features);
        Ok(out)
    }

    fn operator_outputs(&mut self, ctx: &ComputeContext<'_>) -> Vec<Output> {
        // Running mean relative error across all units (×1000 fixed
        // point), published under the first unit's node.
        let all: Vec<f64> = self
            .states
            .iter()
            .flat_map(|s| s.recent_errors.iter().copied())
            .collect();
        if all.is_empty() {
            return Vec::new();
        }
        let avg = oda_ml::stats::mean(&all);
        let topic = match self.units[0].name.child("avg-rel-error") {
            Ok(t) => t,
            Err(_) => return Vec::new(),
        };
        vec![(topic, SensorReading::new(encode_f64(avg), ctx.now))]
    }
}

/// The plugin factory.
pub struct RegressorPlugin;

impl OperatorPlugin for RegressorPlugin {
    fn kind(&self) -> &str {
        "regressor"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let target = config
            .options
            .str("target")
            .map_err(|_| DcdbError::Config("regressor requires a 'target' option".into()))?
            .to_string();
        let training_size = config.options.u64_or("training_size", 1000) as usize;
        let interval_ms = config.interval_ms().unwrap_or(1000);
        let window_ns = config.options.u64_or("window_ms", interval_ms * 4) * NS_PER_MS;
        let features = match config.options.str_list("features") {
            Ok(names) => {
                let mut fs = Vec::new();
                for n in &names {
                    fs.push(
                        Feature::parse(n)
                            .ok_or_else(|| DcdbError::Config(format!("unknown feature {n:?}")))?,
                    );
                }
                fs
            }
            Err(_) => Feature::default_set(),
        };
        let forest_config = ForestConfig {
            n_trees: config.options.u64_or("trees", 20) as usize,
            tree: TreeConfig {
                max_depth: config.options.u64_or("max_depth", 12) as usize,
                ..TreeConfig::default()
            },
            seed: config.options.u64_or("seed", 0xDCDB),
        };
        let retrain = config.options.bool_or("continuous_training", false);
        let model_kind = match config.options.str_opt("model").unwrap_or("forest") {
            "forest" => ModelKind::Forest,
            "linear" => ModelKind::Linear,
            other => {
                return Err(DcdbError::Config(format!(
                    "unknown regressor model {other:?} (forest|linear)"
                )))
            }
        };

        let resolution = config.resolve(nav)?;
        // Every unit must actually contain the target sensor.
        for unit in &resolution.units {
            if !unit.inputs.iter().any(|i| i.name() == target) {
                return Err(DcdbError::Config(format!(
                    "unit {} lacks target sensor {target:?} among its inputs",
                    unit.name
                )));
            }
        }
        let extractor = FeatureExtractor::new(features);
        instantiate(config, resolution.units, |name, units| {
            let states = units.iter().map(|_| UnitState::default()).collect();
            Ok(Box::new(RegressorOperator {
                name,
                units,
                extractor: extractor.clone(),
                target: target.clone(),
                window_ns,
                training_size,
                forest_config: forest_config.clone(),
                model_kind,
                train_x: Vec::new(),
                train_y: Vec::new(),
                model: None,
                states,
                retrain,
            }) as Box<dyn Operator>)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::reading::decode_f64;
    use dcdb_common::{Timestamp, Topic};
    use std::sync::Arc;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// Power follows utilization with a fixed gain: perfectly learnable.
    fn drive(qe: &QueryEngine, sec: u64) {
        let util = 50 + ((sec / 10) % 3) as i64 * 50; // steps: 50,100,150
        qe.insert(
            &t("/n0/util"),
            SensorReading::new(util, Timestamp::from_secs(sec)),
        );
        qe.insert(
            &t("/n0/power"),
            SensorReading::new(40 + util, Timestamp::from_secs(sec)),
        );
    }

    fn setup(training_size: u64) -> Arc<OperatorManager> {
        let qe = Arc::new(QueryEngine::new(256));
        drive(&qe, 1);
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(RegressorPlugin));
        let cfg = PluginConfig::online("reg", "regressor", 1000)
            .with_patterns(
                &["<bottomup>util", "<bottomup>power"],
                &["<bottomup>power-pred"],
            )
            .with_option("target", "power")
            .with_option("training_size", training_size)
            .with_option("trees", 10u64)
            .with_option("window_ms", 5000u64);
        mgr.load(cfg).unwrap();
        mgr
    }

    #[test]
    fn trains_then_predicts_accurately() {
        let mgr = setup(60);
        // Drive data + ticks for 100 virtual seconds.
        for sec in 2..=100u64 {
            drive(mgr.query_engine(), sec);
            mgr.tick(Timestamp::from_secs(sec));
        }
        let preds = mgr.query_engine().query(
            &t("/n0/power-pred"),
            QueryMode::Relative {
                offset_ns: 30_000_000_000,
            },
        );
        assert!(!preds.is_empty(), "model never produced predictions");
        // Compare each prediction with truth at the same timestamp.
        let mut errs = Vec::new();
        for p in &preds {
            let truth = mgr
                .query_engine()
                .query(&t("/n0/power"), QueryMode::Absolute { t0: p.ts, t1: p.ts })
                .first()
                .map(|r| r.value as f64);
            if let Some(truth) = truth {
                errs.push(((decode_f64(p.value) - truth) / truth).abs());
            }
        }
        let avg = oda_ml::stats::mean(&errs);
        // The signal is a clean 30s-periodic step function: the forest
        // should track it well within the paper's 6-10% band.
        assert!(avg < 0.15, "avg rel error {avg}");
    }

    #[test]
    fn no_output_before_training_completes() {
        let mgr = setup(1_000_000); // never reached
        for sec in 2..=30u64 {
            drive(mgr.query_engine(), sec);
            mgr.tick(Timestamp::from_secs(sec));
        }
        assert!(mgr
            .query_engine()
            .query(&t("/n0/power-pred"), QueryMode::Latest)
            .is_empty());
    }

    #[test]
    fn operator_error_metric_appears() {
        let mgr = setup(20);
        for sec in 2..=80u64 {
            drive(mgr.query_engine(), sec);
            mgr.tick(Timestamp::from_secs(sec));
        }
        let err = mgr
            .query_engine()
            .query(&t("/n0/avg-rel-error"), QueryMode::Latest);
        assert!(!err.is_empty(), "operator-level error output missing");
        assert!(decode_f64(err[0].value) < 0.5);
    }

    #[test]
    fn linear_model_option_trains_and_predicts() {
        let qe = Arc::new(QueryEngine::new(256));
        drive(&qe, 1);
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(RegressorPlugin));
        mgr.load(
            PluginConfig::online("reg", "regressor", 1000)
                .with_patterns(
                    &["<bottomup>util", "<bottomup>power"],
                    &["<bottomup>power-pred"],
                )
                .with_option("target", "power")
                .with_option("training_size", 30u64)
                .with_option("model", "linear"),
        )
        .unwrap();
        for sec in 2..=80u64 {
            drive(mgr.query_engine(), sec);
            mgr.tick(Timestamp::from_secs(sec));
        }
        let preds = mgr
            .query_engine()
            .query(&t("/n0/power-pred"), QueryMode::Latest);
        assert!(!preds.is_empty(), "linear model never predicted");
        // power = 40 + util is exactly linear: predictions are close.
        let truth = mgr.query_engine().query(&t("/n0/power"), QueryMode::Latest)[0].value as f64;
        assert!(
            (decode_f64(preds[0].value) - truth).abs() / truth < 0.2,
            "linear pred {} vs {}",
            decode_f64(preds[0].value),
            truth
        );
    }

    #[test]
    fn unknown_model_rejected() {
        let qe = Arc::new(QueryEngine::new(8));
        drive(&qe, 1);
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(RegressorPlugin));
        let cfg = PluginConfig::online("reg", "regressor", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>pred"])
            .with_option("target", "power")
            .with_option("model", "quantum");
        assert!(mgr.load(cfg).is_err());
    }

    #[test]
    fn continuous_training_keeps_accumulating() {
        let qe = Arc::new(QueryEngine::new(256));
        drive(&qe, 1);
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(RegressorPlugin));
        let cfg = PluginConfig::online("reg", "regressor", 1000)
            .with_patterns(
                &["<bottomup>util", "<bottomup>power"],
                &["<bottomup>power-pred"],
            )
            .with_option("target", "power")
            .with_option("training_size", 20u64)
            .with_option("trees", 5u64)
            .with_option("continuous_training", true);
        mgr.load(cfg).unwrap();
        for sec in 2..=60u64 {
            drive(mgr.query_engine(), sec);
            mgr.tick(Timestamp::from_secs(sec));
        }
        // Model trained and still predicting (continuous mode keeps the
        // training buffer growing instead of clearing it).
        let preds = mgr
            .query_engine()
            .query(&t("/n0/power-pred"), QueryMode::Latest);
        assert!(!preds.is_empty());
    }

    #[test]
    fn missing_target_option_fails_configuration() {
        let qe = Arc::new(QueryEngine::new(8));
        qe.insert(
            &t("/n0/power"),
            SensorReading::new(1, Timestamp::from_secs(1)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(RegressorPlugin));
        let cfg = PluginConfig::online("reg", "regressor", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>pred"]);
        assert!(mgr.load(cfg).is_err());
    }

    #[test]
    fn target_must_be_an_input() {
        let qe = Arc::new(QueryEngine::new(8));
        qe.insert(
            &t("/n0/util"),
            SensorReading::new(1, Timestamp::from_secs(1)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(RegressorPlugin));
        let cfg = PluginConfig::online("reg", "regressor", 1000)
            .with_patterns(&["<bottomup>util"], &["<bottomup>pred"])
            .with_option("target", "power");
        let err = mgr.load(cfg).unwrap_err().to_string();
        assert!(err.contains("target"), "{err}");
    }

    #[test]
    fn bad_feature_name_rejected() {
        let qe = Arc::new(QueryEngine::new(8));
        qe.insert(
            &t("/n0/power"),
            SensorReading::new(1, Timestamp::from_secs(1)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(RegressorPlugin));
        let cfg = PluginConfig::online("reg", "regressor", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>pred"])
            .with_option("target", "power")
            .with_option("features", serde_json::json!(["mean", "bogus"]));
        assert!(mgr.load(cfg).is_err());
    }
}
