//! Bayesian gaussian mixture clustering plugin (paper §VI-D, Case
//! Study 3).
//!
//! "This plugin is configured to have one operator with as many units
//! as compute nodes, each having as input a node's power, temperature
//! and CPU idle time sensors, and as output a label of the cluster to
//! which it belongs. At every computation interval the operator computes
//! [window] averages for the input sensors of each unit. Then, each unit
//! is treated as a data point ... and clustering is applied."
//!
//! The model is shared by all units, so the plugin runs in sequential
//! unit mode: the first unit's computation performs the clustering over
//! every unit's feature vector and caches the labels; each unit then
//! emits its own label (`-1` = outlier, as in the paper's
//! probability-threshold outlier rule).
//!
//! Options:
//! * `window_ms` — averaging window (the paper uses 2 weeks; the
//!   simulation uses shorter windows, default 60 000);
//! * `max_components` — BGMM component cap (default 8);
//! * `outlier_threshold` — density threshold (default 0.001, the
//!   paper's value);
//! * `rates` — input sensor names that are monotonic counters and must
//!   be differenced instead of averaged (default `["cpu-idle"]`);
//! * `fixed_point` — input names carrying ×1000 fixed-point values
//!   (default `["temp"]`).

use dcdb_common::error::Result;
use dcdb_common::reading::{decode_f64, SensorReading};
use dcdb_common::time::NS_PER_MS;
use dcdb_common::topic::Topic;
use oda_ml::bgmm::{fit_bgmm, BgmmConfig};
use oda_ml::stats::standardize;
use wintermute::prelude::*;

/// The clustering operator.
pub struct ClusteringOperator {
    name: String,
    units: Vec<Unit>,
    window_ns: u64,
    bgmm: BgmmConfig,
    rates: Vec<String>,
    fixed_point: Vec<String>,
    /// Labels from the last clustering pass; `i64::MIN` = no data.
    labels: Vec<i64>,
    /// Number of effective clusters in the last pass.
    last_k: usize,
}

impl ClusteringOperator {
    /// Builds the feature vector of one unit: windowed average per
    /// gauge input, windowed rate per counter input.
    fn features(&self, unit: &Unit, ctx: &ComputeContext<'_>) -> Option<Vec<f64>> {
        let mut out = Vec::with_capacity(unit.inputs.len());
        let window = QueryMode::Relative {
            offset_ns: self.window_ns,
        };
        for (k, input) in unit.inputs.iter().enumerate() {
            let name = input.name();
            let is_rate = self.rates.iter().any(|r| r == name);
            let is_fp = self.fixed_point.iter().any(|r| r == name);
            let value = ctx.input_view(unit, k, window, |readings| {
                if is_rate {
                    if readings.len() < 2 {
                        return None;
                    }
                    let first = readings.first()?;
                    let last = readings.last()?;
                    let dt = last.ts.elapsed_since(first.ts) as f64 / 1e9;
                    (dt > 0.0).then(|| (last.value - first.value) as f64 / dt)
                } else {
                    // The window mean, summed in reading order.
                    let decode = |r: &SensorReading| {
                        if is_fp {
                            decode_f64(r.value)
                        } else {
                            r.value as f64
                        }
                    };
                    let sum: f64 = readings.iter().map(decode).sum();
                    (!readings.is_empty()).then(|| sum / readings.len() as f64)
                }
            });
            out.push(value?);
        }
        Some(out)
    }

    fn recluster(&mut self, ctx: &ComputeContext<'_>) {
        let features: Vec<Option<Vec<f64>>> =
            self.units.iter().map(|u| self.features(u, ctx)).collect();
        let present: Vec<(usize, &Vec<f64>)> = features
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|v| (i, v)))
            .collect();
        self.labels = vec![i64::MIN; self.units.len()];
        self.last_k = 0;
        if present.len() < 3 {
            return; // too few points to cluster meaningfully
        }
        let data: Vec<Vec<f64>> = present.iter().map(|(_, v)| (*v).clone()).collect();
        let (_, _, scaled) = standardize(&data);
        let model = fit_bgmm(&scaled, &self.bgmm);
        self.last_k = model.n_effective();
        for ((unit_idx, _), label) in present.iter().zip(model.labels.iter()) {
            self.labels[*unit_idx] = match label {
                Some(k) => *k as i64,
                None => -1,
            };
        }
    }
}

impl Operator for ClusteringOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        if i == 0 {
            self.recluster(ctx);
        }
        let label = self.labels.get(i).copied().unwrap_or(i64::MIN);
        if label == i64::MIN {
            return Ok(Vec::new()); // node had no data this window
        }
        let unit = &self.units[i];
        Ok(unit
            .outputs
            .iter()
            .map(|o| (o.clone(), SensorReading::new(label, ctx.now)))
            .collect())
    }

    fn operator_outputs(&mut self, ctx: &ComputeContext<'_>) -> Vec<Output> {
        if self.last_k == 0 {
            return Vec::new();
        }
        let topic = match Topic::parse(&format!("/analytics/{}/num-clusters", self.name)) {
            Ok(t) => t,
            Err(_) => return Vec::new(),
        };
        vec![(topic, SensorReading::new(self.last_k as i64, ctx.now))]
    }
}

/// The plugin factory.
pub struct ClusteringPlugin;

impl OperatorPlugin for ClusteringPlugin {
    fn kind(&self) -> &str {
        "clustering"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let window_ns = config.options.u64_or("window_ms", 60_000) * NS_PER_MS;
        let bgmm = BgmmConfig {
            max_components: config.options.u64_or("max_components", 8) as usize,
            outlier_pdf_threshold: config.options.f64_or("outlier_threshold", 1e-3),
            seed: config.options.u64_or("seed", 0xDCDB),
            ..BgmmConfig::default()
        };
        let rates = config
            .options
            .str_list("rates")
            .unwrap_or_else(|_| vec!["cpu-idle".to_string()]);
        let fixed_point = config
            .options
            .str_list("fixed_point")
            .unwrap_or_else(|_| vec!["temp".to_string()]);
        let resolution = config.resolve(nav)?;
        // The model is shared: always one operator over all units (the
        // paper's clustering case study runs sequentially by design).
        let units = resolution.units;
        if units.is_empty() {
            return Err(dcdb_common::DcdbError::Config(format!(
                "plugin {:?}: no units could be resolved",
                config.name
            )));
        }
        let labels = vec![i64::MIN; units.len()];
        Ok(vec![Box::new(ClusteringOperator {
            name: config.name.clone(),
            units,
            window_ns,
            bgmm,
            rates,
            fixed_point,
            labels,
            last_k: 0,
        })])
    }
}

/// The standard clustering configuration of the paper's case study:
/// one unit per compute node over (power, temp, cpu-idle).
pub fn node_clustering_config(name: &str, interval_ms: u64) -> PluginConfig {
    PluginConfig::online(name, "clustering", interval_ms).with_patterns(
        &["<bottomup>power", "<bottomup>temp", "<bottomup>cpu-idle"],
        &["<bottomup>cluster-label"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::reading::encode_f64;
    use dcdb_common::Timestamp;
    use std::sync::Arc;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// Three groups of nodes with distinct (power, temp, idle-rate)
    /// signatures plus one anomalous node.
    fn engine() -> Arc<QueryEngine> {
        let qe = Arc::new(QueryEngine::new(256));
        // (base power, base temp, idle ms per s)
        let groups: [(i64, f64, i64); 3] = [(60, 41.0, 950), (150, 46.0, 400), (220, 50.0, 50)];
        let mut node = 0;
        for (g, &(p, temp, idle_rate)) in groups.iter().enumerate() {
            for k in 0..8 {
                let base = t(&format!("/r0/n{node:02}"));
                let mut idle = 0i64;
                for sec in 1..=60u64 {
                    let jitter = ((sec * 7 + k * 13 + g as u64) % 5) as i64 - 2;
                    qe.insert(
                        &base.child("power").unwrap(),
                        SensorReading::new(p + jitter, Timestamp::from_secs(sec)),
                    );
                    qe.insert(
                        &base.child("temp").unwrap(),
                        SensorReading::new(
                            encode_f64(temp + jitter as f64 * 0.1),
                            Timestamp::from_secs(sec),
                        ),
                    );
                    idle += idle_rate + jitter;
                    qe.insert(
                        &base.child("cpu-idle").unwrap(),
                        SensorReading::new(idle, Timestamp::from_secs(sec)),
                    );
                }
                node += 1;
            }
        }
        // Anomalous node: very high power at high idle rate.
        let base = t("/r0/n99");
        let mut idle = 0i64;
        for sec in 1..=60u64 {
            qe.insert(
                &base.child("power").unwrap(),
                SensorReading::new(230, Timestamp::from_secs(sec)),
            );
            qe.insert(
                &base.child("temp").unwrap(),
                SensorReading::new(encode_f64(51.0), Timestamp::from_secs(sec)),
            );
            idle += 900;
            qe.insert(
                &base.child("cpu-idle").unwrap(),
                SensorReading::new(idle, Timestamp::from_secs(sec)),
            );
        }
        qe.rebuild_navigator();
        qe
    }

    fn manager() -> Arc<OperatorManager> {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(ClusteringPlugin));
        mgr.load(node_clustering_config("bgmm", 1000).with_option("window_ms", 60_000u64))
            .unwrap();
        mgr
    }

    fn label_of(mgr: &OperatorManager, node: &str) -> i64 {
        mgr.query_engine()
            .query(&t(&format!("{node}/cluster-label")), QueryMode::Latest)
            .first()
            .map(|r| r.value)
            .unwrap_or(i64::MIN)
    }

    #[test]
    fn groups_get_distinct_labels_and_anomaly_is_outlier() {
        let mgr = manager();
        let report = mgr.tick(Timestamp::from_secs(61));
        assert!(report.errors.is_empty(), "{:?}", report.errors);

        // Every group is internally consistent.
        let mut group_labels = Vec::new();
        for g in 0..3 {
            let first = label_of(&mgr, &format!("/r0/n{:02}", g * 8));
            assert!(first >= 0, "group {g} labelled {first}");
            for k in 0..8 {
                let l = label_of(&mgr, &format!("/r0/n{:02}", g * 8 + k));
                assert_eq!(l, first, "node {} of group {g}", g * 8 + k);
            }
            group_labels.push(first);
        }
        // Groups are mutually distinct.
        group_labels.sort();
        group_labels.dedup();
        assert_eq!(group_labels.len(), 3, "groups merged: {group_labels:?}");
        // The anomalous node is an outlier (-1).
        assert_eq!(label_of(&mgr, "/r0/n99"), -1);
    }

    #[test]
    fn num_clusters_operator_output() {
        let mgr = manager();
        mgr.tick(Timestamp::from_secs(61));
        let k = mgr
            .query_engine()
            .query(&t("/analytics/bgmm/num-clusters"), QueryMode::Latest);
        assert_eq!(k[0].value, 3);
    }

    #[test]
    fn cold_start_produces_no_labels() {
        let qe = Arc::new(QueryEngine::new(16));
        // Sensors known but with single readings (rates undefined).
        for n in 0..4 {
            let base = t(&format!("/r0/n{n}"));
            qe.insert(
                &base.child("power").unwrap(),
                SensorReading::new(100, Timestamp::from_secs(1)),
            );
            qe.insert(
                &base.child("temp").unwrap(),
                SensorReading::new(encode_f64(40.0), Timestamp::from_secs(1)),
            );
            qe.insert(
                &base.child("cpu-idle").unwrap(),
                SensorReading::new(10, Timestamp::from_secs(1)),
            );
        }
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(ClusteringPlugin));
        mgr.load(node_clustering_config("bgmm", 1000)).unwrap();
        let report = mgr.tick(Timestamp::from_secs(2));
        assert!(report.errors.is_empty());
        assert_eq!(report.outputs_published, 0);
    }

    #[test]
    fn on_demand_unit_query_returns_label() {
        let mgr = manager();
        mgr.tick(Timestamp::from_secs(61));
        // On-demand: recluster (unit 0) — other units return their
        // cached label without reclustering.
        let out = mgr
            .on_demand("bgmm", &t("/r0/n00"), Timestamp::from_secs(62))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.value >= 0);
    }
}
