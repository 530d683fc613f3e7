//! Derived performance metrics plugin (paper §VI-C, first pipeline
//! stage — a re-implementation of PerSyst's node-level transport).
//!
//! "The first perfmetrics plugin, instantiated in the Pushers, takes as
//! input CPU and node-level data and computes as output a series of
//! derived performance metrics, such as cycles per instruction (CPI),
//! floating point operations per second (FLOPS) or vectorization ratio."
//!
//! Derived metrics are computed from **deltas of monotonic counters**
//! over the recent window, which is how perfevent data must be consumed.
//! Each unit (typically one CPU core) reads its counters and emits the
//! metrics named in the unit's outputs:
//!
//! * `cpi` — Δcycles / Δinstructions (fixed-point ×1000);
//! * `flops-rate` — Δflops per second;
//! * `miss-ratio` — Δcache-misses / Δinstructions (fixed-point ×1000);
//! * `opa-rate` — Δ(opa-xmit-bytes + opa-rcv-bytes) per second, the
//!   node-level interconnect bandwidth derived from the OPA plugin's
//!   counters.
//!
//! Which metric an output computes is inferred from the output sensor's
//! name, so one plugin instance can emit any subset; a name no metric
//! has fails the plugin's load.

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::{encode_f64, SensorReading};
use dcdb_common::time::NS_PER_MS;
use dcdb_common::topic::Topic;
use wintermute::prelude::*;

/// The monotonic counter an input sensor's name says it is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Counter {
    Cycles,
    Instructions,
    CacheMisses,
    Flops,
    /// `opa-xmit-bytes` or `opa-rcv-bytes`: both add to one total.
    OpaBytes,
}

impl Counter {
    /// `None` for an input no metric reads.
    fn of(input: &Topic) -> Option<Counter> {
        Some(match input.name() {
            "cycles" => Counter::Cycles,
            "instructions" => Counter::Instructions,
            "cache-misses" => Counter::CacheMisses,
            "flops" => Counter::Flops,
            "opa-xmit-bytes" | "opa-rcv-bytes" => Counter::OpaBytes,
            _ => return None,
        })
    }
}

/// The derived metric an output sensor's name asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Metric {
    Cpi,
    FlopsRate,
    MissRatio,
    OpaRate,
}

impl Metric {
    fn of(output: &Topic) -> Result<Metric> {
        Ok(match output.name() {
            "cpi" => Metric::Cpi,
            "flops-rate" => Metric::FlopsRate,
            "miss-ratio" => Metric::MissRatio,
            "opa-rate" => Metric::OpaRate,
            other => {
                return Err(DcdbError::Config(format!(
                    "perfmetrics: unknown derived metric {other:?}"
                )))
            }
        })
    }
}

/// One unit's sensors as counters and metrics, resolved when the plugin
/// is configured.
#[derive(PartialEq)]
struct UnitPlan {
    counters: Box<[Option<Counter>]>,
    metrics: Box<[Metric]>,
}

impl UnitPlan {
    fn of(unit: &Unit) -> Result<UnitPlan> {
        Ok(UnitPlan {
            counters: unit.inputs.iter().map(Counter::of).collect(),
            metrics: unit.outputs.iter().map(Metric::of).collect::<Result<_>>()?,
        })
    }
}

/// Counter deltas extracted from one unit's window.
#[derive(Debug, Default, Clone, Copy)]
struct Deltas {
    cycles: f64,
    instructions: f64,
    cache_misses: f64,
    flops: f64,
    opa_bytes: f64,
    span_s: f64,
}

/// The perfmetrics operator.
pub struct PerfMetricsOperator {
    name: String,
    units: Vec<Unit>,
    /// The distinct plans of the units (units resolved from one
    /// template share one), and which one unit `i` has.
    plans: Vec<UnitPlan>,
    plan_of: Vec<usize>,
    window_ns: u64,
}

impl PerfMetricsOperator {
    fn deltas(&self, i: usize, ctx: &ComputeContext<'_>) -> Deltas {
        let mut d = Deltas::default();
        let window = QueryMode::Relative {
            offset_ns: self.window_ns,
        };
        for (k, counter) in self.plans[self.plan_of[i]].counters.iter().enumerate() {
            // The window's two ends, once it holds two readings.
            let ends = ctx.input_view(&self.units[i], k, window, |readings| {
                (readings.len() >= 2)
                    .then(|| (*readings.first().unwrap(), *readings.last().unwrap()))
            });
            let Some((first, last)) = ends else {
                continue;
            };
            let delta = (last.value - first.value) as f64;
            let span = last.ts.elapsed_since(first.ts) as f64 / 1e9;
            match counter {
                Some(Counter::Cycles) => {
                    d.cycles = delta;
                    d.span_s = span;
                }
                Some(Counter::Instructions) => d.instructions = delta,
                Some(Counter::CacheMisses) => d.cache_misses = delta,
                Some(Counter::Flops) => d.flops = delta,
                Some(Counter::OpaBytes) => {
                    d.opa_bytes += delta;
                    if d.span_s <= 0.0 {
                        d.span_s = span;
                    }
                }
                None => {}
            }
        }
        d
    }
}

impl Operator for PerfMetricsOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let d = self.deltas(i, ctx);
        let mut out = Vec::new();
        let metrics = &self.plans[self.plan_of[i]].metrics;
        for (output, metric) in self.units[i].outputs.iter().zip(metrics) {
            let value = match metric {
                Metric::Cpi => {
                    if d.instructions <= 0.0 {
                        continue; // idle core this window: no metric
                    }
                    encode_f64(d.cycles / d.instructions)
                }
                Metric::FlopsRate => {
                    if d.span_s <= 0.0 {
                        continue;
                    }
                    finite_output("perfmetrics flops-rate", d.flops / d.span_s)?
                }
                Metric::MissRatio => {
                    if d.instructions <= 0.0 {
                        continue;
                    }
                    encode_f64(d.cache_misses / d.instructions)
                }
                Metric::OpaRate => {
                    if d.span_s <= 0.0 {
                        continue;
                    }
                    finite_output("perfmetrics opa-rate", d.opa_bytes / d.span_s)?
                }
            };
            out.push((output.clone(), SensorReading::new(value, ctx.now)));
        }
        Ok(out)
    }
}

/// The plugin factory.
pub struct PerfMetricsPlugin;

impl OperatorPlugin for PerfMetricsPlugin {
    fn kind(&self) -> &str {
        "perfmetrics"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let window_ns = config.options.u64_or("window_ms", 2500) * NS_PER_MS;
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |name, units| {
            let mut plans: Vec<UnitPlan> = Vec::new();
            let plan_of = units
                .iter()
                .map(|unit| {
                    let plan = UnitPlan::of(unit)?;
                    Ok(plans.iter().position(|p| *p == plan).unwrap_or_else(|| {
                        plans.push(plan);
                        plans.len() - 1
                    }))
                })
                .collect::<Result<_>>()?;
            Ok(Box::new(PerfMetricsOperator {
                name,
                units,
                plans,
                plan_of,
                window_ns,
            }) as Box<dyn Operator>)
        })
    }
}

/// Decodes a fixed-point CPI reading back to a float (helper shared
/// with the persyst stage and the figure harnesses).
pub fn decode_cpi(reading: &SensorReading) -> f64 {
    dcdb_common::reading::decode_f64(reading.value)
}

/// Convenience: the standard perfmetrics configuration used by the
/// paper's job-analysis pipeline — one unit per CPU core, CPI output.
pub fn cpi_config(name: &str, interval_ms: u64) -> PluginConfig {
    PluginConfig::online(name, "perfmetrics", interval_ms).with_patterns(
        &[
            "<bottomup, filter cpu>cycles",
            "<bottomup, filter cpu>instructions",
        ],
        &["<bottomup, filter cpu>cpi"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::Timestamp;
    use std::sync::Arc;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// Seeds two cores with counters implying CPI 2.0 and 4.0.
    fn engine() -> Arc<QueryEngine> {
        let qe = Arc::new(QueryEngine::new(64));
        for sec in 0..=10u64 {
            // Core 0: 2e9 cycles/s, 1e9 instr/s -> CPI 2.
            qe.insert(
                &t("/n0/cpu0/cycles"),
                SensorReading::new((sec * 2_000_000_000) as i64, Timestamp::from_secs(sec)),
            );
            qe.insert(
                &t("/n0/cpu0/instructions"),
                SensorReading::new((sec * 1_000_000_000) as i64, Timestamp::from_secs(sec)),
            );
            qe.insert(
                &t("/n0/cpu0/flops"),
                SensorReading::new((sec * 500_000_000) as i64, Timestamp::from_secs(sec)),
            );
            qe.insert(
                &t("/n0/cpu0/cache-misses"),
                SensorReading::new((sec * 10_000_000) as i64, Timestamp::from_secs(sec)),
            );
            // Core 1: CPI 4.
            qe.insert(
                &t("/n0/cpu1/cycles"),
                SensorReading::new((sec * 2_000_000_000) as i64, Timestamp::from_secs(sec)),
            );
            qe.insert(
                &t("/n0/cpu1/instructions"),
                SensorReading::new((sec * 500_000_000) as i64, Timestamp::from_secs(sec)),
            );
        }
        qe.rebuild_navigator();
        qe
    }

    fn manager() -> Arc<OperatorManager> {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(PerfMetricsPlugin));
        mgr
    }

    #[test]
    fn cpi_from_counter_deltas() {
        let mgr = manager();
        mgr.load(cpi_config("pm", 1000).with_option("window_ms", 3000u64))
            .unwrap();
        let report = mgr.tick(Timestamp::from_secs(11));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let cpi0 = mgr
            .query_engine()
            .query(&t("/n0/cpu0/cpi"), QueryMode::Latest);
        assert!(
            (decode_cpi(&cpi0[0]) - 2.0).abs() < 0.05,
            "{}",
            decode_cpi(&cpi0[0])
        );
        let cpi1 = mgr
            .query_engine()
            .query(&t("/n0/cpu1/cpi"), QueryMode::Latest);
        assert!((decode_cpi(&cpi1[0]) - 4.0).abs() < 0.1);
    }

    #[test]
    fn flops_rate_and_miss_ratio() {
        let mgr = manager();
        let cfg = PluginConfig::online("pm", "perfmetrics", 1000)
            .with_patterns(
                &[
                    "<bottomup, filter ^cpu0$>cycles",
                    "<bottomup, filter ^cpu0$>instructions",
                    "<bottomup, filter ^cpu0$>flops",
                    "<bottomup, filter ^cpu0$>cache-misses",
                ],
                &[
                    "<bottomup, filter ^cpu0$>flops-rate",
                    "<bottomup, filter ^cpu0$>miss-ratio",
                ],
            )
            .with_option("window_ms", 4000u64);
        mgr.load(cfg).unwrap();
        mgr.tick(Timestamp::from_secs(11));
        let fr = mgr
            .query_engine()
            .query(&t("/n0/cpu0/flops-rate"), QueryMode::Latest);
        assert!(
            (fr[0].value - 500_000_000).abs() < 10_000_000,
            "{}",
            fr[0].value
        );
        let mr = mgr
            .query_engine()
            .query(&t("/n0/cpu0/miss-ratio"), QueryMode::Latest);
        assert!((decode_cpi(&mr[0]) - 0.01).abs() < 0.001);
    }

    #[test]
    fn opa_rate_from_byte_counters() {
        let qe = Arc::new(QueryEngine::new(16));
        for sec in 0..=5u64 {
            qe.insert(
                &t("/n0/opa-xmit-bytes"),
                SensorReading::new((sec * 1_000_000) as i64, Timestamp::from_secs(sec)),
            );
            qe.insert(
                &t("/n0/opa-rcv-bytes"),
                SensorReading::new((sec * 500_000) as i64, Timestamp::from_secs(sec)),
            );
        }
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(PerfMetricsPlugin));
        mgr.load(
            PluginConfig::online("net", "perfmetrics", 1000)
                .with_patterns(
                    &["<bottomup>opa-xmit-bytes", "<bottomup>opa-rcv-bytes"],
                    &["<bottomup>opa-rate"],
                )
                .with_option("window_ms", 4000u64),
        )
        .unwrap();
        let report = mgr.tick(Timestamp::from_secs(6));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let rate = mgr
            .query_engine()
            .query(&t("/n0/opa-rate"), QueryMode::Latest);
        // 1.5 MB/s aggregate.
        assert!(
            (rate[0].value - 1_500_000).abs() < 100_000,
            "{}",
            rate[0].value
        );
    }

    #[test]
    fn idle_core_emits_nothing() {
        // Constant counters: no instructions retired this window.
        let qe = Arc::new(QueryEngine::new(16));
        qe.insert(
            &t("/n0/cpu0/cycles"),
            SensorReading::new(1000, Timestamp::from_secs(1)),
        );
        qe.insert(
            &t("/n0/cpu0/cycles"),
            SensorReading::new(1000, Timestamp::from_secs(2)),
        );
        qe.insert(
            &t("/n0/cpu0/instructions"),
            SensorReading::new(500, Timestamp::from_secs(1)),
        );
        qe.insert(
            &t("/n0/cpu0/instructions"),
            SensorReading::new(500, Timestamp::from_secs(2)),
        );
        qe.rebuild_navigator();
        let mgr = OperatorManager::new(qe);
        mgr.register_plugin(Box::new(PerfMetricsPlugin));
        mgr.load(cpi_config("pm", 1000)).unwrap();
        let report = mgr.tick(Timestamp::from_secs(3));
        assert!(report.errors.is_empty());
        assert_eq!(report.outputs_published, 0);
    }

    #[test]
    fn unknown_metric_name_fails_the_load() {
        let mgr = manager();
        for unknown in ["ipc", "bogus-metric"] {
            let cfg = PluginConfig::online("pm", "perfmetrics", 1000).with_patterns(
                &[
                    "<bottomup, filter cpu>cycles",
                    "<bottomup, filter cpu>instructions",
                ],
                &[&format!("<bottomup, filter cpu>{unknown}")],
            );
            let err = mgr.load(cfg).unwrap_err().to_string();
            assert!(err.contains("unknown derived metric"), "{err}");
            assert!(err.contains(unknown), "{err}");
        }
        assert!(mgr.list().is_empty());
        assert!(mgr.tick(Timestamp::from_secs(11)).errors.is_empty());
    }

    #[test]
    fn parallel_unit_mode_works() {
        let mgr = manager();
        mgr.load(
            cpi_config("pm", 1000)
                .with_unit_mode(UnitMode::Parallel)
                .with_option("window_ms", 3000u64),
        )
        .unwrap();
        let report = mgr.tick(Timestamp::from_secs(11));
        assert_eq!(report.operators_run, 2); // one per core
        assert_eq!(report.outputs_published, 2);
    }
}
