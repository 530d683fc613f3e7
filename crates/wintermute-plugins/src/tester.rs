//! Tester plugin (paper §VI-A).
//!
//! The overhead experiments of Figure 5 use two tester components:
//!
//! * a **monitoring** tester producing "a total of 1000 monotonic
//!   sensors with negligible overhead, so as to provide a reliable
//!   baseline" — implemented in `dcdb-pusher` as a monitoring plugin
//!   whose sensors live at `<prefix>/tNNN/value`;
//! * an **operator** tester that "simply perform[s] a certain number of
//!   queries over the input sensors of their units" at each computation
//!   interval — this module.
//!
//! Options:
//! * `queries` — queries per computation interval (paper sweeps
//!   2..1000);
//! * `mode` — `"relative"` or `"absolute"` (the Query Engine mode under
//!   test);
//! * `range_ms` — the temporal range of each query (paper sweeps
//!   0..100 000 ms; 0 = most recent value only).
//!
//! Each unit outputs the total number of readings retrieved, which the
//! harness uses to verify the experiment actually exercised the engine.

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::NS_PER_MS;
use wintermute::prelude::*;

/// Which Query Engine path the tester exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TesterMode {
    /// Relative timestamps: O(1) cache views.
    Relative,
    /// Absolute timestamps: O(log N) binary search.
    Absolute,
}

/// The tester operator.
pub struct TesterOperator {
    name: String,
    units: Vec<Unit>,
    queries: usize,
    mode: TesterMode,
    range_ns: u64,
    /// Total readings retrieved over the operator's lifetime.
    total_retrieved: u64,
}

impl TesterOperator {
    /// Lifetime count of readings fetched.
    pub fn total_retrieved(&self) -> u64 {
        self.total_retrieved
    }
}

impl Operator for TesterOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let unit = &self.units[i];
        if unit.inputs.is_empty() {
            return Ok(Vec::new());
        }
        let mut retrieved = 0u64;
        let mode = match self.mode {
            TesterMode::Relative => QueryMode::Relative {
                offset_ns: self.range_ns,
            },
            TesterMode::Absolute => QueryMode::Absolute {
                t0: ctx.now.saturating_sub_ns(self.range_ns),
                t1: ctx.now,
            },
        };
        for q in 0..self.queries {
            // Consume the data the way a real model would: fold over it
            // so the fetch cannot be optimized away.
            retrieved += ctx.input_view(unit, q % unit.inputs.len(), mode, |readings| {
                std::hint::black_box(&readings);
                readings.len() as u64
            });
        }
        self.total_retrieved += retrieved;
        Ok(unit
            .outputs
            .iter()
            .map(|o| (o.clone(), SensorReading::new(retrieved as i64, ctx.now)))
            .collect())
    }
}

/// The plugin factory.
pub struct TesterPlugin;

impl OperatorPlugin for TesterPlugin {
    fn kind(&self) -> &str {
        "tester"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let queries = config.options.u64_or("queries", 10) as usize;
        let mode = match config.options.str_opt("mode").unwrap_or("relative") {
            "relative" => TesterMode::Relative,
            "absolute" => TesterMode::Absolute,
            other => return Err(DcdbError::Config(format!("unknown tester mode {other:?}"))),
        };
        let range_ns = config.options.u64_or("range_ms", 0) * NS_PER_MS;
        let resolution = config.resolve(nav)?;
        instantiate(config, resolution.units, |name, units| {
            Ok(Box::new(TesterOperator {
                name,
                units,
                queries,
                mode,
                range_ns,
                total_retrieved: 0,
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

    /// 10 monotonic tester sensors with 30 readings each.
    fn engine() -> Arc<QueryEngine> {
        let qe = Arc::new(QueryEngine::new(64));
        for i in 0..10 {
            let topic = t(&format!("/host/tester/t{i:03}/value"));
            for sec in 1..=30u64 {
                qe.insert(
                    &topic,
                    SensorReading::new(sec as i64, Timestamp::from_secs(sec)),
                );
            }
        }
        qe.rebuild_navigator();
        qe
    }

    fn config(queries: u64, mode: &str, range_ms: u64) -> PluginConfig {
        PluginConfig::online("tst", "tester", 1000)
            .with_patterns(
                &["<bottomup, filter ^t[0-9]+$>value"],
                &["<bottomup-1>tester-out"],
            )
            .with_option("queries", queries)
            .with_option("mode", mode)
            .with_option("range_ms", range_ms)
    }

    #[test]
    fn unit_gathers_all_tester_sensors() {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(TesterPlugin));
        mgr.load(config(5, "relative", 0)).unwrap();
        let units = mgr.units_of("tst").unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].as_str(), "/host/tester");
    }

    #[test]
    fn zero_range_fetches_latest_only() {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(TesterPlugin));
        mgr.load(config(7, "relative", 0)).unwrap();
        mgr.tick(Timestamp::from_secs(31));
        let out = mgr
            .query_engine()
            .query(&t("/host/tester/tester-out"), QueryMode::Latest);
        assert_eq!(out[0].value, 7); // 7 queries × 1 reading each
    }

    #[test]
    fn ranged_queries_fetch_windows() {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(TesterPlugin));
        mgr.load(config(4, "absolute", 10_000)).unwrap();
        mgr.tick(Timestamp::from_secs(30));
        let out = mgr
            .query_engine()
            .query(&t("/host/tester/tester-out"), QueryMode::Latest);
        // 4 queries × 11 readings (20..=30 inclusive).
        assert_eq!(out[0].value, 44);
    }

    #[test]
    fn relative_and_absolute_agree_on_counts_roughly() {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(TesterPlugin));
        mgr.load(config(10, "relative", 5_000)).unwrap();
        mgr.tick(Timestamp::from_secs(30));
        let rel = mgr
            .query_engine()
            .query(&t("/host/tester/tester-out"), QueryMode::Latest)[0]
            .value;
        // ~10 × 6 readings; the relative path may over/under-shoot by
        // one reading per query.
        assert!((40..=80).contains(&rel), "{rel}");
    }

    #[test]
    fn bad_mode_rejected() {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(TesterPlugin));
        assert!(mgr.load(config(1, "sideways", 0)).is_err());
    }

    #[test]
    fn queries_hit_every_sensor_round_robin() {
        let mgr = OperatorManager::new(engine());
        mgr.register_plugin(Box::new(TesterPlugin));
        mgr.load(config(20, "relative", 0)).unwrap();
        mgr.tick(Timestamp::from_secs(31));
        let stats = mgr.query_engine().stats();
        // 20 queries hit the cache (plus the verification queries).
        assert!(stats.cache_hits >= 20);
    }
}
