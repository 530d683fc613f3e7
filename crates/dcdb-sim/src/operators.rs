//! The operator fault lane: a plugin whose operators panic and error on
//! a seeded schedule.
//!
//! The paper's Operator Manager promises fault isolation — a panicking
//! operator is contained, counted, and quarantined after repeated
//! failures, while every other operator keeps computing. This plugin
//! turns that promise into a *drivable* fault lane: each operator draws
//! from its own splitmix-derived stream, so the exact sequence of
//! panics, errors and quarantines replays bit-identically from the
//! scenario seed, and every outcome lands in the canonical event trace.

use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::sim::{derive_seed, xorshift};
use dcdb_common::topic::Topic;
use wintermute::prelude::*;

/// One seeded-fault operator: per compute, draws a fate from its
/// private stream — panic, error, or a successful output reading.
pub struct FaultyOperator {
    name: String,
    units: Vec<Unit>,
    rng: u64,
    panic_permille: u64,
    error_permille: u64,
    computes: u64,
}

impl Operator for FaultyOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn units(&self) -> &[Unit] {
        &self.units
    }

    fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        self.computes += 1;
        let fate = xorshift(&mut self.rng) % 1000;
        if fate < self.panic_permille {
            panic!("seeded chaos panic (compute {})", self.computes);
        }
        if fate < self.panic_permille + self.error_permille {
            return Err(DcdbError::InvalidState(format!(
                "seeded chaos error (compute {})",
                self.computes
            )));
        }
        Ok(self.units[i]
            .outputs
            .iter()
            .map(|o| (o.clone(), SensorReading::new(self.computes as i64, ctx.now)))
            .collect())
    }
}

/// The plugin factory: `operators` independent faulty operators, each
/// seeded `derive_seed(seed, index)` so adding one never perturbs the
/// others' fault sequences.
pub struct FaultyPlugin {
    /// Lane seed (already split from the scenario seed).
    pub seed: u64,
    /// Operators to instantiate.
    pub operators: usize,
    /// Per-compute panic probability, in permille.
    pub panic_permille: u64,
    /// Per-compute error probability, in permille.
    pub error_permille: u64,
}

impl OperatorPlugin for FaultyPlugin {
    fn kind(&self) -> &str {
        "chaos-faulty"
    }

    fn configure(
        &self,
        config: &PluginConfig,
        _nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        // Units are synthetic — the fault lane needs operators on the
        // tick schedule, not sensor-tree bindings — so the navigator is
        // bypassed and each operator gets its own fixed output topic.
        (0..self.operators.max(1))
            .map(|i| {
                let unit = Unit::new(
                    Topic::parse(&format!("/sim/chaos-op{i:02}"))?,
                    Vec::new(),
                    vec![Topic::parse(&format!("/sim/chaos-op{i:02}/out"))?],
                );
                Ok(Box::new(FaultyOperator {
                    name: format!("{}#{i}", config.name),
                    units: vec![unit],
                    rng: derive_seed(self.seed, i as u64),
                    panic_permille: self.panic_permille,
                    error_permille: self.error_permille,
                    computes: 0,
                }) as Box<dyn Operator>)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::time::Timestamp;
    use std::sync::Arc;

    fn manager(panic_pm: u64, error_pm: u64, seed: u64) -> Arc<OperatorManager> {
        let mgr = OperatorManager::new(Arc::new(QueryEngine::new(16)));
        mgr.register_plugin(Box::new(FaultyPlugin {
            seed,
            operators: 3,
            panic_permille: panic_pm,
            error_permille: error_pm,
        }));
        mgr.load(PluginConfig::online("chaos", "chaos-faulty", 100))
            .unwrap();
        mgr
    }

    fn drive(mgr: &Arc<OperatorManager>, ticks: u64) -> (u64, u64, u64) {
        for t in 1..=ticks {
            mgr.tick(Timestamp::from_millis(t * 100));
        }
        let totals = mgr.metrics_totals();
        (totals.runs, totals.panics, totals.errors)
    }

    #[test]
    fn fault_sequence_replays_from_the_seed() {
        let a = drive(&manager(200, 200, 7), 40);
        let b = drive(&manager(200, 200, 7), 40);
        assert_eq!(a, b, "same seed, same fault sequence");
        assert!(a.1 > 0 && a.2 > 0, "faults actually fired: {a:?}");
        let c = drive(&manager(200, 200, 8), 40);
        assert_ne!(a, c, "different seed diverges");
    }

    #[test]
    fn runs_identity_holds_through_panics_and_quarantine() {
        let mgr = manager(400, 200, 3);
        drive(&mgr, 60);
        let t = mgr.metrics_totals();
        assert_eq!(
            t.runs,
            t.successes + t.errors + t.panics + t.overruns + t.quarantined_skips,
            "{t:?}"
        );
        // Probes heal a quarantined operator whose next computation
        // succeeds, so quarantine shows in the skips it left behind.
        assert!(t.quarantined_skips > 0, "quarantine engaged: {t:?}");
    }

    #[test]
    fn quiet_plugin_never_faults() {
        let mgr = manager(0, 0, 1);
        drive(&mgr, 20);
        let t = mgr.metrics_totals();
        assert_eq!(t.panics + t.errors, 0);
        assert_eq!(t.runs, t.successes);
    }
}
