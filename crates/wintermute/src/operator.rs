//! The operator abstraction (paper §IV-B, §V-C.1).
//!
//! Operators are the computational entities performing ODA tasks. Each
//! operator owns a set of [`Unit`]s; when computation is invoked it
//! iterates its units, queries the input sensors through the Query
//! Engine, and writes results into the output sensors.
//!
//! The two *operational modes* and two *unit-management* strategies of
//! the paper map directly onto this module:
//!
//! * [`OperatorMode::Online`] — invoked at regular intervals by the
//!   [`OperatorManager`](crate::manager::OperatorManager), producing
//!   time-series outputs;
//! * [`OperatorMode::OnDemand`] — invoked only via the RESTful API;
//! * [`UnitMode::Sequential`] — one operator instance processes all
//!   units in order (shared model, no race conditions);
//! * [`UnitMode::Parallel`] — "one distinct model (and thus operator) is
//!   created for each unit"; the manager runs due operators one after
//!   another on the ticking thread.

use crate::query::{QueryEngine, QueryMode};
use crate::unit::Unit;
use dcdb_common::error::Result;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// When an operator computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "mode")]
pub enum OperatorMode {
    /// Continuous operation at a fixed interval.
    Online {
        /// Computation interval in milliseconds.
        interval_ms: u64,
    },
    /// Explicit invocation through the RESTful API.
    OnDemand,
}

/// How a plugin's units are distributed across operator instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum UnitMode {
    /// All units share one operator (and one model), processed in order.
    #[default]
    Sequential,
    /// One operator (and model) per unit.
    Parallel,
}

/// One output sample produced by a computation.
pub type Output = (Topic, SensorReading);

/// Everything an operator may touch during one computation: the Query
/// Engine (sensor data + navigator) and the logical time of the tick.
pub struct ComputeContext<'a> {
    /// The process-wide query engine.
    pub query: &'a QueryEngine,
    /// Time of this computation (virtual in simulation, wall in
    /// production).
    pub now: Timestamp,
    /// Cache hits of [`ComputeContext::input_view`] reads, added to the
    /// engine's counter once, when the context goes: one operator run
    /// counts its thousands of reads with one atomic add.
    cache_hits: Cell<u64>,
    /// What [`ComputeContext::input_view`] copies readings into, reused
    /// by every read of the run; a read from inside another's closure
    /// takes a buffer of its own.
    scratch: RefCell<Vec<SensorReading>>,
}

impl Drop for ComputeContext<'_> {
    fn drop(&mut self) {
        self.query.add_cache_hits(self.cache_hits.get());
    }
}

impl<'a> ComputeContext<'a> {
    /// A context over `query` at time `now`.
    pub fn new(query: &'a QueryEngine, now: Timestamp) -> ComputeContext<'a> {
        ComputeContext {
            query,
            now,
            cache_hits: Cell::new(0),
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Reads input `k` of `unit`: `f` sees the readings `mode` selects,
    /// copied into the context's scratch buffer, so nothing is allocated
    /// per read and no guard is held while `f` runs. The unit finds its
    /// sensor's cache on the first read and keeps it, so later reads
    /// look nothing up; while the engine does not know the topic the
    /// read goes by topic.
    pub fn input_view<R>(
        &self,
        unit: &Unit,
        k: usize,
        mode: QueryMode,
        f: impl FnOnce(&[SensorReading]) -> R,
    ) -> R {
        let topic = &unit.inputs[k];
        let mut nested = Vec::new();
        let mut scratch = self.scratch.try_borrow_mut();
        let buf = scratch.as_deref_mut().unwrap_or(&mut nested);
        match unit.input_handle(self.query, k) {
            Some(cache) => self
                .query
                .read_bound(cache, topic, mode, &self.cache_hits, buf),
            None => self.query.read(topic, mode, buf),
        }
        f(buf)
    }

    /// Convenience: the input window of `topic` covering the last
    /// `window_ns`, as `f64` values in timestamp order.
    pub fn window_values(&self, topic: &Topic, window_ns: u64) -> Vec<f64> {
        let mode = QueryMode::Relative {
            offset_ns: window_ns,
        };
        self.query.view(topic, mode, |window| {
            window.iter().map(|r| r.value as f64).collect()
        })
    }

    /// Convenience: the most recent value of `topic`, if any.
    pub fn latest_value(&self, topic: &Topic) -> Option<f64> {
        self.query.view(topic, QueryMode::Latest, |latest| {
            latest.last().map(|r| r.value as f64)
        })
    }
}

/// The agnostic code interface every operator plugin complies to
/// (paper §V: "these follow an agnostic code interface").
pub trait Operator: Send {
    /// Instance name (unique within its plugin).
    fn name(&self) -> &str;

    /// The units this operator computes on.
    fn units(&self) -> &[Unit];

    /// Computes one unit, returning output readings. The manager
    /// publishes them to the caches / bus / storage; on-demand requests
    /// return them directly instead.
    ///
    /// "When performing analysis for a certain unit, access to the
    /// operator's other units is allowed for correlation purposes" —
    /// hence the index-based API over `&mut self`.
    fn compute(&mut self, unit_index: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>>;

    /// Operator-level outputs computed after all units of a tick (e.g.
    /// the average model error across units, §V-C.2). Default: none.
    fn operator_outputs(&mut self, _ctx: &ComputeContext<'_>) -> Vec<Output> {
        Vec::new()
    }

    /// Hook for operators whose unit set is dynamic (job operators
    /// regenerate one unit per running job each tick, §VI-C). Called
    /// before `compute` on every tick. Default: keep units as resolved.
    fn refresh_units(&mut self, _ctx: &ComputeContext<'_>) -> Result<()> {
        Ok(())
    }
}

/// Converts an operator's real-valued result into the sensor integer
/// domain, rejecting values that have no faithful representation: NaN
/// and ±inf (division artifacts), and finite magnitudes beyond the
/// `i64` range (`value as i64` would silently saturate them to
/// `i64::MAX`/`MIN`, publishing a plausible-looking but wrong
/// reading). The `Err` propagates out of `compute` where the runtime
/// counts it against the operator and skips the output — a gap in the
/// derived series, never a fabricated extreme. `what` names the output
/// in that error and is formatted only then: pass `format_args!`.
pub fn finite_output(what: impl std::fmt::Display, value: f64) -> Result<i64> {
    let rounded = value.round();
    // i64::MIN as f64 is exactly -2^63 (representable); i64::MAX as
    // f64 is exactly 2^63 (NOT representable), hence >= on that side.
    // NaN fails both comparisons and lands in the error arm too.
    if rounded >= i64::MIN as f64 && rounded < i64::MAX as f64 {
        Ok(rounded as i64)
    } else {
        Err(dcdb_common::error::DcdbError::InvalidState(format!(
            "{what}: non-representable output {value}"
        )))
    }
}

/// Runs every unit of an operator and collects outputs — the shared
/// "iterate through its units" loop of §V-C.1 used by both the manager
/// (online ticks) and tests.
pub fn compute_all_units(op: &mut dyn Operator, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
    Ok(compute_units(op, ctx)?.0)
}

/// [`compute_all_units`], also telling which unit produced what: entry
/// `i` of the second list is where unit `i`'s outputs end in the first;
/// operator-level outputs follow the last unit's.
pub(crate) fn compute_units(
    op: &mut dyn Operator,
    ctx: &ComputeContext<'_>,
) -> Result<(Vec<Output>, Vec<usize>)> {
    op.refresh_units(ctx)?;
    let n = op.units().len();
    let mut out = Vec::with_capacity(n);
    let mut ends = Vec::with_capacity(n);
    for i in 0..n {
        out.extend(op.compute(i, ctx)?);
        ends.push(out.len());
    }
    out.extend(op.operator_outputs(ctx));
    Ok((out, ends))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::error::DcdbError;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// A minimal operator: averages its unit's input window into the
    /// unit's first output.
    struct AvgOperator {
        name: String,
        units: Vec<Unit>,
        window_ns: u64,
        computed: usize,
    }

    impl Operator for AvgOperator {
        fn name(&self) -> &str {
            &self.name
        }
        fn units(&self) -> &[Unit] {
            &self.units
        }
        fn compute(&mut self, i: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
            self.computed += 1;
            let unit = &self.units[i];
            let mut values = Vec::new();
            for input in &unit.inputs {
                values.extend(ctx.window_values(input, self.window_ns));
            }
            if values.is_empty() {
                return Err(DcdbError::NotFound(format!(
                    "no data for unit {}",
                    unit.name
                )));
            }
            let avg = values.iter().sum::<f64>() / values.len() as f64;
            Ok(vec![(
                unit.outputs[0].clone(),
                SensorReading::new(finite_output("avg", avg)?, ctx.now),
            )])
        }
    }

    fn engine_with_data() -> QueryEngine {
        let qe = QueryEngine::new(32);
        for i in 1..=10u64 {
            qe.insert(
                &t("/n1/power"),
                SensorReading::new(100 + i as i64, Timestamp::from_secs(i)),
            );
            qe.insert(
                &t("/n2/power"),
                SensorReading::new(200 + i as i64, Timestamp::from_secs(i)),
            );
        }
        qe
    }

    fn unit(node: &str) -> Unit {
        Unit::new(
            t(node),
            vec![t(&format!("{node}/power"))],
            vec![t(&format!("{node}/power-avg"))],
        )
    }

    #[test]
    fn compute_all_units_runs_each_unit_once() {
        let qe = engine_with_data();
        let mut op = AvgOperator {
            name: "avg".into(),
            units: vec![unit("/n1"), unit("/n2")],
            window_ns: 5 * dcdb_common::time::NS_PER_SEC,
            computed: 0,
        };
        let ctx = ComputeContext::new(&qe, Timestamp::from_secs(11));
        let outputs = compute_all_units(&mut op, &ctx).unwrap();
        assert_eq!(op.computed, 2);
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[0].0.as_str(), "/n1/power-avg");
        // Average of the ~last 5 readings of 101..=110.
        assert!(outputs[0].1.value >= 105 && outputs[0].1.value <= 110);
        assert_eq!(outputs[1].0.as_str(), "/n2/power-avg");
    }

    #[test]
    fn errors_propagate() {
        let qe = QueryEngine::new(8); // empty engine: no data
        let mut op = AvgOperator {
            name: "avg".into(),
            units: vec![unit("/n1")],
            window_ns: 1,
            computed: 0,
        };
        let ctx = ComputeContext::new(&qe, Timestamp::from_secs(1));
        assert!(compute_all_units(&mut op, &ctx).is_err());
    }

    #[test]
    fn context_helpers() {
        let qe = engine_with_data();
        let ctx = ComputeContext::new(&qe, Timestamp::from_secs(11));
        assert_eq!(ctx.latest_value(&t("/n1/power")), Some(110.0));
        assert_eq!(ctx.latest_value(&t("/missing")), None);
        let w = ctx.window_values(&t("/n1/power"), 3 * dcdb_common::time::NS_PER_SEC);
        assert!(!w.is_empty());
        assert_eq!(*w.last().unwrap(), 110.0);
    }

    #[test]
    fn an_input_view_closure_may_read_again_and_insert() {
        let qe = engine_with_data();
        let unit = Unit::new(
            t("/n"),
            vec![t("/n1/power"), t("/n2/power")],
            vec![t("/n/out")],
        );
        let ctx = ComputeContext::new(&qe, Timestamp::from_secs(11));
        let window = QueryMode::Relative {
            offset_ns: 2 * dcdb_common::time::NS_PER_SEC,
        };
        let (outer, inner) = ctx.input_view(&unit, 0, window, |n1| {
            // A nested read gets a buffer of its own: `n1` stays intact.
            let inner = ctx.input_view(&unit, 1, QueryMode::Latest, |n2| n2.to_vec());
            qe.insert(
                &t("/n1/power"),
                SensorReading::new(111, Timestamp::from_secs(11)),
            );
            (n1.to_vec(), inner)
        });
        assert_eq!(outer.last().map(|r| r.value), Some(110));
        assert!(outer.len() >= 2);
        assert_eq!(inner.iter().map(|r| r.value).collect::<Vec<_>>(), vec![210]);
        let latest = ctx.input_view(&unit, 0, QueryMode::Latest, |n1| n1.to_vec());
        assert_eq!(latest[0].value, 111);
    }

    #[test]
    fn finite_output_guards_non_representable_values() {
        // Ordinary values round.
        assert_eq!(finite_output("t", 14.4).unwrap(), 14);
        assert_eq!(finite_output("t", -14.6).unwrap(), -15);
        assert_eq!(finite_output("t", 0.0).unwrap(), 0);
        // i64::MIN is exactly representable; the top of the range sits
        // at 2^63 which is not.
        assert_eq!(finite_output("t", i64::MIN as f64).unwrap(), i64::MIN);
        // Non-finite and out-of-range magnitudes are errors, not
        // silent saturation to i64::MAX/MIN.
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            i64::MAX as f64, // 2^63, one past the last representable
        ] {
            let err = finite_output("avg", bad).unwrap_err();
            assert!(
                matches!(err, DcdbError::InvalidState(_)),
                "{bad} -> {err:?}"
            );
        }
    }

    #[test]
    fn extreme_inputs_error_instead_of_saturating() {
        // An average of i64::MAX readings exceeds the representable
        // range once rounded in f64; the operator must surface an
        // error (counted by the runtime) rather than publish a
        // saturated i64::MAX as if it were a measurement.
        let qe = QueryEngine::new(8);
        for i in 1..=4u64 {
            qe.insert(
                &t("/n1/power"),
                SensorReading::new(i64::MAX, Timestamp::from_secs(i)),
            );
        }
        let mut op = AvgOperator {
            name: "avg".into(),
            units: vec![unit("/n1")],
            window_ns: 10 * dcdb_common::time::NS_PER_SEC,
            computed: 0,
        };
        let ctx = ComputeContext::new(&qe, Timestamp::from_secs(5));
        let err = compute_all_units(&mut op, &ctx).unwrap_err();
        assert!(
            matches!(err, DcdbError::InvalidState(_)),
            "expected non-representable error, got {err:?}"
        );
    }

    #[test]
    fn mode_serde() {
        let m: OperatorMode =
            serde_json::from_str(r#"{"mode":"online","interval_ms":250}"#).unwrap();
        assert_eq!(m, OperatorMode::Online { interval_ms: 250 });
        let m: OperatorMode = serde_json::from_str(r#"{"mode":"on_demand"}"#).unwrap();
        assert_eq!(m, OperatorMode::OnDemand);
        let u: UnitMode = serde_json::from_str(r#""parallel""#).unwrap();
        assert_eq!(u, UnitMode::Parallel);
        assert_eq!(UnitMode::default(), UnitMode::Sequential);
    }
}
