//! `--summarize` folds the per-run result files of several runs into
//! one flat `{"<workload>.<metric>": {median, q1, q3, max, n}}` map (the
//! trajectory file, `results/BENCH_<pr>.json`); `--compare` judges two
//! such maps by each end-to-end metric's direction and bound.

use crate::metrics::{Better, END_TO_END};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Median and quartiles of one metric on one workload over `n` runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = stats::quartiles(values);
        Summary {
            median: stats::median(values),
            q1,
            q3,
            max: values.iter().copied().fold(f64::MIN, f64::max),
            n: values.len(),
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// benchmark contract compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Folds run files (as written beside each run: `{"workload", "seed",
/// "trace", "result"}`) into a flat summary map and writes it to `out`.
pub fn summarize(out: &Path, runs: &[PathBuf]) -> Result<(), String> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for path in runs {
        let run = read_json(path)?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let result = run.get("result").ok_or("no result")?;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (name, metric) in metrics.iter() {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                samples
                    .entry(format!("{workload}.{name}"))
                    .or_default()
                    .push(value);
            }
        }
        let attempted = result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(1.0);
        let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        samples
            .entry(format!("{workload}.failed_share"))
            .or_default()
            .push(failed / attempted.max(1.0));
    }
    let rows: Vec<String> = samples
        .iter()
        .map(|(key, values)| {
            let s = Summary::of(values);
            format!(
                "  \"{key}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"max\": {}, \"n\": {}}}",
                s.median, s.q1, s.q3, s.max, s.n
            )
        })
        .collect();
    let body = format!("{{\n{}\n}}\n", rows.join(",\n"));
    std::fs::write(out, body).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "{} metric summaries from {} runs written to {}",
        rows.len(),
        runs.len(),
        out.display()
    );
    Ok(())
}

fn load(path: &Path) -> Result<BTreeMap<String, Summary>, String> {
    let json = read_json(path)?;
    let map = json
        .as_object()
        .ok_or_else(|| format!("{}: not a JSON object", path.display()))?;
    let mut out = BTreeMap::new();
    for (key, entry) in map.iter() {
        let field = |name: &str| entry.get(name).and_then(Value::as_f64);
        if let (Some(median), Some(q1), Some(q3), Some(max), Some(n)) = (
            field("median"),
            field("q1"),
            field("q3"),
            field("max"),
            field("n"),
        ) {
            out.insert(
                key.clone(),
                Summary {
                    median,
                    q1,
                    q3,
                    max,
                    n: n as usize,
                },
            );
        }
    }
    Ok(out)
}

/// The verdict on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so "no worse" can
    /// be neither shown nor refuted.
    Unresolved,
}

/// Judges `b` against parent `a`: worse by more than `bound` of the
/// parent's median is a regression; within the bound is `ok` only when
/// both spreads are within the bound too.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / base,
        Better::Higher => (a.median - b.median) / base,
    };
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (end-to-end metric, workload) present in both
/// files; `Ok(false)` on a regression or a larger `failed_share`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut pass = true;
    println!(
        "{:<34} {:>12} {:>21} {:>12} {:>21} {:>8} {:>6}  verdict",
        "workload.metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound"
    );
    for (key, sa) in &a {
        let Some(sb) = b.get(key) else { continue };
        let metric = key.rsplit('.').next().unwrap_or(key);
        let (verdict, bound) = if metric == "failed_share" {
            // No tolerance, and no median: one run of ten with a failed
            // operation is a failure the other nine do not outvote.
            let regressed = sb.max > sa.max;
            pass &= !regressed;
            println!(
                "{key:<34} worst run of A {}, of B {}  {}",
                sa.max,
                sb.max,
                if regressed { "regressed" } else { "ok" }
            );
            continue;
        } else if let Some(m) = END_TO_END
            .iter()
            .find(|m| key.ends_with(&format!(".{}", m.name)))
        {
            (judge(sa, sb, m.better, m.bound), m.bound)
        } else {
            continue; // per-layer metrics carry no bound
        };
        pass &= verdict != Verdict::Regressed;
        println!(
            "{key:<34} {:>12.4} [{:>9.4},{:>9.4}] {:>12.4} [{:>9.4},{:>9.4}] {:>+7.1}% {:>5.0}%  {}",
            sa.median,
            sa.q1,
            sa.q3,
            sb.median,
            sb.q1,
            sb.q3,
            100.0 * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE),
            100.0 * bound,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, half_spread: f64) -> Summary {
        Summary {
            median,
            q1: median - half_spread,
            q3: median + half_spread,
            max: median + 2.0 * half_spread,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&s(100.0, 1.0), &s(105.0, 1.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(100.0, 1.0), &s(115.0, 1.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&s(100.0, 1.0), &s(50.0, 1.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(&s(100.0, 1.0), &s(85.0, 1.0), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&s(100.0, 1.0), &s(130.0, 1.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            judge(&s(100.0, 8.0), &s(101.0, 1.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
