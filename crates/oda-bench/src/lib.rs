//! # oda-bench — reproduction harness for the Wintermute evaluation
//!
//! One module per figure of the paper's §VI and one for the
//! correctness gate, plus shared reporting helpers. Each module exposes a
//! `run`-style function returning a serializable result; the `src/bin/`
//! binaries print the same rows and series the paper's figures show and
//! write the raw data as JSON. Throughput, latency and cost per layer
//! are measured by the separate `pipeline-bench` package, not here.
//!
//! | Module | Paper artifact or gate |
//! |---|---|
//! | [`fig5`] | Fig. 5a/5b — Query Engine overhead heatmaps + §VI-A footprint |
//! | [`fig6`] | Fig. 6a/6b — power prediction series and error PDF |
//! | [`fig7`] | Fig. 7 — per-job CPI deciles for four CORAL-2 apps |
//! | [`fig8`] | Fig. 8 — BGMM clustering of node behaviour |
//! | [`sim_matrix`] | Fault scenario × scale matrix over the deterministic simulation harness |
//!
//! Every binary writes `bench-results/<name>.json` in a normalized
//! shape: `{"meta": {...}, "data": {...}}` where the [`BenchMeta`]
//! block records the bench name, RNG seed, the exact config the run
//! used, and the wall-clock duration — so result files are
//! self-describing and comparable across runs.

#![warn(missing_docs)]

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod sim_matrix;

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// The common metadata block every harness attaches to its JSON report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Bench name; also the `bench-results/<name>.json` file stem.
    pub bench: String,
    /// RNG seed the run used, if the harness is seeded.
    pub seed: Option<u64>,
    /// The exact configuration of the run (`Debug` of the config
    /// struct), so a result file records what produced it.
    pub config: String,
    /// Wall-clock duration of the run, milliseconds.
    pub duration_ms: u64,
    /// Named fault scenario the run replayed (null unless the harness
    /// is driven by the deterministic simulation layer).
    #[serde(default)]
    pub scenario: Option<String>,
    /// Determinism witness (`"{events}:{hash}"`) of the run's canonical
    /// event trace: re-running the recorded `scenario` + `seed` must
    /// reproduce this exact value.
    #[serde(default)]
    pub trace_hash: Option<String>,
}

impl BenchMeta {
    /// Builds the meta block for `bench`, stamping `duration_ms` from
    /// `started` (capture `Instant::now()` before the run).
    pub fn new(
        bench: &str,
        seed: Option<u64>,
        config: &impl std::fmt::Debug,
        started: Instant,
    ) -> BenchMeta {
        BenchMeta {
            bench: bench.to_string(),
            seed,
            config: format!("{config:?}"),
            duration_ms: started.elapsed().as_millis() as u64,
            scenario: None,
            trace_hash: None,
        }
    }

    /// Records the replayed scenario name and its determinism witness,
    /// making the result file reproducible from `(scenario, seed)`.
    pub fn with_scenario(mut self, scenario: &str, trace_hash: &str) -> BenchMeta {
        self.scenario = Some(scenario.to_string());
        self.trace_hash = Some(trace_hash.to_string());
        self
    }
}

/// Writes the normalized report `{"meta": meta, "data": data}` to
/// `bench-results/<meta.bench>.json`.
pub fn write_json_report<T: serde::Serialize>(
    meta: &BenchMeta,
    data: &T,
) -> std::io::Result<std::path::PathBuf> {
    let to_io = |e: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut obj = serde_json::Map::new();
    obj.insert(
        "meta".to_string(),
        serde_json::to_value(meta).map_err(to_io)?,
    );
    obj.insert(
        "data".to_string(),
        serde_json::to_value(data).map_err(to_io)?,
    );
    write_json(&meta.bench, &serde_json::Value::Object(obj))
}

/// Writes a serializable result next to the repository root so the
/// figure data survives the run (`bench-results/<name>.json`).
pub fn write_json<T: serde::Serialize>(
    name: &str,
    value: &T,
) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("bench-results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Formats a heatmap-style table of overhead cells (rows = range,
/// columns = query counts), mirroring the layout of Fig. 5.
pub fn format_heatmap(cells: &[fig5::OverheadCell]) -> String {
    use std::collections::BTreeSet;
    let queries: BTreeSet<usize> = cells.iter().map(|c| c.queries).collect();
    let ranges: BTreeSet<u64> = cells.iter().map(|c| c.range_ms).collect();
    let mut out = String::from("range_ms \\ queries |");
    for q in &queries {
        out.push_str(&format!(" {q:>7} |"));
    }
    out.push('\n');
    for r in ranges.iter().rev() {
        out.push_str(&format!("{r:>18} |"));
        for q in &queries {
            let cell = cells
                .iter()
                .find(|c| c.queries == *q && c.range_ms == *r)
                .map(|c| c.overhead_pct)
                .unwrap_or(f64::NAN);
            out.push_str(&format!(" {cell:>6.2}% |"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_formatting() {
        let cells = vec![
            fig5::OverheadCell {
                queries: 2,
                range_ms: 0,
                overhead_pct: 0.1,
            },
            fig5::OverheadCell {
                queries: 10,
                range_ms: 0,
                overhead_pct: 0.2,
            },
            fig5::OverheadCell {
                queries: 2,
                range_ms: 1000,
                overhead_pct: 0.3,
            },
            fig5::OverheadCell {
                queries: 10,
                range_ms: 1000,
                overhead_pct: 0.4,
            },
        ];
        let table = format_heatmap(&cells);
        assert!(table.contains("0.10%"));
        assert!(table.contains("0.40%"));
        assert_eq!(table.lines().count(), 3);
    }
}
