//! The simulation matrix: every named fault scenario × {small, large},
//! the stack's conservation identities and SLO grades asserted per
//! cell, and a replay determinism probe.
//!
//! ```text
//! cargo run --release -p dcdb-sim --bin sim_matrix              # 14 cells, seconds
//! cargo run --release -p dcdb-sim --bin sim_matrix -- --seed 9  # reseed every cell
//! ```
//!
//! Each cell replays one `(scenario, seed, scale)` triple through the
//! full production path — supervised delivery → chaos transport →
//! sharded federation → (fault-injected) durable storage →
//! scatter-gather queries — deriving every fault lane from the single
//! `--seed` via splitmix64 lanes, and records its trace witness beside
//! the identity verdicts. Re-run any failing cell bit-identically with
//! `wintermute-sim --scenario <name> --seed <s> --sim-scale <scale>`.
//! The large cells run the 1536-node, multi-island topology. Writes
//! `bench-results/sim_matrix.json`; exits nonzero if any identity or SLO
//! gate fails, or if the replay probe sees a different witness.

use dcdb_sim::report::{write_json_report, BenchMeta};
use dcdb_sim::{run_scenario, Scale, ScenarioReport, SCENARIOS};
use serde::Serialize;

/// Result of the end-of-run determinism probe: one cell re-run from
/// scratch, witnesses compared byte-for-byte.
#[derive(Debug, Clone, Serialize)]
struct DeterminismProbe {
    /// Scenario the probe re-ran.
    scenario: String,
    /// Witness of the original cell.
    first: String,
    /// Witness of the re-run.
    second: String,
    /// The witnesses matched.
    ok: bool,
}

/// The full matrix report.
#[derive(Debug, Clone, Serialize)]
struct SimMatrixResult {
    /// Seed every cell used.
    seed: u64,
    /// One report per `(scenario, scale)` cell.
    cells: Vec<ScenarioReport>,
    /// The replay probe.
    determinism: DeterminismProbe,
    /// Combined FNV-1a over every cell's witness — the whole matrix's
    /// reproducibility fingerprint.
    matrix_hash: String,
    /// Every cell's identities and SLOs held and the replay matched.
    ok: bool,
}

/// Runs every scenario at every scale from one seed. `progress` is
/// called with each finished cell (`main` prints a row; tests pass a
/// no-op).
fn run(seed: u64, scales: &[Scale], mut progress: impl FnMut(&ScenarioReport)) -> SimMatrixResult {
    let mut cells = Vec::new();
    for scenario in SCENARIOS {
        for &scale in scales {
            let report = run_scenario(scenario, seed, scale);
            progress(&report);
            cells.push(report);
        }
    }

    // Replay the first cell and require a byte-identical witness.
    let first = &cells[0];
    let scenario = dcdb_sim::find(&first.scenario).expect("cell scenario registered");
    let scale = Scale::parse(&first.scale).expect("cell scale parses");
    let rerun = run_scenario(scenario, seed, scale);
    let determinism = DeterminismProbe {
        scenario: first.scenario.clone(),
        first: first.trace_hash.clone(),
        second: rerun.trace_hash.clone(),
        ok: first.trace_hash == rerun.trace_hash,
    };

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in &cells {
        for b in cell.trace_hash.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    let ok = determinism.ok && cells.iter().all(|c| c.ok);
    SimMatrixResult {
        seed,
        cells,
        determinism,
        matrix_hash: format!("{hash:016x}"),
        ok,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = match args.iter().position(|a| a == "--seed") {
        None => 0xD1CE,
        Some(i) => args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--seed needs a u64 value");
                std::process::exit(2);
            }),
    };
    let scales = [Scale::Small, Scale::Large];

    println!("sim matrix: seed {seed:#x}, scales small + large\n");
    println!(
        "{:<16} {:<6} {:>6} {:>4} {:>7} {:<22} {:>5} {:>5} verdict",
        "scenario", "scale", "nodes", "isl", "events", "witness", "q-ok%", "drops"
    );

    let started = std::time::Instant::now();
    let result = run(seed, &scales, |cell| {
        println!(
            "{:<16} {:<6} {:>6} {:>4} {:>7} {:<22} {:>4.0}% {:>5} {}",
            cell.scenario,
            cell.scale,
            cell.nodes,
            cell.islands,
            cell.trace_events,
            cell.trace_hash,
            cell.slo.complete_query_ratio * 100.0,
            cell.counters.chaos_dropped,
            if cell.ok { "ok" } else { "FAILED" },
        );
    });

    println!(
        "\ndeterminism probe: {} replayed -> {} ({})",
        result.determinism.scenario,
        result.determinism.second,
        if result.determinism.ok {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    println!("matrix fingerprint: {}", result.matrix_hash);

    let meta = BenchMeta::new("sim_matrix", Some(seed), &scales, started);
    match write_json_report(&meta, &result) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write results: {e}"),
    }

    if !result.ok {
        eprintln!("sim matrix FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_matrix_passes_and_replays() {
        let result = run(7, &[Scale::Tiny], |_| {});
        assert_eq!(result.cells.len(), SCENARIOS.len());
        assert!(result.determinism.ok, "{:?}", result.determinism);
        for cell in &result.cells {
            assert!(cell.ok, "cell failed: {cell:#?}");
        }
        assert!(result.ok);
    }
}
