//! The result of one simulated scenario run: the determinism witness,
//! the conservation-identity verdicts, and the SLO numbers — and the
//! one writer every result file under `bench-results/` goes through.
//!
//! Everything in a [`ScenarioReport`] is a pure function of `(scenario,
//! seed, scale)`: [`CounterSummary`] and the trace witness are compared
//! byte-for-byte by the determinism property test, so nothing
//! wall-clock-derived may appear in them (wall durations live in the
//! surrounding [`BenchMeta`], never in the report).

use crate::ledger::AnswerReport;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// The metadata block of a result file: what ran, with which seed and
/// configuration, and for how long.
#[derive(Debug, Clone, Serialize)]
pub struct BenchMeta {
    /// Bench name; also the `bench-results/<name>.json` file stem.
    pub bench: String,
    /// RNG seed the run used, if the run is seeded.
    pub seed: Option<u64>,
    /// The exact configuration of the run (`Debug` of the config
    /// struct), so a result file records what produced it.
    pub config: String,
    /// Wall-clock duration of the run, milliseconds.
    pub duration_ms: u64,
}

impl BenchMeta {
    /// Builds the meta block for `bench`, stamping `duration_ms` from
    /// `started` (an `Instant` captured before the run).
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
        }
    }
}

/// Writes `{"meta": meta, "data": data}` to
/// `bench-results/<meta.bench>.json` under the working directory.
pub fn write_json_report<T: Serialize>(meta: &BenchMeta, data: &T) -> std::io::Result<PathBuf> {
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
    let dir = PathBuf::from("bench-results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.json", meta.bench));
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(obj)).map_err(to_io)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Verdicts of the conservation identities the run asserted. Each
/// identity is a per-layer accounting law that must hold *under*
/// injected faults — faults move readings between the terms, they never
/// make the books stop balancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IdentityReport {
    /// Broker tier: `published == delivered + dropped` across the
    /// federation's internal brokers.
    pub bus: bool,
    /// Supervised-connection tier, summed over every connection:
    /// `offered == published + spool_dropped + spool_depth_end +
    /// final_errors`.
    pub delivery: bool,
    /// Chaos layer → federation chain: every publish the chaos layer
    /// forwarded (`passed + released`) is accounted by the federation
    /// as accepted or refused.
    pub chaos_chain: bool,
    /// Storage-engine health books on every shard node, each and
    /// summed: `ingested == durable + buffered + shed`, with
    /// `ingested > 0` (every cell runs the durable engine).
    pub storage: bool,
    /// Operator runtime: `runs == successes + errors + panics +
    /// overruns + quarantined_skips`. Vacuously true when the operator
    /// lane is off.
    pub operators: bool,
    /// Every query envelope satisfied `shards_total == shards_ok +
    /// shards_timed_out + shards_down`.
    pub envelopes: bool,
    /// One final scatter-gather per topic against the ledger of
    /// readings the federation accepted: no phantom, duplicated or
    /// wrong-valued reading, and every missing one attributed.
    pub answers: bool,
}

impl IdentityReport {
    /// True when every identity held.
    pub fn all(&self) -> bool {
        self.bus
            && self.delivery
            && self.chaos_chain
            && self.storage
            && self.operators
            && self.envelopes
            && self.answers
    }
}

/// Deterministic end-of-run counters. Two runs of the same
/// `(scenario, seed, scale)` must produce an identical summary — the
/// determinism test compares this struct with `==` alongside the trace
/// witness.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CounterSummary {
    /// Readings handed to the delivery tier in fresh frames.
    pub offered: u64,
    /// Fresh frames handed to the delivery tier: one per node and
    /// round.
    pub offered_frames: u64,
    /// Readings the delivery tier published (fresh + drained re-sends).
    pub published: u64,
    /// Readings evicted from spools (overflow policy).
    pub spool_dropped: u64,
    /// Readings still parked in spools at the end of the run.
    pub spool_depth_end: u64,
    /// Readings that could neither be published nor spooled.
    pub delivery_final_errors: u64,
    /// Publishes refused by chaos outage windows or partitions.
    pub chaos_refused: u64,
    /// Publishes accepted by the chaos layer but silently dropped.
    pub chaos_dropped: u64,
    /// Publishes forwarded to the federation inline.
    pub chaos_passed: u64,
    /// Delayed publishes released to the federation.
    pub chaos_released: u64,
    /// Publishes the federation accepted.
    pub fed_publishes: u64,
    /// Publishes the federation refused (owning shard down).
    pub fed_refused: u64,
    /// Readings in the publishes the federation accepted
    /// (`fed_publishes` counts frames).
    pub fed_readings: u64,
    /// Sum of `ingested` over the storage engines of every primary live
    /// at the end or at its kill.
    pub storage_ingested: u64,
    /// Sum of `durable` over the same engines.
    pub storage_durable: u64,
    /// Sum of `buffered` over the same engines.
    pub storage_buffered: u64,
    /// Sum of `shed` over the same engines.
    pub storage_shed: u64,
    /// Readings a primary's engine had shed — served by its sensor
    /// cache alone — when the node was killed: the only readings the
    /// `answers` identity lets the final answers lack.
    pub lost_shed_at_kill: u64,
    /// Operator computations due (all outcomes).
    pub operator_runs: u64,
    /// Contained operator panics.
    pub operator_panics: u64,
    /// Operator errors.
    pub operator_errors: u64,
    /// Operators currently quarantined at the end of the run.
    pub operator_quarantined: u64,
    /// Standby promotions across all shards.
    pub promotions: u64,
    /// Shards degraded out of the ring (no standby to promote).
    pub degraded_removals: u64,
    /// Kill actions the scheduler applied.
    pub kills: u64,
    /// Rejoin actions the scheduler applied.
    pub rejoins: u64,
    /// Scatter-gather queries issued (routine probes + storms).
    pub queries: u64,
    /// Queries whose envelope was not complete.
    pub partial_queries: u64,
    /// Queries issued by flash-crowd storm bursts alone.
    pub storm_queries: u64,
}

/// Service-level numbers the harness grades, scenario-independent.
#[derive(Debug, Clone, Serialize)]
pub struct SloReport {
    /// Fraction of queries whose envelope was complete.
    pub complete_query_ratio: f64,
    /// Chaos-layer silent losses over frames offered: the chaos layer
    /// drops whole messages.
    pub drop_ratio: f64,
    /// Readings shed by storage over readings the federation accepted.
    pub shed_ratio: f64,
    /// Every kill was answered by exactly one promotion, every shard is
    /// up again, and replication lag is back within one round's batch.
    pub failovers_resolved: bool,
    /// Every durable engine journals again after the fault window
    /// lifted: none left ReadOnly, no write-behind buffer undrained (a
    /// node promoted in the last round may still be Degraded).
    pub storage_healed: bool,
    /// Every spool drained and nothing was lost outright once the last
    /// outage had lifted.
    pub delivery_drained: bool,
    /// The SLO gates held: a majority of queries complete, silent loss
    /// and storage shedding bounded by the injected fault schedule,
    /// failovers resolved, storage healed, delivery drained.
    pub ok: bool,
}

/// The full, serializable outcome of one scenario run.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name (registry key).
    pub scenario: String,
    /// The single seed every fault lane derived from.
    pub seed: u64,
    /// Scale label (`tiny` / `small` / `large`).
    pub scale: String,
    /// Simulated nodes in the topology.
    pub nodes: usize,
    /// Islands in the topology.
    pub islands: usize,
    /// Collect Agents in the federation.
    pub agents: usize,
    /// Ingest rounds driven.
    pub rounds: u64,
    /// Events appended to the canonical trace.
    pub trace_events: u64,
    /// The determinism witness: `"{events}:{fnv1a64:016x}"` over the
    /// canonical trace. Two runs of the same `(scenario, seed, scale)`
    /// must produce identical witnesses.
    pub trace_hash: String,
    /// The last few trace lines, for diagnosing a witness mismatch.
    pub trace_tail: Vec<String>,
    /// Per-layer conservation verdicts.
    pub identities: IdentityReport,
    /// The final answers against the ledger, behind `identities.answers`.
    pub answers: AnswerReport,
    /// Deterministic end-of-run counters.
    pub counters: CounterSummary,
    /// Graded service levels.
    pub slo: SloReport,
    /// Identities all held and the SLO gates passed.
    pub ok: bool,
}
