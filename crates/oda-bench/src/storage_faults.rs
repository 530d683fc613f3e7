//! Storage-fault benchmark: the durable engine through injected I/O
//! faults.
//!
//! Not a figure of the paper — DCDB delegates storage fault handling to
//! Cassandra (paper §IV-A) — but the property the embedded engine is
//! judged by when the disk misbehaves: a simulated (virtual-time) run
//! drives acknowledged inserts through a seeded [`FaultIo`] window of
//! ENOSPC / EIO / fsync-failure / torn-write faults and measures, per
//! fault class:
//!
//! * **state machine** — when the engine demoted to Degraded /
//!   ReadOnly, and how long after the fault window lifted until it was
//!   Healthy again (recovery time);
//! * **time in state** — virtual milliseconds spent Healthy / Degraded /
//!   ReadOnly;
//! * **accounting** — the conservation identity
//!   `ingested == durable + buffered + shed` over the whole run;
//! * **durability** — the process "crashes" (the engine is leaked so
//!   its final fsync never runs), the directory is reopened on the real
//!   filesystem, and every reading that was *acknowledged durable* must
//!   be recovered: `lost_acked` is required to be zero.
//!
//! Everything is clocked on virtual time with fixed seeds, so runs are
//! bit-for-bit reproducible. Results land in
//! `bench-results/storage_faults.json`.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::reading::SensorReading;
use dcdb_common::sim::derive_seed;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_storage::{
    DurableBackend, DurableConfig, FaultConfig, FaultIo, FsyncPolicy, HealthConfig, HealthState,
    InsertAck, StorageIo,
};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;

/// One fault class under test.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Short name used in the report ("enospc", "eio", ...).
    pub name: String,
    /// Write/create budget in bytes before `ENOSPC`, while the window
    /// is active.
    pub enospc_after_bytes: Option<u64>,
    /// Per-op `EIO` probability inside the window.
    pub eio_prob: f64,
    /// Per-fsync failure probability inside the window.
    pub fsync_fail_prob: f64,
    /// Per-write torn-write probability inside the window.
    pub torn_write_prob: f64,
}

/// Workload shape.
#[derive(Debug, Clone)]
pub struct StorageFaultsConfig {
    /// Simulated run length, seconds.
    pub duration_s: u64,
    /// Virtual tick / insert interval, milliseconds.
    pub interval_ms: u64,
    /// Distinct sensor topics, one acked batch each per tick.
    pub topics: usize,
    /// Readings per topic per tick.
    pub batch: usize,
    /// The fault window, `(from_ms, until_ms)` into the run.
    pub fault_window_ms: (u64, u64),
    /// Fault RNG seed (each scenario derives its own from it).
    pub seed: u64,
    /// Memtable seal threshold, readings.
    pub memtable_max_readings: usize,
    /// The fault grid.
    pub scenarios: Vec<FaultScenario>,
}

fn scenario_grid() -> Vec<FaultScenario> {
    let quiet = FaultScenario {
        name: String::new(),
        enospc_after_bytes: None,
        eio_prob: 0.0,
        fsync_fail_prob: 0.0,
        torn_write_prob: 0.0,
    };
    vec![
        FaultScenario {
            name: "enospc".into(),
            enospc_after_bytes: Some(4 * 1024),
            ..quiet.clone()
        },
        FaultScenario {
            name: "eio".into(),
            eio_prob: 0.6,
            ..quiet.clone()
        },
        FaultScenario {
            name: "fsync".into(),
            fsync_fail_prob: 0.6,
            ..quiet.clone()
        },
        FaultScenario {
            name: "torn".into(),
            torn_write_prob: 0.6,
            ..quiet
        },
    ]
}

impl StorageFaultsConfig {
    /// Full run: 30 s simulated, faults active from 5 s to 15 s.
    pub fn paper() -> StorageFaultsConfig {
        StorageFaultsConfig {
            duration_s: 30,
            interval_ms: 250,
            topics: 8,
            batch: 4,
            fault_window_ms: (5_000, 15_000),
            seed: 0x5707_FA17,
            memtable_max_readings: 2_000,
            scenarios: scenario_grid(),
        }
    }

    /// Smoke run for CI: same grid, shorter horizon.
    pub fn quick() -> StorageFaultsConfig {
        StorageFaultsConfig {
            duration_s: 12,
            fault_window_ms: (2_000, 6_000),
            topics: 4,
            ..StorageFaultsConfig::paper()
        }
    }
}

/// One scenario's measurement.
#[derive(Debug, Clone, Serialize)]
pub struct StorageFaultCell {
    /// Fault class name.
    pub scenario: String,
    /// Seed the scenario's injector ran with.
    pub seed: u64,
    /// Readings offered to the engine.
    pub ingested: u64,
    /// Readings acknowledged durable at insert time.
    pub acked_durable: u64,
    /// Readings acknowledged memtable-only (`InsertAck::Buffered`).
    pub acked_buffered: u64,
    /// Insert calls refused outright (readings shed).
    pub shed: u64,
    /// Injected faults: ENOSPC / EIO / fsync / torn-write counts.
    pub injected_enospc: u64,
    /// Injected EIO failures.
    pub injected_eio: u64,
    /// Injected fsync failures.
    pub injected_fsync_failures: u64,
    /// Injected torn writes.
    pub injected_torn_writes: u64,
    /// Engine-side error counters at the end of the run.
    pub write_errors: u64,
    /// Append retries performed.
    pub write_retries: u64,
    /// WAL writers poisoned by failed fsyncs.
    pub fsync_poisonings: u64,
    /// WAL rotations (poison recovery + probes).
    pub wal_rotations: u64,
    /// ReadOnly probes attempted.
    pub probes: u64,
    /// Milliseconds into the run when Degraded was first observed.
    pub degraded_at_ms: Option<u64>,
    /// Milliseconds into the run when ReadOnly was first observed.
    pub readonly_at_ms: Option<u64>,
    /// Milliseconds from the fault window lifting until the engine was
    /// observed Healthy again (`None` if it never demoted — nothing to
    /// recover from — or never healed, which the tests reject).
    pub recovery_ms: Option<u64>,
    /// Virtual time spent Healthy, milliseconds.
    pub time_healthy_ms: u64,
    /// Virtual time spent Degraded, milliseconds.
    pub time_degraded_ms: u64,
    /// Virtual time spent ReadOnly, milliseconds.
    pub time_readonly_ms: u64,
    /// The conservation identity `ingested == durable + buffered +
    /// shed` held at the end of the run.
    pub conserved: bool,
    /// Final health state.
    pub final_state: String,
    /// Readings visible after the crash + reopen on the real
    /// filesystem.
    pub reopen_readings: usize,
    /// Torn WAL tails the reopen had to discard.
    pub reopen_torn_tails: usize,
    /// Corrupt files the reopen quarantined.
    pub reopen_quarantined: usize,
    /// Acknowledged-durable readings missing after the reopen. The
    /// engine's journal-before-ack contract makes this **zero** by
    /// definition; anything else is a bug.
    pub lost_acked: u64,
}

/// Full result grid.
#[derive(Debug, Clone, Serialize)]
pub struct StorageFaultsResult {
    /// Simulated run length, seconds.
    pub duration_s: u64,
    /// Virtual tick, milliseconds.
    pub interval_ms: u64,
    /// Topics written per tick.
    pub topics: usize,
    /// Readings per topic per tick.
    pub batch: usize,
    /// Fault window, milliseconds into the run.
    pub fault_window_ms: (u64, u64),
    /// Base seed.
    pub seed: u64,
    /// One entry per fault class.
    pub cells: Vec<StorageFaultCell>,
}

fn topic_list(n: usize) -> Vec<Topic> {
    (0..n)
        .map(|i| Topic::parse(&format!("/bench/node{i:02}/power")).unwrap())
        .collect()
}

fn run_cell(
    config: &StorageFaultsConfig,
    scenario: &FaultScenario,
    index: usize,
    dir: &Path,
) -> StorageFaultCell {
    std::fs::remove_dir_all(dir).ok();
    let seed = derive_seed(config.seed, index as u64);
    let (from_ms, until_ms) = config.fault_window_ms;
    let fault_cfg = FaultConfig {
        enospc_after_bytes: scenario.enospc_after_bytes,
        eio_prob: scenario.eio_prob,
        fsync_fail_prob: scenario.fsync_fail_prob,
        torn_write_prob: scenario.torn_write_prob,
        ..FaultConfig::quiet(seed)
    }
    .with_window_ms(from_ms, until_ms);
    let io = Arc::new(FaultIo::std(fault_cfg));

    let durable_config = DurableConfig {
        fsync: FsyncPolicy::Always,
        memtable_max_readings: config.memtable_max_readings,
        health: HealthConfig {
            // Virtual-time run: retries must not sleep the wall clock,
            // and probes must come due within a few ticks.
            retry_backoff_base_ms: 0,
            readonly_after: 4,
            probe_base_ms: config.interval_ms,
            probe_cap_ms: config.interval_ms * 8,
            ..HealthConfig::default()
        },
        ..DurableConfig::default()
    };
    let db = DurableBackend::open_with(
        Arc::clone(&io) as Arc<dyn StorageIo>,
        dir,
        durable_config.clone(),
    )
    .expect("open fault bench dir");

    let topics = topic_list(config.topics);
    // Every reading acknowledged `Durable`, keyed by (topic, ts): the
    // set the post-crash reopen must fully recover.
    let mut acked: Vec<Vec<u64>> = vec![Vec::new(); topics.len()];
    let mut ingested = 0u64;
    let mut acked_durable = 0u64;
    let mut acked_buffered = 0u64;
    let mut shed = 0u64;
    let mut degraded_at_ms = None;
    let mut readonly_at_ms = None;
    let mut healed_at_ms = None;

    let total_ticks = config.duration_s * 1000 / config.interval_ms;
    for tick in 1..=total_ticks {
        let now_ms = tick * config.interval_ms;
        let now = Timestamp::from_millis(now_ms);
        io.advance(now);
        for (i, topic) in topics.iter().enumerate() {
            let batch: ReadingBatch = (0..config.batch)
                .map(|j| {
                    let ts = now_ms * 1_000_000 + i as u64 * 1000 + j as u64;
                    SensorReading::new((tick * 100 + j as u64) as i64, Timestamp(ts))
                })
                .collect();
            ingested += batch.len() as u64;
            match db.insert_columns_acked(topic, &batch) {
                Ok(InsertAck::Durable) => {
                    acked_durable += batch.len() as u64;
                    acked[i].extend(&batch.ts);
                }
                Ok(InsertAck::Buffered) => acked_buffered += batch.len() as u64,
                Err(_) => shed += batch.len() as u64,
            }
        }
        let _ = db.maintain(now);
        let state = db.health_report().state;
        if state != HealthState::Healthy && degraded_at_ms.is_none() {
            degraded_at_ms = Some(now_ms);
        }
        if state == HealthState::ReadOnly && readonly_at_ms.is_none() {
            readonly_at_ms = Some(now_ms);
        }
        if now_ms > until_ms && healed_at_ms.is_none() && state == HealthState::Healthy {
            healed_at_ms = Some(now_ms);
        }
    }

    let report = db.health_report();
    let stats = io.stats();
    let cell_base = StorageFaultCell {
        scenario: scenario.name.clone(),
        seed,
        ingested,
        acked_durable,
        acked_buffered,
        shed,
        injected_enospc: stats.injected_enospc,
        injected_eio: stats.injected_eio,
        injected_fsync_failures: stats.injected_fsync_failures,
        injected_torn_writes: stats.injected_torn_writes,
        write_errors: report.write_errors,
        write_retries: report.write_retries,
        fsync_poisonings: report.fsync_poisonings,
        wal_rotations: report.wal_rotations,
        probes: report.probes,
        degraded_at_ms,
        readonly_at_ms,
        recovery_ms: match (degraded_at_ms, healed_at_ms) {
            (Some(_), Some(healed)) => Some(healed.saturating_sub(until_ms)),
            _ => None,
        },
        time_healthy_ms: report.healthy_ns / 1_000_000,
        time_degraded_ms: report.degraded_ns / 1_000_000,
        time_readonly_ms: report.readonly_ns / 1_000_000,
        conserved: report.conserved(),
        final_state: report.state.as_str().to_string(),
        reopen_readings: 0,
        reopen_torn_tails: 0,
        reopen_quarantined: 0,
        lost_acked: 0,
    };

    // "Crash": leak the engine so its final flush/fsync never runs,
    // then reopen the directory on the real filesystem and check that
    // every acknowledged-durable reading survived.
    std::mem::forget(db);
    let reopened = DurableBackend::open(dir, durable_config).expect("reopen after simulated crash");
    let rec = reopened.recovery();
    let mut lost_acked = 0u64;
    let mut reopen_readings = 0usize;
    for (i, topic) in topics.iter().enumerate() {
        let got = reopened.query(topic, Timestamp::ZERO, Timestamp::MAX);
        reopen_readings += got.len();
        let have: std::collections::HashSet<u64> = got.iter().map(|r| r.ts.as_nanos()).collect();
        lost_acked += acked[i].iter().filter(|ts| !have.contains(ts)).count() as u64;
    }
    drop(reopened);
    std::fs::remove_dir_all(dir).ok();

    StorageFaultCell {
        reopen_readings,
        reopen_torn_tails: rec.torn_tails,
        reopen_quarantined: rec.quarantined,
        lost_acked,
        ..cell_base
    }
}

/// Runs the full fault grid.
pub fn run(config: &StorageFaultsConfig, dir: &Path) -> StorageFaultsResult {
    let cells = config
        .scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| run_cell(config, s, i, dir))
        .collect();
    StorageFaultsResult {
        duration_s: config.duration_s,
        interval_ms: config.interval_ms,
        topics: config.topics,
        batch: config.batch,
        fault_window_ms: config.fault_window_ms,
        seed: config.seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capped CI run (virtual time, so wall-clock cheap): every fault
    /// class demotes the engine, the engine heals once the window
    /// lifts, accounting is exact, and no acknowledged-durable reading
    /// is lost across the simulated crash.
    #[test]
    fn fault_grid_invariants_hold_on_quick_run() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oda-bench-storage-faults-{}", std::process::id()));
        let config = StorageFaultsConfig::quick();
        let result = run(&config, &dir);
        assert_eq!(result.cells.len(), 4);
        for cell in &result.cells {
            assert!(
                cell.conserved,
                "{}: accounting leak: {cell:?}",
                cell.scenario
            );
            assert_eq!(
                cell.lost_acked, 0,
                "{}: acked-durable readings lost: {cell:?}",
                cell.scenario
            );
            assert!(
                cell.degraded_at_ms.is_some(),
                "{}: the fault window must demote the engine: {cell:?}",
                cell.scenario
            );
            assert_eq!(
                cell.final_state, "healthy",
                "{}: the engine must heal after the window: {cell:?}",
                cell.scenario
            );
            assert!(
                cell.recovery_ms.is_some(),
                "{}: recovery time must be measured: {cell:?}",
                cell.scenario
            );
            assert!(
                cell.write_errors > 0,
                "{}: faults must surface as write errors: {cell:?}",
                cell.scenario
            );
            assert!(
                cell.time_healthy_ms > 0,
                "{}: time-in-state accounting ran: {cell:?}",
                cell.scenario
            );
        }
    }

    /// Identical seeds replay identical fault sequences and counters.
    #[test]
    fn runs_are_deterministic() {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "oda-bench-storage-faults-det-{}",
            std::process::id()
        ));
        let config = StorageFaultsConfig {
            duration_s: 6,
            fault_window_ms: (1_000, 3_000),
            topics: 2,
            scenarios: scenario_grid().into_iter().take(2).collect(),
            ..StorageFaultsConfig::quick()
        };
        let a = run(&config, &dir);
        let b = run(&config, &dir);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.injected_enospc, cb.injected_enospc);
            assert_eq!(ca.injected_eio, cb.injected_eio);
            assert_eq!(ca.injected_fsync_failures, cb.injected_fsync_failures);
            assert_eq!(ca.injected_torn_writes, cb.injected_torn_writes);
            assert_eq!(ca.acked_durable, cb.acked_durable);
            assert_eq!(ca.shed, cb.shed);
            assert_eq!(ca.write_errors, cb.write_errors);
        }
    }
}
