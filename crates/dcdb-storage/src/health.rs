//! Storage health: the state machine that keeps the durable engine
//! useful while its disk is not.
//!
//! The engine classifies itself into three states:
//!
//! * **Healthy** — writes succeed; normal operation.
//! * **Degraded** — a recent write failed; appends are retried with
//!   bounded exponential backoff and still acknowledged only once
//!   journaled. One successful write heals back to Healthy.
//! * **ReadOnly** — `readonly_after` writes in a row failed. Reads keep
//!   working; writes are accepted into a *bounded* memtable-only
//!   write-behind buffer (never acknowledged durable) until the buffer
//!   fills, after which they are shed. Probes attempt a WAL rotation,
//!   the first one base backoff after the demotion, then doubling; the
//!   first success re-journals the memtable (draining the buffer into
//!   durability) and returns straight to Healthy.
//!
//! The states are the shared [`Supervisor`]'s — Healthy is `Up`,
//! Degraded `Degraded`, ReadOnly `Down` — run under the one lock the
//! core already took. The write path has no clock: its outcomes are
//! clocked at the instant of the last `maintain`.
//!
//! Every reading the engine ever accepts is accounted against the
//! conservation identity `ingested == durable + buffered + shed` —
//! the invariant the fault harness and the tests check.
//!
//! The core is shared as an `Arc` so observers (tests, the Collect
//! Agent) can keep reading counters — including the final
//! `drop_sync_errors` — after the engine itself is gone.

use dcdb_common::supervisor::{ConnectionState, ReconnectConfig, Supervisor};
use dcdb_common::time::Timestamp;
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Health classification of the durable engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum HealthState {
    /// Writes succeed; normal operation.
    Healthy,
    /// Recent write errors; retrying, still fully durable.
    Degraded,
    /// Journal cannot make progress; buffering writes, probing.
    ReadOnly,
}

impl HealthState {
    fn of(state: ConnectionState) -> HealthState {
        match state {
            ConnectionState::Up => HealthState::Healthy,
            ConnectionState::Degraded => HealthState::Degraded,
            ConnectionState::Down => HealthState::ReadOnly,
        }
    }

    /// Stable lower-case spelling used in metrics and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::ReadOnly => "read_only",
        }
    }
}

/// Tuning knobs of the health state machine.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Append retry attempts (beyond the first try) before an insert
    /// gives up.
    pub max_retries: u32,
    /// First retry backoff, milliseconds (doubles per attempt).
    pub retry_backoff_base_ms: u64,
    /// Consecutive write failures that demote to ReadOnly (the first
    /// one already degrades).
    pub readonly_after: u32,
    /// Bound of the memtable-only write-behind buffer (readings)
    /// accepted under ReadOnly before writes are shed.
    pub buffer_max_readings: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            max_retries: 3,
            retry_backoff_base_ms: 1,
            readonly_after: 6,
            buffer_max_readings: 100_000,
        }
    }
}

/// Point-in-time health report of a storage engine, in the shape the
/// Collect Agent serves from `/metrics` and `/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StorageHealthReport {
    /// Current state.
    pub state: HealthState,
    /// State transitions since open.
    pub transitions: u64,
    /// Readings the engine's insert path has accounted for since open.
    pub ingested: u64,
    /// Readings acknowledged durable (journaled or sealed).
    pub durable: u64,
    /// Readings currently buffered memtable-only under ReadOnly.
    pub buffered: u64,
    /// Readings refused (buffer overflow or retries exhausted).
    pub shed: u64,
    /// Failed write/sync operations observed.
    pub write_errors: u64,
    /// Append retries performed.
    pub write_retries: u64,
    /// WAL writers poisoned by a failed fsync (or failed rollback).
    pub fsync_poisonings: u64,
    /// WAL rotations performed (poisoning recovery + ReadOnly probes).
    pub wal_rotations: u64,
    /// ReadOnly probes attempted (WAL rotations under ReadOnly).
    pub probes: u64,
    /// Final-fsync errors recorded by `Drop` (acknowledged-but-unsynced
    /// data may not have reached the platter).
    pub drop_sync_errors: u64,
    /// Failed cleanup removals (leaked temp/retired files on disk).
    pub cleanup_errors: u64,
    /// Corrupt sealed segments / WALs quarantined on open.
    pub quarantined: u64,
    /// Failed memtable→segment seal attempts.
    pub seal_failures: u64,
    /// What WAL replay found on open.
    pub recovery: ReplayCounters,
    /// Virtual/observed time spent in each state, nanoseconds.
    pub time_in_state_ns: TimeInState,
}

/// What WAL replay found when the engine opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ReplayCounters {
    /// Readings recovered by WAL replay.
    pub recovered_readings: u64,
    /// WAL bytes discarded at torn tails.
    pub wal_bytes_discarded: u64,
    /// Torn WAL tails encountered.
    pub torn_tails: u64,
}

/// Time spent in each [`HealthState`], nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TimeInState {
    /// Time spent Healthy.
    pub healthy: u64,
    /// Time spent Degraded.
    pub degraded: u64,
    /// Time spent ReadOnly.
    pub read_only: u64,
}

impl StorageHealthReport {
    /// The conservation identity every engine must maintain:
    /// `ingested == durable + buffered + shed`.
    pub fn conserved(&self) -> bool {
        self.ingested == self.durable + self.buffered + self.shed
    }
}

/// The engine's failure detector: probes start 100 ms after the
/// demotion to ReadOnly and double to 5 s. No jitter, so replays match.
fn supervision(readonly_after: u32) -> ReconnectConfig {
    ReconnectConfig {
        base_ms: 100,
        cap_ms: 5_000,
        jitter: 0.0,
        down_threshold: u64::from(readonly_after),
        seed: 0,
    }
}

/// Shared mutable core of the health state machine; see the module docs.
#[derive(Debug)]
pub struct HealthCore {
    config: HealthConfig,
    supervisor: Mutex<Supervisor>,
    ingested: AtomicU64,
    durable: AtomicU64,
    buffered: AtomicU64,
    shed: AtomicU64,
    write_errors: AtomicU64,
    write_retries: AtomicU64,
    fsync_poisonings: AtomicU64,
    wal_rotations: AtomicU64,
    drop_sync_errors: AtomicU64,
    cleanup_errors: AtomicU64,
    quarantined: AtomicU64,
    seal_failures: AtomicU64,
    recovered_readings: AtomicU64,
    wal_bytes_discarded: AtomicU64,
    torn_tails: AtomicU64,
}

impl HealthCore {
    /// A fresh core in `Healthy`.
    pub fn new(config: HealthConfig) -> HealthCore {
        HealthCore {
            config,
            supervisor: Mutex::new(Supervisor::new(supervision(config.readonly_after))),
            ingested: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            write_retries: AtomicU64::new(0),
            fsync_poisonings: AtomicU64::new(0),
            wal_rotations: AtomicU64::new(0),
            drop_sync_errors: AtomicU64::new(0),
            cleanup_errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            seal_failures: AtomicU64::new(0),
            recovered_readings: AtomicU64::new(0),
            wal_bytes_discarded: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
        }
    }

    /// The configuration this core runs under.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        HealthState::of(self.supervisor.lock().state())
    }

    /// Advances the health clock to `now` (the engine's `maintain`
    /// tick) and says whether a journal attempt is due: always, except
    /// under ReadOnly before the next probe.
    pub fn attempt_due(&self, now: Timestamp) -> bool {
        self.supervisor.lock().attempt_due(now.as_nanos())
    }

    /// Records a failed journal write or sync. Returns the state after
    /// the transition. Under ReadOnly only a probe's outcome counts: a
    /// write that was in flight when the engine crossed is a write error,
    /// not a failed probe, and leaves the probe schedule alone.
    pub fn record_write_error(&self) -> HealthState {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        let mut sup = self.supervisor.lock();
        if sup.state() != ConnectionState::Down {
            let now_ns = sup.observed_ns();
            sup.on_failure(now_ns);
        }
        HealthState::of(sup.state())
    }

    /// Records a successful journal write: back to Healthy. A write that
    /// was in flight when the engine went ReadOnly leaves it ReadOnly:
    /// only a probe's rotation re-journals the write-behind buffer.
    pub fn record_write_success(&self) {
        let mut sup = self.supervisor.lock();
        if sup.state() != ConnectionState::Down {
            let now_ns = sup.observed_ns();
            sup.on_success(now_ns);
        }
    }

    /// Records the outcome of a ReadOnly probe, a WAL rotation that
    /// re-journals the memtable: success returns to Healthy, failure
    /// counts as a write error and puts the next probe a doubled backoff
    /// away.
    pub fn record_probe(&self, ok: bool) {
        let mut sup = self.supervisor.lock();
        if sup.state() != ConnectionState::Down {
            return;
        }
        let now_ns = sup.observed_ns();
        if ok {
            sup.on_success(now_ns);
        } else {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            sup.on_failure(now_ns);
        }
    }

    /// Accounts `n` readings entering the engine.
    pub fn note_ingested(&self, n: usize) {
        self.ingested.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Accounts `n` readings acknowledged durable.
    pub fn note_durable(&self, n: usize) {
        self.durable.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Accounts `n` readings buffered memtable-only. Returns `false`
    /// (and accounts them as shed) when the bound would be exceeded.
    pub fn try_note_buffered(&self, n: usize) -> bool {
        let mut cur = self.buffered.load(Ordering::Relaxed);
        loop {
            if cur as usize + n > self.config.buffer_max_readings {
                self.shed.fetch_add(n as u64, Ordering::Relaxed);
                return false;
            }
            match self.buffered.compare_exchange_weak(
                cur,
                cur + n as u64,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Accounts `n` readings refused outright.
    pub fn note_shed(&self, n: usize) {
        self.shed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Moves the whole write-behind buffer into durability — called when
    /// a WAL rotation re-journals the memtable or a seal persists it.
    pub fn drain_buffered(&self) -> u64 {
        let n = self.buffered.swap(0, Ordering::AcqRel);
        self.durable.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Counts a retry attempt.
    pub fn note_retry(&self) {
        self.write_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a poisoned WAL writer.
    pub fn note_fsync_poisoning(&self) {
        self.fsync_poisonings.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a completed WAL rotation.
    pub fn note_wal_rotation(&self) {
        self.wal_rotations.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a final-fsync failure observed in `Drop`.
    pub fn note_drop_sync_error(&self) {
        self.drop_sync_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a failed temp/retired-file removal.
    pub fn note_cleanup_error(&self) {
        self.cleanup_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a quarantined corrupt file.
    pub fn note_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a failed seal attempt.
    pub fn note_seal_failure(&self) {
        self.seal_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of WAL replay at open: readings recovered,
    /// bytes discarded at torn tails, torn tails seen.
    pub fn note_recovery(&self, readings: usize, bytes_discarded: u64, torn_tails: usize) {
        self.recovered_readings
            .fetch_add(readings as u64, Ordering::Relaxed);
        self.wal_bytes_discarded
            .fetch_add(bytes_discarded, Ordering::Relaxed);
        self.torn_tails
            .fetch_add(torn_tails as u64, Ordering::Relaxed);
    }

    /// Observed `drop_sync_errors` so far (readable after engine drop).
    pub fn drop_sync_errors(&self) -> u64 {
        self.drop_sync_errors.load(Ordering::Relaxed)
    }

    /// Point-in-time report.
    pub fn report(&self) -> StorageHealthReport {
        let sup = self.supervisor.lock();
        let [healthy, degraded, read_only] = sup.time_in_state_ns();
        StorageHealthReport {
            state: HealthState::of(sup.state()),
            transitions: sup.transitions(),
            ingested: self.ingested.load(Ordering::Relaxed),
            durable: self.durable.load(Ordering::Relaxed),
            buffered: self.buffered.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            fsync_poisonings: self.fsync_poisonings.load(Ordering::Relaxed),
            wal_rotations: self.wal_rotations.load(Ordering::Relaxed),
            probes: sup.reconnects() + sup.failed_probes(),
            drop_sync_errors: self.drop_sync_errors.load(Ordering::Relaxed),
            cleanup_errors: self.cleanup_errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            seal_failures: self.seal_failures.load(Ordering::Relaxed),
            recovery: ReplayCounters {
                recovered_readings: self.recovered_readings.load(Ordering::Relaxed),
                wal_bytes_discarded: self.wal_bytes_discarded.load(Ordering::Relaxed),
                torn_tails: self.torn_tails.load(Ordering::Relaxed),
            },
            time_in_state_ns: TimeInState {
                healthy,
                degraded,
                read_only,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            readonly_after: 3,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn demotes_through_the_states_and_one_success_heals() {
        let h = HealthCore::new(cfg());
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.record_write_error(), HealthState::Degraded);
        h.record_write_success();
        assert_eq!(h.state(), HealthState::Healthy, "one success heals");
        h.record_write_error();
        h.record_write_error();
        assert_eq!(h.record_write_error(), HealthState::ReadOnly);
        h.record_probe(true);
        assert_eq!(h.state(), HealthState::Healthy, "straight from ReadOnly");
        let r = h.report();
        assert_eq!((r.transitions, r.write_errors, r.probes), (5, 4, 1));
    }

    /// Writes in flight when the engine crossed are no verdict on the
    /// disk: only the probe's rotation leaves ReadOnly or reschedules.
    #[test]
    fn only_a_probe_leaves_read_only() {
        let h = HealthCore::new(cfg());
        h.attempt_due(Timestamp::from_millis(1_000));
        for _ in 0..3 {
            h.record_write_error();
        }
        assert!(h.try_note_buffered(4));
        h.record_write_success();
        assert_eq!(h.state(), HealthState::ReadOnly);
        assert_eq!(h.record_write_error(), HealthState::ReadOnly);
        let r = h.report();
        assert_eq!((r.buffered, r.probes, r.write_errors), (4, 0, 4));
        assert!(
            h.attempt_due(Timestamp::from_millis(1_100)),
            "not pushed back"
        );
        h.record_probe(true);
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn probes_start_one_base_backoff_after_the_demotion_and_double_to_the_cap() {
        let h = HealthCore::new(cfg());
        let t0 = Timestamp::from_millis(1_000);
        assert!(h.attempt_due(t0));
        for _ in 0..3 {
            h.record_write_error();
        }
        assert_eq!(h.state(), HealthState::ReadOnly);
        let mut at = 1_000;
        for gap in [100, 200, 400, 800, 1_600, 3_200, 5_000, 5_000] {
            assert!(!h.attempt_due(Timestamp::from_millis(at + gap - 1)));
            at += gap;
            assert!(
                h.attempt_due(Timestamp::from_millis(at)),
                "probe at +{gap} ms"
            );
            h.record_probe(false);
        }
        assert_eq!(h.report().probes, 8);
    }

    #[test]
    fn conservation_identity_holds_across_paths() {
        let h = HealthCore::new(HealthConfig {
            buffer_max_readings: 10,
            ..cfg()
        });
        h.note_ingested(5);
        h.note_durable(5);
        h.note_ingested(8);
        assert!(h.try_note_buffered(8));
        h.note_ingested(7);
        assert!(!h.try_note_buffered(7), "over the 10-reading bound");
        h.note_ingested(3);
        h.note_shed(3);
        let r = h.report();
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.buffered, 8);
        assert_eq!(r.shed, 10);
        // Draining moves buffered into durable, preserving the identity.
        assert_eq!(h.drain_buffered(), 8);
        let r = h.report();
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.durable, 13);
        assert_eq!(r.buffered, 0);
    }

    /// Time is clocked from the first `maintain` instant, a wall clock's
    /// included, and write-path transitions land at the latest one.
    #[test]
    fn time_in_state_attributes_to_current_state() {
        let h = HealthCore::new(cfg());
        let t0 = 1_700_000_000_000_000_000;
        h.attempt_due(Timestamp(t0));
        h.attempt_due(Timestamp(t0 + 100_000_000));
        h.record_write_error(); // → Degraded at t0 + 100 ms
        h.attempt_due(Timestamp(t0 + 250_000_000));
        let t = h.report().time_in_state_ns;
        assert_eq!(t.healthy, 100 * 1_000_000);
        assert_eq!(t.degraded, 150 * 1_000_000);
        assert_eq!(t.read_only, 0);
    }
}
