//! Storage health: the state machine that keeps the durable engine
//! useful while its disk is not.
//!
//! The engine classifies itself into three states:
//!
//! * **Healthy** — writes succeed; normal operation.
//! * **Degraded** — recent write errors; appends are retried with
//!   bounded exponential backoff and still acknowledged only once
//!   journaled. Consecutive successes heal back to Healthy.
//! * **ReadOnly** — the journal cannot make progress (retries and WAL
//!   rotation keep failing). Reads keep working; writes are accepted
//!   into a *bounded* memtable-only write-behind buffer (never
//!   acknowledged durable) until the buffer fills, after which they are
//!   shed. Periodic probes with doubling backoff attempt a WAL
//!   rotation; the first success re-journals the memtable (draining the
//!   buffer into durability) and drops back to Degraded.
//!
//! Every reading the engine ever accepts is accounted against the
//! conservation identity `ingested == durable + buffered + shed` —
//! the invariant the fault harness and the tests check.
//!
//! The core is shared as an `Arc` so observers (tests, the Collect
//! Agent) can keep reading counters — including the final
//! `drop_sync_errors` — after the engine itself is gone.

use dcdb_common::time::Timestamp;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Health classification of the durable engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Writes succeed; normal operation.
    Healthy,
    /// Recent write errors; retrying, still fully durable.
    Degraded,
    /// Journal cannot make progress; buffering writes, probing.
    ReadOnly,
}

impl HealthState {
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
    /// Backoff ceiling, milliseconds.
    pub retry_backoff_cap_ms: u64,
    /// Consecutive write failures that demote Healthy → Degraded.
    pub degraded_after: u32,
    /// Consecutive write failures that demote Degraded → ReadOnly.
    pub readonly_after: u32,
    /// Consecutive write successes that promote Degraded → Healthy.
    pub heal_after: u32,
    /// First ReadOnly probe interval, milliseconds (doubles per failed
    /// probe, capped by `probe_cap_ms`).
    pub probe_base_ms: u64,
    /// Probe interval ceiling, milliseconds.
    pub probe_cap_ms: u64,
    /// Bound of the memtable-only write-behind buffer (readings)
    /// accepted under ReadOnly before writes are shed.
    pub buffer_max_readings: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            max_retries: 3,
            retry_backoff_base_ms: 1,
            retry_backoff_cap_ms: 20,
            degraded_after: 1,
            readonly_after: 6,
            heal_after: 3,
            probe_base_ms: 100,
            probe_cap_ms: 5_000,
            buffer_max_readings: 100_000,
        }
    }
}

/// Point-in-time health report of a storage engine, in the shape the
/// Collect Agent serves from `/metrics` and `/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// ReadOnly probes attempted.
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
    /// Readings recovered by WAL replay on open.
    pub recovered_readings: u64,
    /// WAL bytes discarded at torn tails during replay.
    pub wal_bytes_discarded: u64,
    /// Torn WAL tails encountered during replay.
    pub torn_tails: u64,
    /// Virtual/observed time spent Healthy, nanoseconds.
    pub healthy_ns: u64,
    /// Time spent Degraded, nanoseconds.
    pub degraded_ns: u64,
    /// Time spent ReadOnly, nanoseconds.
    pub readonly_ns: u64,
}

impl StorageHealthReport {
    /// The conservation identity every engine must maintain:
    /// `ingested == durable + buffered + shed`.
    pub fn conserved(&self) -> bool {
        self.ingested == self.durable + self.buffered + self.shed
    }
}

#[derive(Debug)]
struct Transitions {
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Next allowed probe instant (ns) and current probe interval (ms),
    /// doubling per failed probe.
    next_probe_ns: u64,
    probe_interval_ms: u64,
}

/// Shared mutable core of the health state machine; see the module docs.
#[derive(Debug)]
pub struct HealthCore {
    config: HealthConfig,
    inner: Mutex<Transitions>,
    transitions: AtomicU64,
    ingested: AtomicU64,
    durable: AtomicU64,
    buffered: AtomicU64,
    shed: AtomicU64,
    write_errors: AtomicU64,
    write_retries: AtomicU64,
    fsync_poisonings: AtomicU64,
    wal_rotations: AtomicU64,
    probes: AtomicU64,
    drop_sync_errors: AtomicU64,
    cleanup_errors: AtomicU64,
    quarantined: AtomicU64,
    seal_failures: AtomicU64,
    recovered_readings: AtomicU64,
    wal_bytes_discarded: AtomicU64,
    torn_tails: AtomicU64,
    healthy_ns: AtomicU64,
    degraded_ns: AtomicU64,
    readonly_ns: AtomicU64,
    last_observed_ns: AtomicU64,
}

/// Sentinel for "the health clock has not been observed yet".
const NEVER_OBSERVED: u64 = u64::MAX;

impl HealthCore {
    /// A fresh core in `Healthy`.
    pub fn new(config: HealthConfig) -> HealthCore {
        HealthCore {
            config,
            inner: Mutex::new(Transitions {
                state: HealthState::Healthy,
                consecutive_failures: 0,
                consecutive_successes: 0,
                next_probe_ns: 0,
                probe_interval_ms: config.probe_base_ms,
            }),
            transitions: AtomicU64::new(0),
            ingested: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            write_retries: AtomicU64::new(0),
            fsync_poisonings: AtomicU64::new(0),
            wal_rotations: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            drop_sync_errors: AtomicU64::new(0),
            cleanup_errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            seal_failures: AtomicU64::new(0),
            recovered_readings: AtomicU64::new(0),
            wal_bytes_discarded: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
            healthy_ns: AtomicU64::new(0),
            degraded_ns: AtomicU64::new(0),
            readonly_ns: AtomicU64::new(0),
            last_observed_ns: AtomicU64::new(NEVER_OBSERVED),
        }
    }

    /// The configuration this core runs under.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.inner.lock().state
    }

    /// Advances the health clock to `now`, attributing the elapsed span
    /// to the current state. Drives time-in-state accounting; typically
    /// called from the engine's `maintain` tick.
    pub fn observe(&self, now: Timestamp) {
        let now_ns = now.as_nanos();
        let last = self.last_observed_ns.swap(now_ns, Ordering::AcqRel);
        // The first observation only sets the baseline — attributing the
        // span since epoch 0 would credit the whole wall clock to Healthy.
        if last == NEVER_OBSERVED {
            return;
        }
        let delta = now_ns.saturating_sub(last);
        if delta == 0 {
            return;
        }
        let bucket = match self.state() {
            HealthState::Healthy => &self.healthy_ns,
            HealthState::Degraded => &self.degraded_ns,
            HealthState::ReadOnly => &self.readonly_ns,
        };
        bucket.fetch_add(delta, Ordering::Relaxed);
    }

    fn set_state(&self, inner: &mut Transitions, next: HealthState) {
        if inner.state != next {
            inner.state = next;
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a failed journal write or sync, demoting the state once
    /// the consecutive-failure thresholds are crossed. Returns the state
    /// after the transition.
    pub fn record_write_error(&self) -> HealthState {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.consecutive_successes = 0;
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        match inner.state {
            HealthState::Healthy if inner.consecutive_failures >= self.config.degraded_after => {
                self.set_state(&mut inner, HealthState::Degraded);
            }
            HealthState::Degraded if inner.consecutive_failures >= self.config.readonly_after => {
                self.set_state(&mut inner, HealthState::ReadOnly);
                // First probe is allowed immediately; failures back off.
                inner.probe_interval_ms = self.config.probe_base_ms;
                inner.next_probe_ns = match self.last_observed_ns.load(Ordering::Acquire) {
                    NEVER_OBSERVED => 0,
                    last => last,
                };
            }
            _ => {}
        }
        inner.state
    }

    /// Records `batches` batches journaled by one successful write,
    /// healing Degraded → Healthy after enough consecutive successes.
    /// ReadOnly heals only through [`HealthCore::record_probe_success`].
    pub fn record_write_success(&self, batches: usize) {
        let batches = u32::try_from(batches).unwrap_or(u32::MAX);
        let mut inner = self.inner.lock();
        inner.consecutive_failures = 0;
        inner.consecutive_successes = inner.consecutive_successes.saturating_add(batches);
        if inner.state == HealthState::Degraded
            && inner.consecutive_successes >= self.config.heal_after
        {
            self.set_state(&mut inner, HealthState::Healthy);
        }
    }

    /// True when a ReadOnly probe is due at `now`.
    pub fn probe_due(&self, now: Timestamp) -> bool {
        let inner = self.inner.lock();
        inner.state == HealthState::ReadOnly && now.as_nanos() >= inner.next_probe_ns
    }

    /// Records a failed probe: doubles the probe interval (capped).
    pub fn record_probe_failure(&self, now: Timestamp) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.next_probe_ns = now
            .as_nanos()
            .saturating_add(inner.probe_interval_ms * 1_000_000);
        inner.probe_interval_ms = (inner.probe_interval_ms * 2).min(self.config.probe_cap_ms);
    }

    /// Records a successful probe: ReadOnly → Degraded (consecutive
    /// successes then heal the rest of the way to Healthy).
    pub fn record_probe_success(&self) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if inner.state == HealthState::ReadOnly {
            self.set_state(&mut inner, HealthState::Degraded);
        }
        inner.consecutive_failures = 0;
        inner.consecutive_successes = 0;
        inner.probe_interval_ms = self.config.probe_base_ms;
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
        StorageHealthReport {
            state: self.state(),
            transitions: self.transitions.load(Ordering::Relaxed),
            ingested: self.ingested.load(Ordering::Relaxed),
            durable: self.durable.load(Ordering::Relaxed),
            buffered: self.buffered.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            fsync_poisonings: self.fsync_poisonings.load(Ordering::Relaxed),
            wal_rotations: self.wal_rotations.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            drop_sync_errors: self.drop_sync_errors.load(Ordering::Relaxed),
            cleanup_errors: self.cleanup_errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            seal_failures: self.seal_failures.load(Ordering::Relaxed),
            recovered_readings: self.recovered_readings.load(Ordering::Relaxed),
            wal_bytes_discarded: self.wal_bytes_discarded.load(Ordering::Relaxed),
            torn_tails: self.torn_tails.load(Ordering::Relaxed),
            healthy_ns: self.healthy_ns.load(Ordering::Relaxed),
            degraded_ns: self.degraded_ns.load(Ordering::Relaxed),
            readonly_ns: self.readonly_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            degraded_after: 2,
            readonly_after: 4,
            heal_after: 2,
            probe_base_ms: 100,
            probe_cap_ms: 400,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn demotes_and_heals_through_the_states() {
        let h = HealthCore::new(cfg());
        assert_eq!(h.state(), HealthState::Healthy);
        h.record_write_error();
        assert_eq!(h.state(), HealthState::Healthy);
        h.record_write_error();
        assert_eq!(h.state(), HealthState::Degraded);
        h.record_write_error();
        h.record_write_error();
        assert_eq!(h.state(), HealthState::ReadOnly);
        // Write successes alone do not leave ReadOnly.
        h.record_write_success(1);
        assert_eq!(h.state(), HealthState::ReadOnly);
        h.record_probe_success();
        assert_eq!(h.state(), HealthState::Degraded);
        h.record_write_success(1);
        h.record_write_success(1);
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.report().transitions, 4);
    }

    #[test]
    fn success_resets_failure_streak() {
        let h = HealthCore::new(cfg());
        h.record_write_error();
        h.record_write_success(1);
        h.record_write_error();
        assert_eq!(h.state(), HealthState::Healthy, "streak was broken");
    }

    #[test]
    fn probe_backoff_doubles_and_caps() {
        let h = HealthCore::new(cfg());
        for _ in 0..4 {
            h.record_write_error();
        }
        assert_eq!(h.state(), HealthState::ReadOnly);
        let t0 = Timestamp::from_millis(1_000);
        h.observe(t0);
        assert!(h.probe_due(t0));
        h.record_probe_failure(t0);
        assert!(!h.probe_due(Timestamp::from_millis(1_050)));
        assert!(h.probe_due(Timestamp::from_millis(1_100))); // +100ms
        h.record_probe_failure(Timestamp::from_millis(1_100));
        assert!(!h.probe_due(Timestamp::from_millis(1_250)));
        assert!(h.probe_due(Timestamp::from_millis(1_300))); // +200ms
        h.record_probe_failure(Timestamp::from_millis(1_300));
        assert!(h.probe_due(Timestamp::from_millis(1_700))); // +400ms (capped)
        assert_eq!(h.report().probes, 3);
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

    #[test]
    fn time_in_state_attributes_to_current_state() {
        let h = HealthCore::new(cfg());
        h.observe(Timestamp::from_millis(0));
        h.observe(Timestamp::from_millis(100));
        h.record_write_error();
        h.record_write_error(); // → Degraded
        h.observe(Timestamp::from_millis(250));
        let r = h.report();
        assert_eq!(r.healthy_ns, 100 * 1_000_000);
        assert_eq!(r.degraded_ns, 150 * 1_000_000);
        assert_eq!(r.readonly_ns, 0);
    }
}
