//! The one failure detector: an `Up` → `Degraded` → `Down` state
//! machine with capped exponential backoff between probes. Every part of
//! the stack that fails and recovers runs one: each Pusher's bus
//! connection (fed publish outcomes), each federation shard (fed refused
//! publishes, sweeps and scatters), the durable storage engine (fed
//! journal writes; `Down` is ReadOnly), each Pusher monitoring plugin
//! (fed samples) and each Wintermute operator (fed computations; `Down`
//! is quarantine). The first failure leaves `Up`; `down_threshold`
//! consecutive ones cross into `Down`, where the owner stops trying
//! until the backoff admits a probe; one success returns to `Up`.
//! Clocked by the caller's `now_ns` only, so backoff replays identically
//! under virtual time; time in state is clocked from the first
//! [`Supervisor::attempt_due`].

use crate::sim::{xorshift, EventTrace};
use crate::time::Timestamp;

/// Supervision state; `as usize` is a stable per-state index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionState {
    /// Attempts are succeeding.
    Up = 0,
    /// Recent attempts failed but the owner still makes every attempt
    /// (early failures may be transient).
    Degraded = 1,
    /// Enough consecutive failures that the owner stopped trying: an
    /// attempt runs only when the backoff timer expires (a probe).
    Down = 2,
}

impl ConnectionState {
    /// Canonical lower-case spelling for status lines and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            ConnectionState::Up => "up",
            ConnectionState::Degraded => "degraded",
            ConnectionState::Down => "down",
        }
    }
}

/// Factor the backoff grows by after every failed probe: doubling, up
/// to `cap_ms`.
const BACKOFF_MULTIPLIER: u64 = 2;

/// Threshold and backoff policy of a [`Supervisor`].
#[derive(Debug, Clone, Copy)]
pub struct ReconnectConfig {
    /// First backoff after the supervisor goes `Down`, milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub cap_ms: u64,
    /// Jitter fraction: each scheduled probe is delayed by up to this
    /// fraction of the backoff, drawn from a seeded RNG (spreads
    /// reconnect storms across pushers while staying reproducible).
    pub jitter: f64,
    /// Consecutive failures after which `Degraded` becomes `Down` (the
    /// first failure already leaves `Up`).
    pub down_threshold: u64,
    /// Seed of the jitter RNG.
    pub seed: u64,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            base_ms: 500,
            cap_ms: 30_000,
            jitter: 0.2,
            down_threshold: 3,
            seed: 0x5EED,
        }
    }
}

/// One supervised peer's failure detector.
#[derive(Debug, Clone)]
pub struct Supervisor {
    config: ReconnectConfig,
    state: ConnectionState,
    consecutive_failures: u64,
    backoff_ms: u64,
    next_probe_ns: u64,
    reconnects: u64,
    failed_probes: u64,
    downs: u64,
    transitions: u64,
    /// Latest instant observed; `None` until the first `attempt_due`.
    last_now_ns: Option<u64>,
    time_in_state_ns: [u64; 3],
    rng: u64,
    /// `(trace, lane, label)`: transitions are recorded as
    /// `<label> <from>-><to>` under `lane`.
    trace: Option<(EventTrace, &'static str, String)>,
}

impl Supervisor {
    /// A supervisor in `Up` with the given policy.
    pub fn new(config: ReconnectConfig) -> Supervisor {
        Supervisor {
            config,
            state: ConnectionState::Up,
            consecutive_failures: 0,
            backoff_ms: config.base_ms.max(1),
            next_probe_ns: 0,
            reconnects: 0,
            failed_probes: 0,
            downs: 0,
            transitions: 0,
            last_now_ns: None,
            time_in_state_ns: [0; 3],
            rng: config.seed,
            trace: None,
        }
    }

    /// Attaches the canonical event trace: transitions are appended as
    /// `<label> <from>-><to>` under `lane`.
    pub fn set_trace(&mut self, trace: EventTrace, lane: &'static str, label: &str) {
        self.trace = Some((trace, lane, label.to_string()));
    }

    fn advance_clock(&mut self, now_ns: u64) {
        if let Some(last) = self.last_now_ns {
            self.time_in_state_ns[self.state as usize] += now_ns.saturating_sub(last);
            self.last_now_ns = Some(last.max(now_ns));
        }
    }

    #[cold]
    fn transition(&mut self, now_ns: u64, to: ConnectionState) {
        self.advance_clock(now_ns);
        if let Some((trace, lane, label)) = &self.trace {
            let detail = format!("{label} {}->{}", self.state.as_str(), to.as_str());
            trace.record(Timestamp(now_ns), lane, &detail);
        }
        self.state = to;
        self.transitions += 1;
    }

    /// Whether an attempt should be made at `now_ns`: always, unless
    /// `Down` with the probe not yet due. Also accrues time in state up
    /// to `now_ns`; the first call only sets the baseline, because a
    /// wall clock's span since epoch 0 is no time in any state.
    pub fn attempt_due(&mut self, now_ns: u64) -> bool {
        self.last_now_ns.get_or_insert(now_ns);
        self.advance_clock(now_ns);
        self.state != ConnectionState::Down || now_ns >= self.next_probe_ns
    }

    /// An attempt succeeded: back to `Up`, counters and backoff cleared.
    #[inline]
    pub fn on_success(&mut self, now_ns: u64) {
        if self.state != ConnectionState::Up {
            self.reconnects += u64::from(self.state == ConnectionState::Down);
            self.transition(now_ns, ConnectionState::Up);
        }
        self.consecutive_failures = 0;
        self.backoff_ms = self.config.base_ms.max(1);
        self.next_probe_ns = 0;
    }

    /// An attempt failed. Returns true when this failure crossed into
    /// `Down`; every failure from `Down` on is a failed probe that
    /// reschedules the next one after a doubled, capped backoff.
    pub fn on_failure(&mut self, now_ns: u64) -> bool {
        self.consecutive_failures += 1;
        match self.state {
            ConnectionState::Up => self.transition(now_ns, ConnectionState::Degraded),
            ConnectionState::Degraded => {}
            ConnectionState::Down => self.failed_probes += 1,
        }
        if self.consecutive_failures < self.config.down_threshold.max(1) {
            return false;
        }
        let crossed = self.state != ConnectionState::Down;
        if crossed {
            self.downs += 1;
            self.transition(now_ns, ConnectionState::Down);
        }
        // Schedule the next probe: backoff plus seeded jitter, then grow
        // the backoff for the probe after that.
        let draw = (xorshift(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        let jitter = 1.0 + self.config.jitter.max(0.0) * draw;
        let delay_ms = (self.backoff_ms as f64 * jitter) as u64;
        self.next_probe_ns = now_ns + delay_ms.max(1) * 1_000_000;
        let grown = self.backoff_ms.saturating_mul(BACKOFF_MULTIPLIER);
        self.backoff_ms = grown.clamp(1, self.config.cap_ms.max(1));
        crossed
    }

    /// Back to a fresh `Up` without a probe — the owner knows the peer
    /// changed (a crash, a promotion, a rejoin). Cumulative counters stay.
    pub fn reset(&mut self) {
        self.state = ConnectionState::Up;
        self.consecutive_failures = 0;
        self.backoff_ms = self.config.base_ms.max(1);
        self.next_probe_ns = 0;
    }

    /// Current state.
    pub fn state(&self) -> ConnectionState {
        self.state
    }

    /// Consecutive failures right now.
    pub fn consecutive_failures(&self) -> u64 {
        self.consecutive_failures
    }

    /// Backoff that will follow the next failed probe, milliseconds.
    pub fn backoff_ms(&self) -> u64 {
        self.backoff_ms
    }

    /// The latest instant observed, nanoseconds (0 before the first
    /// [`Supervisor::attempt_due`]): the clock of an owner whose
    /// failures arrive without one.
    pub fn observed_ns(&self) -> u64 {
        self.last_now_ns.unwrap_or(0)
    }

    /// Time from the last observed `now` to the next probe,
    /// milliseconds (0 when not `Down`).
    pub fn next_probe_in_ms(&self) -> u64 {
        match self.state {
            ConnectionState::Down => {
                self.next_probe_ns.saturating_sub(self.observed_ns()) / 1_000_000
            }
            _ => 0,
        }
    }

    /// `Down` → `Up` transitions through a successful probe.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Probes that failed (the outage persisted).
    pub fn failed_probes(&self) -> u64 {
        self.failed_probes
    }

    /// Times the supervisor crossed into `Down`.
    pub fn downs(&self) -> u64 {
        self.downs
    }

    /// State changes so far (a [`Supervisor::reset`] is not one).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Cumulative time spent in `[Up, Degraded, Down]`, nanoseconds.
    pub fn time_in_state_ns(&self) -> [u64; 3] {
        self.time_in_state_ns
    }

    /// Cumulative time spent in `[Up, Degraded, Down]`, milliseconds.
    pub fn time_in_state_ms(&self) -> [u64; 3] {
        self.time_in_state_ns.map(|ns| ns / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn config(jitter: f64) -> ReconnectConfig {
        ReconnectConfig {
            base_ms: 100,
            cap_ms: 500,
            jitter,
            down_threshold: 3,
            seed: 7,
        }
    }

    #[test]
    fn transitions_are_traced_in_one_spelling_and_down_is_crossed_once() {
        let trace = EventTrace::new();
        let mut sup = Supervisor::new(config(0.0));
        sup.set_trace(trace.clone(), "router", "shard-1");
        assert!(sup.attempt_due(0));
        assert!(!sup.on_failure(10 * MS));
        assert_eq!(sup.state(), ConnectionState::Degraded);
        assert!(!sup.on_failure(20 * MS));
        assert!(sup.on_failure(30 * MS), "the third failure crosses");
        assert_eq!(sup.state(), ConnectionState::Down);
        assert!(
            !sup.on_failure(200 * MS),
            "a failed probe is not a crossing"
        );
        assert_eq!((sup.downs(), sup.failed_probes()), (1, 1));
        sup.on_success(900 * MS);
        assert_eq!(sup.state(), ConnectionState::Up);
        assert_eq!((sup.reconnects(), sup.transitions()), (1, 3));
        let lines: Vec<String> = trace.tail();
        assert_eq!(
            lines,
            vec![
                "10000000 router shard-1 up->degraded\n",
                "30000000 router shard-1 degraded->down\n",
                "900000000 router shard-1 down->up\n",
            ]
        );
        // Time in state: 10 ms up, 20 ms degraded, 870 ms down.
        assert_eq!(sup.time_in_state_ms(), [10, 20, 870]);
    }

    /// A wall clock's first reading is a baseline, not 56 years in `Up`.
    #[test]
    fn time_in_state_is_clocked_from_the_first_attempt() {
        let t0 = 1_700_000_000_000_000_000;
        let mut sup = Supervisor::new(config(0.0));
        assert!(!sup.on_failure(t0), "an outcome before any attempt");
        assert_eq!(sup.time_in_state_ns(), [0; 3]);
        assert!(sup.attempt_due(t0));
        assert!(sup.attempt_due(t0 + 100 * MS));
        sup.on_success(t0 + 250 * MS);
        let [up, degraded, down] = sup.time_in_state_ms();
        assert_eq!((up, degraded, down), (0, 250, 0));
        assert_eq!(up + degraded + down, 250);
        assert_eq!(sup.observed_ns(), t0 + 250 * MS);
    }

    #[test]
    fn backoff_doubles_to_the_cap_and_gates_attempts() {
        let mut sup = Supervisor::new(config(0.0));
        for _ in 0..3 {
            sup.on_failure(0);
        }
        // Delays run 100, 200, 400, 500, 500 ms.
        let mut now = 0;
        for delay in [100, 200, 400, 500, 500] {
            sup.attempt_due(now);
            assert_eq!(sup.next_probe_in_ms(), delay);
            assert!(!sup.attempt_due(now + delay * MS - 1));
            now += delay * MS;
            assert!(sup.attempt_due(now));
            sup.on_failure(now);
        }
        assert_eq!(sup.backoff_ms(), 500);
    }

    #[test]
    fn reset_returns_to_a_fresh_up_without_a_probe() {
        let mut sup = Supervisor::new(config(0.0));
        for _ in 0..4 {
            sup.on_failure(0);
        }
        sup.reset();
        assert_eq!(sup.state(), ConnectionState::Up);
        assert_eq!(sup.consecutive_failures(), 0);
        assert_eq!(sup.backoff_ms(), 100);
        assert!(sup.attempt_due(0));
        assert_eq!(sup.reconnects(), 0, "a reset is not a probe");
        assert!(!sup.on_failure(1) && !sup.on_failure(2) && sup.on_failure(3));
    }

    #[test]
    fn jittered_delay_stays_inside_its_band() {
        let mut sup = Supervisor::new(config(0.5));
        for _ in 0..2 {
            sup.on_failure(0);
        }
        let mut now = 0;
        for _ in 0..50 {
            let backoff = sup.backoff_ms();
            sup.attempt_due(now);
            sup.on_failure(now);
            let delay = sup.next_probe_in_ms();
            assert!(delay >= backoff, "{delay} < {backoff} ms");
            assert!(delay <= backoff * 3 / 2, "{delay} > 1.5 x {backoff} ms");
            now += delay * MS;
        }
    }
}
