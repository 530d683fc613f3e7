//! Deterministic simulation primitives shared by every fault layer.
//!
//! PR-2/4/5/9 each grew their own seeded fault injector (bounded-queue
//! overflow, the bus `ChaosBus`, the storage `FaultIo`, the federation
//! kill schedules), and each injector carried its *own* virtual clock,
//! advanced piecemeal by whichever driver happened to own it. That
//! worked per-layer but meant no single seed could reproduce a compound
//! failure crossing layers: the clocks could disagree, and nothing
//! recorded the global order of injected events.
//!
//! This module is the shared substrate the `dcdb-sim` harness drives
//! and every fault layer now ticks from:
//!
//! * [`SimClock`] — one monotonic virtual clock, shared by `Arc`. The
//!   `advance_to` primitive is a `fetch_max`, so out-of-order ticks
//!   from concurrent drivers can never rewind time (the bug class the
//!   per-layer clocks were one forgotten guard away from).
//! * [`derive_seed`] — the splitmix64 lane splitter (hoisted out of
//!   `dcdb-federation`): one user-facing `--seed` fans out into
//!   independent per-lane sub-seeds, so bus chaos, I/O faults, kill
//!   schedules, query storms and facility events all replay from one
//!   number without correlating their draws.
//! * [`EventTrace`] — a canonical append-only event log. Every injected
//!   fault and observed state transition is recorded as one line
//!   (`<virtual ns> <lane> <detail>`) folded into an FNV-1a hash; the
//!   hash is the run's **determinism witness**: two runs of the same
//!   scenario and seed must produce byte-identical traces, so equal
//!   hashes certify a bit-identical replay.
//! * [`SimScheduler`] — a seeded, totally-ordered future-event queue
//!   (virtual time, then insertion sequence) the harness pops due
//!   events from; FoundationDB-style single-threaded discrete-event
//!   control over all fault lanes.

use crate::time::Timestamp;
use parking_lot::Mutex;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Well-known lane indices for [`derive_seed`], so every harness splits
/// the one user-facing seed the same way and trace lines stay
/// comparable across harnesses.
pub mod lanes {
    /// Bus chaos: outage windows, drop probability, delivery delay.
    pub const BUS: u64 = 0;
    /// Storage I/O faults: ENOSPC / EIO / fsync poison / torn writes.
    pub const IO: u64 = 1;
    /// Kill/rejoin churn: victim choice and schedule jitter.
    pub const KILL: u64 = 2;
    /// Operator faults: panic / overrun injection.
    pub const OPERATOR: u64 = 3;
    /// Flash-crowd query storms.
    pub const STORM: u64 = 4;
    /// Facility events: power caps, thermal throttles, rolling restarts.
    pub const FACILITY: u64 = 5;
    /// Delivery-layer jitter (reconnect backoff RNG).
    pub const DELIVERY: u64 = 6;
}

/// Splits one user-facing seed into independent sub-seeds for the
/// layered fault injectors, splitmix64-style: one knob drives every
/// layer deterministically, and distinct lanes never correlate.
///
/// Hoisted from `dcdb-federation` (PR 9) so the bus, storage, delivery
/// and simulation layers share a single splitter instead of per-harness
/// copies.
pub fn derive_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(lane.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* step: the no-dependency RNG every seeded lane draws from
/// (plan churn, query storms, facility windows, operator fates,
/// reconnect jitter). A zero state is forced odd, so any seed works.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

// ---------------------------------------------------------------------------
// SimClock
// ---------------------------------------------------------------------------

/// The shared monotonic virtual clock every fault layer ticks from.
///
/// Cloning the `Arc` shares the clock: a `ChaosBus`, a `FaultIo`, a
/// pusher `BusConnection` and the federation's router supervision can
/// all observe the *same* timeline, so one `advance_to` moves every
/// layer's fault windows together. `advance_to` is a `fetch_max`:
/// out-of-order ticks (two drivers racing, a stale timestamp) can only
/// ever move time forward — an outage window that has closed can never
/// reopen.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// A fresh clock at virtual time zero, ready to share.
    pub fn new() -> Arc<SimClock> {
        Arc::new(SimClock {
            now_ns: AtomicU64::new(0),
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now_ns.load(Ordering::Acquire))
    }

    /// Current virtual time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Advances the clock to `to` if that is later than the current
    /// time (monotonic `fetch_max`), and returns the effective time —
    /// the maximum of both. Out-of-order calls are absorbed, never
    /// rewound.
    pub fn advance_to(&self, to: Timestamp) -> Timestamp {
        let prev = self.now_ns.fetch_max(to.as_nanos(), Ordering::AcqRel);
        Timestamp(prev.max(to.as_nanos()))
    }

    /// Advances the clock by `ns` nanoseconds and returns the new time.
    pub fn advance_ns(&self, ns: u64) -> Timestamp {
        Timestamp(self.now_ns.fetch_add(ns, Ordering::AcqRel) + ns)
    }
}

// ---------------------------------------------------------------------------
// EventTrace
// ---------------------------------------------------------------------------

/// How many recent trace lines are retained verbatim for diagnostics.
/// The hash covers *every* line; the tail is only there so a failing
/// run can print what happened last without holding the full log of a
/// 1500-node scenario in memory.
const TRACE_TAIL: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

#[derive(Debug)]
struct TraceState {
    hash: u64,
    events: u64,
    tail: std::collections::VecDeque<String>,
}

/// The canonical event trace of one simulated run.
///
/// Cloning shares the trace; every fault layer appends its injected
/// events and state transitions with virtual timestamps. A line is
/// canonicalized as `"<at_ns> <lane> <detail>\n"` and folded into a
/// running FNV-1a hash — the determinism witness: two runs are
/// bit-identical iff their traces hash equal (given equal event
/// counts, which [`EventTrace::witness`] includes).
#[derive(Debug, Clone)]
pub struct EventTrace {
    state: Arc<Mutex<TraceState>>,
}

impl Default for EventTrace {
    fn default() -> Self {
        EventTrace::new()
    }
}

impl EventTrace {
    /// An empty trace.
    pub fn new() -> EventTrace {
        EventTrace {
            state: Arc::new(Mutex::new(TraceState {
                hash: FNV_OFFSET,
                events: 0,
                tail: std::collections::VecDeque::with_capacity(TRACE_TAIL),
            })),
        }
    }

    /// Appends one event. `lane` names the fault layer (e.g. `bus`,
    /// `io`, `shard`, `facility`); `detail` is the canonical event
    /// description. Determinism contract: `detail` must be built from
    /// virtual-time state only — no wall-clock times, no addresses, no
    /// hash-map iteration order.
    pub fn record(&self, at: Timestamp, lane: &str, detail: &str) {
        let line = format!("{} {} {}\n", at.as_nanos(), lane, detail);
        let mut s = self.state.lock();
        for b in line.as_bytes() {
            s.hash ^= *b as u64;
            s.hash = s.hash.wrapping_mul(FNV_PRIME);
        }
        s.events += 1;
        if s.tail.len() == TRACE_TAIL {
            s.tail.pop_front();
        }
        s.tail.push_back(line);
    }

    /// Number of events recorded so far.
    pub fn events(&self) -> u64 {
        self.state.lock().events
    }

    /// The running FNV-1a hash over every canonical line.
    pub fn hash(&self) -> u64 {
        self.state.lock().hash
    }

    /// The determinism witness string: `"<events>:<hash as hex>"` —
    /// what scenario reports and bench metadata record.
    pub fn witness(&self) -> String {
        let s = self.state.lock();
        format!("{}:{:016x}", s.events, s.hash)
    }

    /// The most recent trace lines (up to a fixed tail), for
    /// diagnostics when a determinism check fails.
    pub fn tail(&self) -> Vec<String> {
        self.state.lock().tail.iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// SimScheduler
// ---------------------------------------------------------------------------

struct Scheduled<E> {
    at_ns: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest time (then
        // lowest insertion sequence) pops first — a total order, so
        // simultaneous events fire in the order they were scheduled.
        (other.at_ns, other.seq).cmp(&(self.at_ns, self.seq))
    }
}

/// A deterministic future-event queue over virtual time.
///
/// The harness schedules every fault-lane event up front (or as
/// consequences of earlier events) and pops the due ones each tick in
/// a total order — (virtual time, insertion sequence) — so replays are
/// bit-identical regardless of host timing.
pub struct SimScheduler<E> {
    queue: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> Default for SimScheduler<E> {
    fn default() -> Self {
        SimScheduler::new()
    }
}

impl<E> SimScheduler<E> {
    /// An empty scheduler.
    pub fn new() -> SimScheduler<E> {
        SimScheduler {
            queue: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at virtual time `at`.
    pub fn schedule(&mut self, at: Timestamp, event: E) {
        self.queue.push(Scheduled {
            at_ns: at.as_nanos(),
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops every event due at or before `now`, in (time, sequence)
    /// order.
    pub fn pop_due(&mut self, now: Timestamp) -> Vec<(Timestamp, E)> {
        let mut due = Vec::new();
        while let Some(head) = self.queue.peek() {
            if head.at_ns > now.as_nanos() {
                break;
            }
            let s = self.queue.pop().expect("peeked");
            due.push((Timestamp(s.at_ns), s.event));
        }
        due
    }

    /// Virtual time of the next scheduled event, if any.
    pub fn next_at(&self) -> Option<Timestamp> {
        self.queue.peek().map(|s| Timestamp(s.at_ns))
    }

    /// Events still scheduled.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn derive_seed_lanes_are_independent_and_deterministic() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        assert_ne!(derive_seed(42, lanes::BUS), derive_seed(42, lanes::IO));
    }

    #[test]
    fn sim_clock_is_monotonic_under_out_of_order_ticks() {
        let clock = SimClock::new();
        assert_eq!(clock.advance_to(ms(100)), ms(100));
        // A stale tick cannot rewind time.
        assert_eq!(clock.advance_to(ms(40)), ms(100));
        assert_eq!(clock.now(), ms(100));
        assert_eq!(clock.advance_to(ms(250)), ms(250));
        assert_eq!(clock.advance_ns(1_000_000), ms(251));
    }

    #[test]
    fn shared_clock_observes_one_timeline() {
        let clock = SimClock::new();
        let other = Arc::clone(&clock);
        other.advance_to(ms(500));
        assert_eq!(clock.now(), ms(500));
    }

    #[test]
    fn event_trace_hash_is_order_sensitive_and_replayable() {
        let run = |order: &[(u64, &str)]| {
            let trace = EventTrace::new();
            for (at, detail) in order {
                trace.record(ms(*at), "bus", detail);
            }
            trace.witness()
        };
        let a = run(&[(10, "outage-start"), (20, "outage-end")]);
        let b = run(&[(10, "outage-start"), (20, "outage-end")]);
        let c = run(&[(20, "outage-end"), (10, "outage-start")]);
        assert_eq!(a, b, "identical event sequences hash equal");
        assert_ne!(a, c, "reordered events must change the witness");
        assert!(a.starts_with("2:"), "witness carries the event count");
    }

    #[test]
    fn event_trace_tail_is_bounded() {
        let trace = EventTrace::new();
        for i in 0..200u64 {
            trace.record(ms(i), "io", &format!("eio {i}"));
        }
        assert_eq!(trace.events(), 200);
        let tail = trace.tail();
        assert_eq!(tail.len(), TRACE_TAIL);
        assert!(tail.last().unwrap().contains("eio 199"));
    }

    #[test]
    fn scheduler_pops_in_time_then_sequence_order() {
        let mut sched = SimScheduler::new();
        sched.schedule(ms(30), "c");
        sched.schedule(ms(10), "a");
        sched.schedule(ms(10), "b"); // same instant: insertion order
        sched.schedule(ms(50), "d");
        assert_eq!(sched.next_at(), Some(ms(10)));
        let due: Vec<&str> = sched.pop_due(ms(30)).into_iter().map(|(_, e)| e).collect();
        assert_eq!(due, vec!["a", "b", "c"]);
        assert_eq!(sched.len(), 1);
        let rest: Vec<&str> = sched.pop_due(ms(100)).into_iter().map(|(_, e)| e).collect();
        assert_eq!(rest, vec!["d"]);
        assert!(sched.is_empty());
    }
}
