//! Timestamp primitives shared by all DCDB components.
//!
//! DCDB identifies every sensor reading by a nanosecond-resolution
//! timestamp. Monitored components may produce data at wildly different
//! rates (sub-second performance counters vs. minute-scale facility data),
//! so a single fixed-point representation with nanosecond resolution is
//! used everywhere: [`Timestamp`] is a number of nanoseconds since the
//! UNIX epoch.
//!
//! Time reaches the components that read it between ticks — the bus
//! and storage fault layers, the federation's failure detectors and its
//! replication stream — through one [`Clock`] its owner builds and
//! hands each of them once. The owner is the daemon's loop (which
//! advances it to wall time every tick), the simulation harness (which
//! advances it through virtual time) or a test. Components that are only
//! ticked keep their newest tick's `now` instead.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Nanoseconds in one second.
pub const NS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds in one millisecond.
pub const NS_PER_MS: u64 = 1_000_000;
/// Nanoseconds in one microsecond.
pub const NS_PER_US: u64 = 1_000;

/// A point in time, in nanoseconds since the UNIX epoch.
///
/// `Timestamp` is `Copy`, totally ordered and cheap to compare; it is the
/// sort key of every sensor cache and storage partition in the system.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp (UNIX epoch).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The maximum representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Current wall-clock time.
    pub fn now() -> Self {
        let d = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO);
        Timestamp(d.as_nanos() as u64)
    }

    /// Builds a timestamp from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * NS_PER_SEC)
    }

    /// Builds a timestamp from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * NS_PER_MS)
    }

    /// Builds a timestamp from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        Timestamp(us * NS_PER_US)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NS_PER_SEC
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NS_PER_MS
    }

    /// Saturating subtraction of a duration in nanoseconds.
    pub const fn saturating_sub_ns(self, ns: u64) -> Self {
        Timestamp(self.0.saturating_sub(ns))
    }

    /// Saturating addition of a duration in nanoseconds.
    pub const fn saturating_add_ns(self, ns: u64) -> Self {
        Timestamp(self.0.saturating_add(ns))
    }

    /// Nanoseconds elapsed from `earlier` to `self`; zero if `earlier` is
    /// in the future.
    pub const fn elapsed_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    fn add(self, ns: u64) -> Timestamp {
        Timestamp(self.0 + ns)
    }
}

impl AddAssign<u64> for Timestamp {
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;
    fn sub(self, rhs: Timestamp) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0 / NS_PER_SEC;
        let frac = self.0 % NS_PER_SEC;
        write!(f, "{secs}.{frac:09}")
    }
}

/// The one clock: a monotonic timestamp shared by `Arc` (a `ChaosBus`,
/// a `FaultIo` and a `FederatedAgent` read their owner's), so one
/// `advance_to` moves every layer's fault windows, backoffs and lags
/// together. `advance_to` is a `fetch_max`: out-of-order ticks (two
/// threads racing, a stale timestamp) only ever move time forward — an
/// outage window that has closed can never reopen.
#[derive(Debug, Default)]
pub struct Clock {
    now_ns: AtomicU64,
}

impl Clock {
    /// A fresh clock at time zero, ready to share.
    pub fn new() -> Arc<Clock> {
        Arc::new(Clock::default())
    }

    /// Current time.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now_ns())
    }

    /// Current time, nanoseconds.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = Timestamp::from_secs(12);
        assert_eq!(t.as_secs(), 12);
        assert_eq!(t.as_millis(), 12_000);
        assert_eq!(t.as_nanos(), 12 * NS_PER_SEC);
        assert_eq!(Timestamp::from_millis(1500).as_secs(), 1);
        assert_eq!(Timestamp::from_micros(2_000_000).as_secs(), 2);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = Timestamp::from_secs(1);
        assert_eq!(t.saturating_sub_ns(2 * NS_PER_SEC), Timestamp::ZERO);
        assert_eq!(Timestamp::MAX.saturating_add_ns(1), Timestamp::MAX);
        assert_eq!(t - Timestamp::from_secs(2), 0);
        assert_eq!(Timestamp::from_secs(2) - t, NS_PER_SEC);
    }

    #[test]
    fn elapsed_since_is_directional() {
        let a = Timestamp::from_secs(10);
        let b = Timestamp::from_secs(13);
        assert_eq!(b.elapsed_since(a), 3 * NS_PER_SEC);
        assert_eq!(a.elapsed_since(b), 0);
    }

    #[test]
    fn now_is_monotonic_enough() {
        let a = Timestamp::now();
        let b = Timestamp::now();
        assert!(b >= a);
        assert!(a.as_secs() > 1_600_000_000, "now() should be after 2020");
    }

    #[test]
    fn display_formats_fraction() {
        let t = Timestamp(1_500_000_000);
        assert_eq!(t.to_string(), "1.500000000");
    }

    #[test]
    fn clock_is_monotonic_under_out_of_order_ticks() {
        let ms = Timestamp::from_millis;
        let clock = Clock::new();
        assert_eq!(clock.advance_to(ms(100)), ms(100));
        // A stale tick cannot rewind time.
        assert_eq!(clock.advance_to(ms(40)), ms(100));
        assert_eq!(clock.now(), ms(100));
        assert_eq!(clock.advance_to(ms(250)), ms(250));
        assert_eq!(clock.advance_ns(1_000_000), ms(251));
        // Clones of the `Arc` observe one timeline.
        Arc::clone(&clock).advance_to(ms(500));
        assert_eq!(clock.now(), ms(500));
    }
}
