//! Timestamp primitives shared by all DCDB components.
//!
//! DCDB identifies every sensor reading by a nanosecond-resolution
//! timestamp. Monitored components may produce data at wildly different
//! rates (sub-second performance counters vs. minute-scale facility data),
//! so a single fixed-point representation with nanosecond resolution is
//! used everywhere: [`Timestamp`] is a number of nanoseconds since the
//! UNIX epoch.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
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
}
