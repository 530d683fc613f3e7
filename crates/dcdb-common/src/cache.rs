//! Per-sensor in-memory caches of recent readings.
//!
//! Every Pusher and Collect Agent keeps, for each sensor it handles, a
//! ring buffer of the most recent readings covering a configurable time
//! window (paper §IV-A, §V-B). The Wintermute Query Engine serves reads
//! from these caches whenever possible, in one of two modes:
//!
//! * **relative** — the caller asks for "the last `Δt` of data" as an
//!   offset against the most recent reading. The start index is derived
//!   from the cache's running estimate of the sampling interval, an O(1)
//!   computation (this is DCDB's fast path);
//! * **absolute** — the caller supplies absolute timestamps and the cache
//!   binary-searches for the boundaries, O(log N) but exact.
//!
//! A cache is shared by one writer at a time and any number of readers,
//! with no lock: the ring carries a sequence stamp. A writer claims the
//! ring by moving the stamp from even to odd with one compare-and-swap,
//! stores its readings, and publishes the stamp even again. A reader
//! copies the readings it selects into a buffer of its own and starts
//! over if the stamp was odd or moved while it copied. A reader never
//! blocks a writer, and holds nothing once its read returns.

use crate::reading::SensorReading;
use crate::time::Timestamp;
use std::fmt;
use std::sync::atomic::{fence, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Slots allocated with the cache; the rest of a larger ring is
/// allocated on the first write past them.
const FIRST_BLOCK: usize = 4096;

/// One reading of the ring. Its halves are atomics accessed `Relaxed`,
/// so a read racing a write sees some stored value — which the stamp
/// check then discards — rather than undefined behaviour.
#[derive(Default)]
struct Slot {
    value: AtomicI64,
    ts: AtomicU64,
}

impl Slot {
    fn load(&self) -> SensorReading {
        SensorReading::new(
            self.value.load(Ordering::Relaxed),
            Timestamp(self.ts.load(Ordering::Relaxed)),
        )
    }

    fn store(&self, r: SensorReading) {
        self.value.store(r.value, Ordering::Relaxed);
        self.ts.store(r.ts.as_nanos(), Ordering::Relaxed);
    }
}

fn slots(n: usize) -> Box<[Slot]> {
    (0..n).map(|_| Slot::default()).collect()
}

/// Spins briefly, then yields: the other side of the stamp holds it for
/// a few stores or copies, unless the scheduler took its core.
fn back_off(spins: &mut u32) {
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    *spins += 1;
}

/// Ring buffer of recent readings for one sensor, shared without a lock.
///
/// Writes must be timestamp-monotonic (enforced: stale writes are
/// rejected), which every sampling loop guarantees by construction; this
/// is what makes binary search on the logical sequence valid.
///
/// Ring memory is at most two blocks, neither moved nor freed before the
/// cache: the first `min(capacity, 4096)` slots, allocated here, and the
/// rest, allocated by the first write that needs them.
pub struct SensorCache {
    first: Box<[Slot]>,
    rest: OnceLock<Box<[Slot]>>,
    /// Odd while a writer holds the ring; bumped by two per write.
    stamp: AtomicU32,
    cap: u32,
    /// Physical index of the oldest reading; always `< cap`.
    head: AtomicU32,
    /// Number of readings held; always `<= cap`.
    len: AtomicU32,
    /// Exponentially weighted estimate of the sampling interval (ns), as
    /// `f64` bits.
    avg_interval_ns: AtomicU64,
}

/// Outcome of [`SensorCache::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Stored; nothing evicted.
    Stored,
    /// Stored; the oldest reading was evicted to make room.
    Evicted,
    /// Rejected: timestamp not newer than the latest entry.
    RejectedStale,
}

impl SensorCache {
    /// Creates a cache holding at most `capacity` readings
    /// (`1..=u32::MAX`).
    ///
    /// DCDB sizes caches by time (e.g. 180 s at a 1 s interval); use
    /// [`SensorCache::with_window`] for that calculation.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let cap = u32::try_from(capacity).expect("cache capacity fits in u32");
        SensorCache {
            first: slots(capacity.min(FIRST_BLOCK)),
            rest: OnceLock::new(),
            stamp: AtomicU32::new(0),
            cap,
            head: AtomicU32::new(0),
            len: AtomicU32::new(0),
            avg_interval_ns: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Creates a cache sized to cover `window_ns` of data sampled every
    /// `interval_ns` (with one extra slot of headroom).
    pub fn with_window(window_ns: u64, interval_ns: u64) -> Self {
        let interval = interval_ns.max(1);
        let slots = (window_ns / interval).max(1) as usize + 1;
        SensorCache::new(slots)
    }

    /// Maximum number of readings held.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Bytes actually held by this cache: the struct itself plus the
    /// ring blocks *as allocated*, not as configured. A cache larger
    /// than its first block allocates the rest only when it fills past
    /// it, so footprint metrics are not charged capacity that was never
    /// allocated.
    pub fn memory_bytes(&self) -> usize {
        let slots = self.first.len() + self.rest.get().map_or(0, |rest| rest.len());
        std::mem::size_of::<Self>() + slots * std::mem::size_of::<Slot>()
    }

    /// Number of cached readings.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// True when the cache holds no readings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Running estimate of the sampling interval in nanoseconds
    /// (0.0 until at least two readings arrive).
    pub fn avg_interval_ns(&self) -> f64 {
        f64::from_bits(self.avg_interval_ns.load(Ordering::Relaxed))
    }

    /// The slot at physical index `p`; `None` only past the first block
    /// before the rest exists, which a read racing that first write can
    /// ask for (and then discards).
    fn slot(&self, p: usize) -> Option<&Slot> {
        match p.checked_sub(self.first.len()) {
            None => self.first.get(p),
            Some(q) => self.rest.get()?.get(q),
        }
    }

    /// The slot of logical position `i` (0 = oldest) when the oldest
    /// reading is at physical index `head`.
    fn at(&self, head: usize, i: usize) -> Option<&Slot> {
        let cap = self.cap as usize;
        let p = head + i;
        self.slot(if p >= cap { p - cap } else { p })
    }

    /// Claims the ring for one writer.
    fn writer(&self) -> Writer<'_> {
        let mut spins = 0;
        loop {
            let s = self.stamp.load(Ordering::Relaxed);
            if s & 1 == 0
                && self
                    .stamp
                    .compare_exchange_weak(
                        s,
                        s.wrapping_add(1),
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                // A reader that sees any slot store below also sees the
                // odd stamp on its check (paired with the fence in
                // `read`).
                fence(Ordering::Release);
                return Writer {
                    cache: self,
                    stamp: s.wrapping_add(2),
                };
            }
            back_off(&mut spins);
        }
    }

    /// Runs `attempt` over the ring until one ran with no write in
    /// between, and returns what that one returned.
    fn read<R>(&self, mut attempt: impl FnMut(&Ring<'_>) -> R) -> R {
        let mut spins = 0;
        loop {
            // Acquire: a stamp a writer published brings its stores.
            let s = self.stamp.load(Ordering::Acquire);
            if s & 1 == 0 {
                let ring = Ring {
                    cache: self,
                    head: self.head.load(Ordering::Relaxed) as usize,
                    len: self.len.load(Ordering::Relaxed) as usize,
                    avg_interval_ns: f64::from_bits(self.avg_interval_ns.load(Ordering::Relaxed)),
                };
                let got = attempt(&ring);
                // The loads above happen before the check (paired with
                // the fence in `writer`).
                fence(Ordering::Acquire);
                if self.stamp.load(Ordering::Relaxed) == s {
                    return got;
                }
            }
            back_off(&mut spins);
        }
    }

    /// The most recent reading.
    pub fn latest(&self) -> Option<SensorReading> {
        self.read(|ring| ring.len.checked_sub(1).map(|i| ring.get(i)))
    }

    /// The timestamps of the oldest and the newest cached reading.
    pub fn extent(&self) -> Option<(Timestamp, Timestamp)> {
        self.read(|ring| {
            let newest = ring.len.checked_sub(1)?;
            Some((ring.get(0).ts, ring.get(newest).ts))
        })
    }

    /// Inserts a reading. Readings must arrive in timestamp order;
    /// a reading whose timestamp is not strictly newer than the latest
    /// entry is rejected (sampling loops occasionally re-fire on clock
    /// hiccups, and silently reordering would break binary search).
    pub fn push(&self, r: SensorReading) -> PushOutcome {
        self.writer().push(r)
    }

    /// Inserts `readings` in order inside one write, and returns how
    /// many were rejected as not newer than the latest entry.
    pub fn push_all(&self, readings: impl IntoIterator<Item = SensorReading>) -> usize {
        let mut writer = self.writer();
        readings
            .into_iter()
            .filter(|&r| writer.push(r) == PushOutcome::RejectedStale)
            .count()
    }

    /// Copies into `out` (cleared first) approximately the last
    /// `offset_ns` of data, ending at the newest reading — an O(1)
    /// **relative** read.
    ///
    /// The start is computed from the average-interval estimate, exactly
    /// like DCDB's fast path; the result may include slightly more or
    /// less than `offset_ns` when sampling jitters. `offset_ns == 0`
    /// yields just the most recent reading. Returns the oldest cached
    /// timestamp at the time of the copy, `None` when the cache is
    /// empty.
    pub fn read_relative(&self, offset_ns: u64, out: &mut Vec<SensorReading>) -> Option<Timestamp> {
        self.read(|ring| {
            let n = if offset_ns == 0 {
                1
            } else if ring.avg_interval_ns > 0.0 {
                ((offset_ns as f64 / ring.avg_interval_ns).ceil() as usize).saturating_add(1)
            } else {
                ring.len
            };
            ring.copy(ring.len.saturating_sub(n), ring.len, out)
        })
    }

    /// Copies into `out` (cleared first) all readings with
    /// `t0 <= ts <= t1` — an O(log N) **absolute** read by binary search
    /// on the timestamps. Returns the oldest cached timestamp at the
    /// time of the copy (even when no reading falls in the range),
    /// `None` when the cache is empty.
    pub fn read_absolute(
        &self,
        t0: Timestamp,
        t1: Timestamp,
        out: &mut Vec<SensorReading>,
    ) -> Option<Timestamp> {
        self.read(|ring| {
            let (lo, hi) = if t1 < t0 {
                (0, 0)
            } else {
                (ring.partition(|ts| ts < t0), ring.partition(|ts| ts <= t1))
            };
            ring.copy(lo, hi.max(lo), out)
        })
    }
}

impl fmt::Debug for SensorCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SensorCache")
            .field("capacity", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

/// The ring as one read attempt saw it. `head` and `len` are each in
/// range on their own (every store keeps them so), so no index panics
/// even when the attempt raced a writer and sees them mismatched; the
/// stamp check discards such an attempt.
struct Ring<'a> {
    cache: &'a SensorCache,
    head: usize,
    len: usize,
    avg_interval_ns: f64,
}

impl Ring<'_> {
    /// Reading at logical position `i` (0 = oldest, `i < len`).
    fn get(&self, i: usize) -> SensorReading {
        self.cache
            .at(self.head, i)
            .map_or(SensorReading::new(0, Timestamp::ZERO), Slot::load)
    }

    /// First logical index whose timestamp fails `before`.
    fn partition(&self, before: impl Fn(Timestamp) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(self.get(mid).ts) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Replaces `out` with logical positions `lo..hi`; returns the
    /// oldest timestamp held.
    fn copy(&self, lo: usize, hi: usize, out: &mut Vec<SensorReading>) -> Option<Timestamp> {
        out.clear();
        out.extend((lo..hi).map(|i| self.get(i)));
        (self.len > 0).then(|| self.get(0).ts)
    }
}

/// One writer's exclusive hold on a ring, released — also on unwind —
/// by publishing the next even stamp.
struct Writer<'a> {
    cache: &'a SensorCache,
    stamp: u32,
}

impl Writer<'_> {
    fn push(&mut self, r: SensorReading) -> PushOutcome {
        let c = self.cache;
        let cap = c.cap as usize;
        let head = c.head.load(Ordering::Relaxed) as usize;
        let len = c.len.load(Ordering::Relaxed) as usize;
        if let Some(last) = len.checked_sub(1).and_then(|i| c.at(head, i)) {
            let last = last.load();
            if r.ts <= last.ts {
                return PushOutcome::RejectedStale;
            }
            let dt = r.ts.elapsed_since(last.ts) as f64;
            let avg = f64::from_bits(c.avg_interval_ns.load(Ordering::Relaxed));
            let avg = if avg == 0.0 {
                dt
            } else {
                // EWMA with alpha = 1/8: smooth but adapts within a few
                // samples when an operator's interval is reconfigured.
                avg * 0.875 + dt * 0.125
            };
            c.avg_interval_ns.store(avg.to_bits(), Ordering::Relaxed);
        }
        if len < cap {
            // The oldest reading stays at index 0 until the ring is full.
            self.slot(len).store(r);
            c.len.store(len as u32 + 1, Ordering::Relaxed);
            PushOutcome::Stored
        } else {
            self.slot(head).store(r);
            let next = if head + 1 == cap { 0 } else { head + 1 };
            c.head.store(next as u32, Ordering::Relaxed);
            PushOutcome::Evicted
        }
    }

    /// The slot at physical index `p < cap`, allocating the rest of the
    /// ring when `p` is past the first block.
    fn slot(&self, p: usize) -> &Slot {
        let c = self.cache;
        match p.checked_sub(c.first.len()) {
            None => &c.first[p],
            Some(q) => &c.rest.get_or_init(|| slots(c.cap as usize - c.first.len()))[q],
        }
    }
}

impl Drop for Writer<'_> {
    fn drop(&mut self) {
        // Release: the stores of this write come with the stamp.
        self.cache.stamp.store(self.stamp, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::NS_PER_SEC;

    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    fn fill(cache: &mut SensorCache, n: u64) {
        fill_from(cache, 1, n);
    }

    fn fill_from(cache: &SensorCache, from: u64, to: u64) {
        for i in from..=to {
            assert_ne!(cache.push(r(i as i64, i)), PushOutcome::RejectedStale);
        }
    }

    fn values(readings: &[SensorReading]) -> Vec<i64> {
        readings.iter().map(|r| r.value).collect()
    }

    fn all(cache: &SensorCache) -> Vec<SensorReading> {
        let mut out = Vec::new();
        cache.read_absolute(Timestamp::ZERO, Timestamp::MAX, &mut out);
        out
    }

    fn absolute(cache: &SensorCache, t0: u64, t1: u64) -> Vec<i64> {
        let mut out = Vec::new();
        cache.read_absolute(Timestamp::from_secs(t0), Timestamp::from_secs(t1), &mut out);
        values(&out)
    }

    fn relative(cache: &SensorCache, offset_ns: u64) -> Vec<SensorReading> {
        let mut out = Vec::new();
        cache.read_relative(offset_ns, &mut out);
        out
    }

    #[test]
    fn push_and_eviction() {
        let c = SensorCache::new(3);
        assert_eq!(c.push(r(1, 1)), PushOutcome::Stored);
        assert_eq!(c.push(r(2, 2)), PushOutcome::Stored);
        assert_eq!(c.push(r(3, 3)), PushOutcome::Stored);
        assert_eq!(c.push(r(4, 4)), PushOutcome::Evicted);
        assert_eq!(c.len(), 3);
        assert_eq!(values(&all(&c)), vec![2, 3, 4]);
        assert_eq!(c.latest().unwrap().value, 4);
    }

    #[test]
    fn rejects_stale() {
        let c = SensorCache::new(4);
        c.push(r(1, 5));
        assert_eq!(c.push(r(2, 5)), PushOutcome::RejectedStale);
        assert_eq!(c.push(r(2, 4)), PushOutcome::RejectedStale);
        assert_eq!(c.len(), 1);
        // One write, two refusals among three.
        assert_eq!(c.push_all([r(3, 3), r(6, 6), r(4, 4)]), 2);
        assert_eq!(values(&all(&c)), vec![1, 6]);
    }

    #[test]
    fn memory_bytes_tracks_allocation_not_capacity() {
        let reading = std::mem::size_of::<SensorReading>();
        // Huge configured capacity, nothing stored: only the (bounded)
        // initial allocation is charged.
        let empty = SensorCache::new(1_000_000);
        assert!(empty.memory_bytes() <= std::mem::size_of::<SensorCache>() + 4096 * reading);
        // A filled small cache charges at least its contents.
        let mut full = SensorCache::new(8);
        fill(&mut full, 8);
        assert!(full.memory_bytes() >= std::mem::size_of::<SensorCache>() + 8 * reading);
        assert!(full.memory_bytes() < empty.memory_bytes());
    }

    #[test]
    fn the_rest_of_a_large_ring_is_allocated_by_the_first_write_past_the_first_block() {
        let slot = std::mem::size_of::<SensorReading>();
        let mut c = SensorCache::new(FIRST_BLOCK + 10);
        fill(&mut c, FIRST_BLOCK as u64);
        let first = c.memory_bytes();
        assert_eq!(
            first,
            std::mem::size_of::<SensorCache>() + FIRST_BLOCK * slot
        );
        fill_from(&c, FIRST_BLOCK as u64 + 1, FIRST_BLOCK as u64 + 25);
        assert_eq!(c.memory_bytes(), first + 10 * slot);
        let held = all(&c);
        assert_eq!(held.len(), FIRST_BLOCK + 10);
        assert_eq!(held[0].value, 16);
        assert_eq!(held.last().unwrap().value, FIRST_BLOCK as i64 + 25);
    }

    #[test]
    fn the_shared_cache_is_no_larger_than_the_single_threaded_one_was() {
        assert!(std::mem::size_of::<SensorCache>() <= 64);
        assert_eq!(
            std::mem::size_of::<Slot>(),
            std::mem::size_of::<SensorReading>()
        );
    }

    #[test]
    fn with_window_sizes_by_interval() {
        let c = SensorCache::with_window(180 * NS_PER_SEC, NS_PER_SEC);
        assert!(c.capacity() >= 181);
    }

    #[test]
    fn read_all_is_ordered_after_wrap() {
        let mut c = SensorCache::new(5);
        fill(&mut c, 12);
        assert_eq!(values(&all(&c)), vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn absolute_read_exact_bounds() {
        let mut c = SensorCache::new(10);
        fill(&mut c, 10);
        assert_eq!(absolute(&c, 3, 6), vec![3, 4, 5, 6]);
    }

    #[test]
    fn absolute_read_outside_range_is_empty() {
        let mut c = SensorCache::new(8);
        fill(&mut c, 8);
        assert!(absolute(&c, 100, 200).is_empty());
        assert!(absolute(&c, 6, 2).is_empty());
        assert!(absolute(&c, 0, 0).is_empty());
        // The oldest cached timestamp comes back even then.
        let mut out = Vec::new();
        let oldest = c.read_absolute(Timestamp::from_secs(6), Timestamp::from_secs(2), &mut out);
        assert_eq!(oldest, Some(Timestamp::from_secs(1)));
    }

    #[test]
    fn absolute_read_spanning_wrap() {
        let mut c = SensorCache::new(4);
        fill(&mut c, 10); // cache holds ts 7..=10, head mid-buffer
        assert_eq!(absolute(&c, 7, 10), vec![7, 8, 9, 10]);
        // Partially out-of-cache range clips to what is cached.
        assert_eq!(absolute(&c, 1, 8), vec![7, 8]);
    }

    #[test]
    fn relative_read_zero_offset_is_latest() {
        let mut c = SensorCache::new(8);
        fill(&mut c, 6);
        assert_eq!(values(&relative(&c, 0)), vec![6]);
    }

    #[test]
    fn relative_read_uses_interval_estimate() {
        let mut c = SensorCache::new(64);
        fill(&mut c, 30); // 1 s interval
        let v = relative(&c, 5 * NS_PER_SEC);
        // ~5 s of data at 1 Hz: 5-7 readings given the +1 headroom.
        assert!((5..=7).contains(&v.len()), "len={}", v.len());
        assert_eq!(v.last().unwrap().value, 30);
    }

    #[test]
    fn relative_read_clamps_to_available() {
        let mut c = SensorCache::new(64);
        fill(&mut c, 4);
        assert_eq!(relative(&c, 1000 * NS_PER_SEC).len(), 4);
        assert_eq!(relative(&c, u64::MAX).len(), 4);
    }

    #[test]
    fn relative_read_without_interval_estimate_returns_all() {
        let c = SensorCache::new(8);
        c.push(r(1, 1));
        assert_eq!(relative(&c, 10 * NS_PER_SEC).len(), 1);
    }

    #[test]
    fn empty_cache_reads() {
        let c = SensorCache::new(4);
        let mut out = vec![r(9, 9)];
        assert_eq!(c.read_relative(NS_PER_SEC, &mut out), None);
        assert!(out.is_empty(), "a read replaces the buffer's contents");
        assert_eq!(
            c.read_absolute(Timestamp::ZERO, Timestamp::MAX, &mut out),
            None
        );
        assert!(out.is_empty());
        assert!(c.latest().is_none());
        assert!(c.extent().is_none());
    }

    #[test]
    fn interval_estimate_converges() {
        let c = SensorCache::new(128);
        for i in 0..100u64 {
            c.push(SensorReading::new(i as i64, Timestamp(i * 250_000_000)));
        }
        let est = c.avg_interval_ns();
        assert!((est - 250_000_000.0).abs() < 1_000_000.0, "est={est}");
    }

    #[test]
    fn extent_crosses_the_wrap() {
        let mut c = SensorCache::new(4);
        fill(&mut c, 6);
        assert_eq!(
            c.extent(),
            Some((Timestamp::from_secs(3), Timestamp::from_secs(6)))
        );
    }
}
