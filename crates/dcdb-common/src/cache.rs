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
//! Views are zero-copy: a [`CacheView`] borrows (up to) two slices of the
//! ring storage and iterates them in timestamp order.

use crate::reading::SensorReading;
use crate::time::Timestamp;

/// Ring buffer of recent readings for one sensor.
///
/// Writes must be timestamp-monotonic (enforced: stale writes are
/// rejected), which every sampling loop guarantees by construction; this
/// is what makes binary search on the logical sequence valid.
#[derive(Debug, Clone)]
pub struct SensorCache {
    buf: Vec<SensorReading>,
    /// Ring capacity (independent of `buf.capacity()`, which the
    /// allocator may round up).
    cap: usize,
    /// Index of the oldest element.
    head: usize,
    len: usize,
    /// Exponentially weighted estimate of the sampling interval (ns).
    avg_interval_ns: f64,
    /// Readings dropped because they were older than the newest entry.
    rejected: u64,
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
    /// Creates a cache holding at most `capacity` readings.
    ///
    /// DCDB sizes caches by time (e.g. 180 s at a 1 s interval); use
    /// [`SensorCache::with_window`] for that calculation.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        SensorCache {
            buf: Vec::with_capacity(capacity.min(4096)),
            cap: capacity,
            head: 0,
            len: 0,
            avg_interval_ns: 0.0,
            rejected: 0,
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
        self.cap
    }

    /// Bytes actually held by this cache: the struct itself plus the
    /// ring storage *as allocated*, not as configured. `buf` grows
    /// lazily (and starts at most 4096 slots), so a mostly-empty cache
    /// reports far less than `cap * size_of::<SensorReading>()` —
    /// footprint metrics must not charge capacity that was never
    /// allocated.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buf.capacity() * std::mem::size_of::<SensorReading>()
    }

    /// Number of cached readings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the cache holds no readings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Count of stale readings rejected so far (monitoring hook).
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Running estimate of the sampling interval in nanoseconds
    /// (0.0 until at least two readings arrive).
    pub fn avg_interval_ns(&self) -> f64 {
        self.avg_interval_ns
    }

    /// Logical index -> physical index.
    #[inline]
    fn phys(&self, logical: usize) -> usize {
        let cap = self.cap;
        let i = self.head + logical;
        if i >= cap {
            i - cap
        } else {
            i
        }
    }

    /// Reading at logical position `i` (0 = oldest).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&SensorReading> {
        if i >= self.len {
            return None;
        }
        self.buf.get(self.phys(i))
    }

    /// The most recent reading.
    pub fn latest(&self) -> Option<&SensorReading> {
        if self.len == 0 {
            None
        } else {
            self.get(self.len - 1)
        }
    }

    /// The oldest cached reading.
    pub fn oldest(&self) -> Option<&SensorReading> {
        self.get(0)
    }

    /// Inserts a reading. Readings must arrive in timestamp order;
    /// a reading whose timestamp is not strictly newer than the latest
    /// entry is rejected (sampling loops occasionally re-fire on clock
    /// hiccups, and silently reordering would break binary search).
    pub fn push(&mut self, r: SensorReading) -> PushOutcome {
        if let Some(last) = self.latest() {
            if r.ts <= last.ts {
                self.rejected += 1;
                return PushOutcome::RejectedStale;
            }
            let dt = r.ts.elapsed_since(last.ts) as f64;
            self.avg_interval_ns = if self.avg_interval_ns == 0.0 {
                dt
            } else {
                // EWMA with alpha = 1/8: smooth but adapts within a few
                // samples when an operator's interval is reconfigured.
                self.avg_interval_ns * 0.875 + dt * 0.125
            };
        }
        let cap = self.cap;
        if self.buf.len() < cap {
            self.buf.push(r);
            self.len += 1;
            PushOutcome::Stored
        } else if self.len < cap {
            // Buffer physically full but logically not (after clear()).
            let idx = self.phys(self.len);
            self.buf[idx] = r;
            self.len += 1;
            PushOutcome::Stored
        } else {
            self.buf[self.head] = r;
            self.head = if self.head + 1 == cap {
                0
            } else {
                self.head + 1
            };
            PushOutcome::Evicted
        }
    }

    /// Drops all readings, keeping the allocation and interval estimate.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        // buf keeps stale values; len guards all access.
    }

    /// View over the whole cache, oldest to newest.
    pub fn view_all(&self) -> CacheView<'_> {
        self.view_range_logical(0, self.len)
    }

    /// O(1) **relative** view: approximately the last `offset_ns` of
    /// data, ending at the newest reading.
    ///
    /// The start is computed from the average-interval estimate, exactly
    /// like DCDB's fast path; the result may include slightly more or
    /// less than `offset_ns` when sampling jitters. `offset_ns == 0`
    /// yields just the most recent reading.
    pub fn view_relative(&self, offset_ns: u64) -> CacheView<'_> {
        if self.len == 0 {
            return CacheView::empty();
        }
        if offset_ns == 0 {
            return self.view_range_logical(self.len - 1, self.len);
        }
        let est = if self.avg_interval_ns > 0.0 {
            (offset_ns as f64 / self.avg_interval_ns).ceil() as usize + 1
        } else {
            self.len
        };
        let n = est.min(self.len);
        self.view_range_logical(self.len - n, self.len)
    }

    /// O(log N) **absolute** view: all readings with
    /// `t0 <= ts <= t1`, by binary search on the timestamps.
    pub fn view_absolute(&self, t0: Timestamp, t1: Timestamp) -> CacheView<'_> {
        if self.len == 0 || t1 < t0 {
            return CacheView::empty();
        }
        let lo = self.lower_bound(t0);
        let hi = self.upper_bound(t1);
        if lo >= hi {
            return CacheView::empty();
        }
        self.view_range_logical(lo, hi)
    }

    /// First logical index with `ts >= t`.
    fn lower_bound(&self, t: Timestamp) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.get(mid).unwrap().ts < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First logical index with `ts > t`.
    fn upper_bound(&self, t: Timestamp) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.get(mid).unwrap().ts <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Builds a view over logical indices `[lo, hi)`.
    fn view_range_logical(&self, lo: usize, hi: usize) -> CacheView<'_> {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo == hi {
            return CacheView::empty();
        }
        let cap = self.cap;
        let p_lo = self.phys(lo);
        let p_hi = self.phys(hi - 1) + 1; // exclusive physical end
        if p_lo < p_hi {
            CacheView {
                first: &self.buf[p_lo..p_hi],
                second: &[],
            }
        } else {
            // Wrapped: [p_lo, cap) then [0, p_hi).
            let filled = self.buf.len().min(cap);
            let _ = cap;
            CacheView {
                first: &self.buf[p_lo..filled],
                second: &self.buf[..p_hi],
            }
        }
    }
}

/// Zero-copy, timestamp-ordered view over cached readings.
///
/// Because the backing store is a ring buffer, a view is at most two
/// contiguous slices; iteration chains them.
#[derive(Debug, Clone, Copy)]
pub struct CacheView<'a> {
    first: &'a [SensorReading],
    second: &'a [SensorReading],
}

impl<'a> CacheView<'a> {
    /// An empty view.
    pub fn empty() -> Self {
        CacheView {
            first: &[],
            second: &[],
        }
    }

    /// A view over readings that are already contiguous and in
    /// timestamp order (a storage answer, say), so one consumer can take
    /// both cache and storage data.
    pub fn from_slice(readings: &'a [SensorReading]) -> Self {
        CacheView {
            first: readings,
            second: &[],
        }
    }

    /// Number of readings in the view.
    pub fn len(&self) -> usize {
        self.first.len() + self.second.len()
    }

    /// True when the view contains no readings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates readings oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &'a SensorReading> + '_ {
        self.first.iter().chain(self.second.iter())
    }

    /// Copies the view into a `Vec` (API-boundary convenience).
    pub fn to_vec(&self) -> Vec<SensorReading> {
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(self.first);
        v.extend_from_slice(self.second);
        v
    }

    /// First (oldest) reading in the view.
    pub fn first(&self) -> Option<&'a SensorReading> {
        self.first.first().or_else(|| self.second.first())
    }

    /// Last (newest) reading in the view.
    pub fn last(&self) -> Option<&'a SensorReading> {
        self.second.last().or_else(|| self.first.last())
    }
}

impl<'a> IntoIterator for CacheView<'a> {
    type Item = &'a SensorReading;
    type IntoIter =
        std::iter::Chain<std::slice::Iter<'a, SensorReading>, std::slice::Iter<'a, SensorReading>>;
    fn into_iter(self) -> Self::IntoIter {
        self.first.iter().chain(self.second.iter())
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
        for i in 1..=n {
            assert_ne!(cache.push(r(i as i64, i)), PushOutcome::RejectedStale);
        }
    }

    #[test]
    fn push_and_eviction() {
        let mut c = SensorCache::new(3);
        assert_eq!(c.push(r(1, 1)), PushOutcome::Stored);
        assert_eq!(c.push(r(2, 2)), PushOutcome::Stored);
        assert_eq!(c.push(r(3, 3)), PushOutcome::Stored);
        assert_eq!(c.push(r(4, 4)), PushOutcome::Evicted);
        assert_eq!(c.len(), 3);
        assert_eq!(c.oldest().unwrap().value, 2);
        assert_eq!(c.latest().unwrap().value, 4);
    }

    #[test]
    fn rejects_stale() {
        let mut c = SensorCache::new(4);
        c.push(r(1, 5));
        assert_eq!(c.push(r(2, 5)), PushOutcome::RejectedStale);
        assert_eq!(c.push(r(2, 4)), PushOutcome::RejectedStale);
        assert_eq!(c.len(), 1);
        assert_eq!(c.rejected_count(), 2);
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
    fn with_window_sizes_by_interval() {
        let c = SensorCache::with_window(180 * NS_PER_SEC, NS_PER_SEC);
        assert!(c.capacity() >= 181);
    }

    #[test]
    fn view_all_is_ordered_after_wrap() {
        let mut c = SensorCache::new(5);
        fill(&mut c, 12);
        let vals: Vec<i64> = c.view_all().iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn absolute_view_exact_bounds() {
        let mut c = SensorCache::new(10);
        fill(&mut c, 10);
        let v = c.view_absolute(Timestamp::from_secs(3), Timestamp::from_secs(6));
        let vals: Vec<i64> = v.iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![3, 4, 5, 6]);
    }

    #[test]
    fn absolute_view_outside_range_is_empty() {
        let mut c = SensorCache::new(8);
        fill(&mut c, 8);
        assert!(c
            .view_absolute(Timestamp::from_secs(100), Timestamp::from_secs(200))
            .is_empty());
        assert!(c
            .view_absolute(Timestamp::from_secs(6), Timestamp::from_secs(2))
            .is_empty());
        assert!(c.view_absolute(Timestamp::ZERO, Timestamp::ZERO).is_empty());
    }

    #[test]
    fn absolute_view_spanning_wrap() {
        let mut c = SensorCache::new(4);
        fill(&mut c, 10); // cache holds ts 7..=10, head mid-buffer
        let v = c.view_absolute(Timestamp::from_secs(7), Timestamp::from_secs(10));
        let vals: Vec<i64> = v.iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![7, 8, 9, 10]);
        // Partially out-of-cache range clips to what is cached.
        let v = c.view_absolute(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let vals: Vec<i64> = v.iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![7, 8]);
    }

    #[test]
    fn relative_view_zero_offset_is_latest() {
        let mut c = SensorCache::new(8);
        fill(&mut c, 6);
        let v = c.view_relative(0);
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().unwrap().value, 6);
    }

    #[test]
    fn relative_view_uses_interval_estimate() {
        let mut c = SensorCache::new(64);
        fill(&mut c, 30); // 1 s interval
        let v = c.view_relative(5 * NS_PER_SEC);
        // ~5 s of data at 1 Hz: 5-7 readings given the +1 headroom.
        assert!((5..=7).contains(&v.len()), "len={}", v.len());
        assert_eq!(v.last().unwrap().value, 30);
    }

    #[test]
    fn relative_view_clamps_to_available() {
        let mut c = SensorCache::new(64);
        fill(&mut c, 4);
        let v = c.view_relative(1000 * NS_PER_SEC);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn relative_view_without_interval_estimate_returns_all() {
        let mut c = SensorCache::new(8);
        c.push(r(1, 1));
        let v = c.view_relative(10 * NS_PER_SEC);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn empty_cache_views() {
        let c = SensorCache::new(4);
        assert!(c.view_all().is_empty());
        assert!(c.view_relative(NS_PER_SEC).is_empty());
        assert!(c.view_absolute(Timestamp::ZERO, Timestamp::MAX).is_empty());
        assert!(c.latest().is_none());
        assert!(c.oldest().is_none());
    }

    #[test]
    fn clear_keeps_working() {
        let mut c = SensorCache::new(3);
        fill(&mut c, 7);
        c.clear();
        assert!(c.is_empty());
        c.push(r(100, 100));
        c.push(r(101, 101));
        let vals: Vec<i64> = c.view_all().iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![100, 101]);
    }

    #[test]
    fn interval_estimate_converges() {
        let mut c = SensorCache::new(128);
        for i in 0..100u64 {
            c.push(SensorReading::new(i as i64, Timestamp(i * 250_000_000)));
        }
        let est = c.avg_interval_ns();
        assert!((est - 250_000_000.0).abs() < 1_000_000.0, "est={est}");
    }

    #[test]
    fn view_first_last_cross_wrap() {
        let mut c = SensorCache::new(4);
        fill(&mut c, 6);
        let v = c.view_all();
        assert_eq!(v.first().unwrap().value, 3);
        assert_eq!(v.last().unwrap().value, 6);
        assert_eq!(v.to_vec().len(), 4);
    }
}
