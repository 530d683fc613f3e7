//! Bounded delivery queues with explicit overflow policies.
//!
//! DCDB's data path is QoS 0: under sustained overload the broker is
//! allowed to drop messages, but the drops must be *bounded, chosen by
//! policy, and observable* — never silent memory growth (DCDB paper
//! §IV-A; the ODA-in-practice follow-up calls sustained overload the
//! main gap between prototype and production). Every subscriber queue
//! in the bus is an instance of [`BoundedQueue`] carrying an
//! [`OverflowPolicy`] and a lock-free readable [`QueueMetrics`] block
//! (depth, high-water mark, drop counters) that feeds the `/metrics`
//! endpoint.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a full queue does with the next message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// The producer blocks until space frees up (lossless backpressure;
    /// publishers slow to the consumer's pace).
    Block,
    /// The incoming message is discarded; queued messages are kept.
    DropNewest,
    /// The oldest queued message is evicted to admit the incoming one
    /// (QoS-0 default: survivors are always the freshest data).
    #[default]
    DropOldest,
}

impl OverflowPolicy {
    /// Parses `block` / `drop-newest` / `drop-oldest`.
    pub fn parse(s: &str) -> Option<OverflowPolicy> {
        match s {
            "block" => Some(OverflowPolicy::Block),
            "drop-newest" | "dropnewest" => Some(OverflowPolicy::DropNewest),
            "drop-oldest" | "dropoldest" => Some(OverflowPolicy::DropOldest),
            _ => None,
        }
    }

    /// Canonical config-file / JSON spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            OverflowPolicy::Block => "block",
            OverflowPolicy::DropNewest => "drop-newest",
            OverflowPolicy::DropOldest => "drop-oldest",
        }
    }
}

/// Pop error: the sending side closed and the queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// Outcome of one [`BoundedQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Message admitted; nothing was displaced.
    Enqueued,
    /// Message admitted; the oldest queued message was evicted
    /// (`DropOldest`).
    Evicted,
    /// Message discarded because the queue was full (`DropNewest`).
    DroppedNewest,
    /// The receiving side is gone; message discarded.
    Closed,
}

/// Shared counters for one queue, updated under the queue lock but
/// readable without it.
#[derive(Debug, Default)]
pub struct QueueMetrics {
    depth: AtomicUsize,
    high_water: AtomicUsize,
    offered: AtomicU64,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    dropped_newest: AtomicU64,
    dropped_oldest: AtomicU64,
    dropped_closed: AtomicU64,
}

/// Point-in-time copy of [`QueueMetrics`], plus the queue's static
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueMetricsSnapshot {
    /// Configured capacity bound.
    pub capacity: usize,
    /// Overflow policy.
    pub policy: OverflowPolicy,
    /// Messages queued right now.
    pub depth: usize,
    /// Highest depth ever observed.
    pub high_water: usize,
    /// Push attempts (admitted + dropped).
    pub offered: u64,
    /// Messages admitted to the queue.
    pub enqueued: u64,
    /// Messages consumed by the receiver.
    pub dequeued: u64,
    /// Incoming messages discarded by `DropNewest`.
    pub dropped_newest: u64,
    /// Queued messages evicted by `DropOldest`.
    pub dropped_oldest: u64,
    /// Messages discarded because the receiver was gone.
    pub dropped_closed: u64,
}

impl QueueMetricsSnapshot {
    /// Total messages lost at this queue.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_newest + self.dropped_oldest + self.dropped_closed
    }

    /// Conservation check: every offered message is accounted for as
    /// consumed, still queued, or dropped.
    pub fn conserved(&self) -> bool {
        self.offered == self.dequeued + self.depth as u64 + self.dropped_total()
    }
}

struct QueueState<T> {
    q: VecDeque<T>,
    rx_closed: bool,
    tx_closed: bool,
}

/// A bounded MPMC queue with a configurable full-queue policy.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    readable: Condvar,
    writable: Condvar,
    cap: usize,
    policy: OverflowPolicy,
    metrics: QueueMetrics,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue bounded at `cap` messages.
    pub fn new(cap: usize, policy: OverflowPolicy) -> Arc<BoundedQueue<T>> {
        assert!(cap > 0, "queue capacity must be positive");
        Arc::new(BoundedQueue {
            state: Mutex::new(QueueState {
                q: VecDeque::new(),
                rx_closed: false,
                tx_closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            cap,
            policy,
            metrics: QueueMetrics::default(),
        })
    }

    /// Configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Messages queued right now (lock-free).
    pub fn len(&self) -> usize {
        self.metrics.depth.load(Ordering::Relaxed)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (lock-free).
    pub fn metrics(&self) -> QueueMetricsSnapshot {
        QueueMetricsSnapshot {
            capacity: self.cap,
            policy: self.policy,
            depth: self.metrics.depth.load(Ordering::Relaxed),
            high_water: self.metrics.high_water.load(Ordering::Relaxed),
            offered: self.metrics.offered.load(Ordering::Relaxed),
            enqueued: self.metrics.enqueued.load(Ordering::Relaxed),
            dequeued: self.metrics.dequeued.load(Ordering::Relaxed),
            dropped_newest: self.metrics.dropped_newest.load(Ordering::Relaxed),
            dropped_oldest: self.metrics.dropped_oldest.load(Ordering::Relaxed),
            dropped_closed: self.metrics.dropped_closed.load(Ordering::Relaxed),
        }
    }

    /// Offers a message, applying the overflow policy when full.
    pub fn push(&self, msg: T) -> PushOutcome {
        let mut state = self.state.lock().unwrap();
        self.metrics.offered.fetch_add(1, Ordering::Relaxed);
        loop {
            if state.rx_closed {
                self.metrics.dropped_closed.fetch_add(1, Ordering::Relaxed);
                return PushOutcome::Closed;
            }
            if state.q.len() < self.cap {
                state.q.push_back(msg);
                let depth = state.q.len();
                self.note_depth(depth);
                self.metrics.enqueued.fetch_add(1, Ordering::Relaxed);
                drop(state);
                self.readable.notify_one();
                return PushOutcome::Enqueued;
            }
            match self.policy {
                OverflowPolicy::Block => {
                    state = self.writable.wait(state).unwrap();
                }
                OverflowPolicy::DropNewest => {
                    self.metrics.dropped_newest.fetch_add(1, Ordering::Relaxed);
                    return PushOutcome::DroppedNewest;
                }
                OverflowPolicy::DropOldest => {
                    state.q.pop_front();
                    state.q.push_back(msg);
                    let depth = state.q.len();
                    self.note_depth(depth);
                    self.metrics.enqueued.fetch_add(1, Ordering::Relaxed);
                    self.metrics.dropped_oldest.fetch_add(1, Ordering::Relaxed);
                    drop(state);
                    self.readable.notify_one();
                    return PushOutcome::Evicted;
                }
            }
        }
    }

    #[inline]
    fn note_depth(&self, depth: usize) {
        self.metrics.depth.store(depth, Ordering::Relaxed);
        if depth > self.metrics.high_water.load(Ordering::Relaxed) {
            self.metrics.high_water.store(depth, Ordering::Relaxed);
        }
    }

    fn take(&self, state: &mut QueueState<T>) -> Option<T> {
        let msg = state.q.pop_front()?;
        self.metrics.depth.store(state.q.len(), Ordering::Relaxed);
        self.metrics.dequeued.fetch_add(1, Ordering::Relaxed);
        Some(msg)
    }

    /// Non-blocking pop; `Ok(None)` when empty; [`Disconnected`] when
    /// the sending side closed and the queue is drained.
    pub fn try_pop(&self) -> Result<Option<T>, Disconnected> {
        let mut state = self.state.lock().unwrap();
        if let Some(msg) = self.take(&mut state) {
            drop(state);
            self.writable.notify_one();
            return Ok(Some(msg));
        }
        if state.tx_closed {
            Err(Disconnected)
        } else {
            Ok(None)
        }
    }

    /// Blocking pop; [`Disconnected`] when the sending side closed and
    /// the queue is drained.
    pub fn pop(&self) -> Result<T, Disconnected> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(msg) = self.take(&mut state) {
                drop(state);
                self.writable.notify_one();
                return Ok(msg);
            }
            if state.tx_closed {
                return Err(Disconnected);
            }
            state = self.readable.wait(state).unwrap();
        }
    }

    /// Pop with a deadline; `Ok(None)` on timeout.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<T>, Disconnected> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(msg) = self.take(&mut state) {
                drop(state);
                self.writable.notify_one();
                return Ok(Some(msg));
            }
            if state.tx_closed {
                return Err(Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let (guard, _res) = self.readable.wait_timeout(state, deadline - now).unwrap();
            state = guard;
        }
    }

    /// Closes the receiving side: subsequent pushes fail with
    /// [`PushOutcome::Closed`] and blocked `Block`-policy producers wake.
    pub fn close_rx(&self) {
        let mut state = self.state.lock().unwrap();
        state.rx_closed = true;
        state.q.clear();
        self.metrics.depth.store(0, Ordering::Relaxed);
        drop(state);
        self.writable.notify_all();
        self.readable.notify_all();
    }

    /// Closes the sending side: consumers drain what is queued, then
    /// see disconnect.
    pub fn close_tx(&self) {
        let mut state = self.state.lock().unwrap();
        state.tx_closed = true;
        drop(state);
        self.readable.notify_all();
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.cap)
            .field("policy", &self.policy)
            .field("depth", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_round_trip() {
        let q = BoundedQueue::new(4, OverflowPolicy::DropOldest);
        assert_eq!(q.push(1), PushOutcome::Enqueued);
        assert_eq!(q.push(2), PushOutcome::Enqueued);
        assert_eq!(q.try_pop(), Ok(Some(1)));
        assert_eq!(q.pop(), Ok(2));
        assert_eq!(q.try_pop(), Ok(None));
    }

    #[test]
    fn drop_oldest_keeps_freshest() {
        let q = BoundedQueue::new(3, OverflowPolicy::DropOldest);
        for i in 0..10 {
            q.push(i);
        }
        let m = q.metrics();
        assert_eq!(m.depth, 3);
        assert_eq!(m.high_water, 3);
        assert_eq!(m.dropped_oldest, 7);
        assert_eq!(q.pop(), Ok(7));
        assert_eq!(q.pop(), Ok(8));
        assert_eq!(q.pop(), Ok(9));
        assert!(q.metrics().conserved());
    }

    #[test]
    fn drop_newest_keeps_earliest() {
        let q = BoundedQueue::new(3, OverflowPolicy::DropNewest);
        for i in 0..10 {
            q.push(i);
        }
        let m = q.metrics();
        assert_eq!(m.dropped_newest, 7);
        assert_eq!(q.pop(), Ok(0));
        assert!(q.metrics().conserved());
    }

    #[test]
    fn block_policy_waits_for_space() {
        let q = BoundedQueue::new(1, OverflowPolicy::Block);
        q.push(1);
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1); // producer is blocked
        assert_eq!(q.pop(), Ok(1));
        assert_eq!(h.join().unwrap(), PushOutcome::Enqueued);
        assert_eq!(q.pop(), Ok(2));
        assert_eq!(q.metrics().dropped_newest + q.metrics().dropped_oldest, 0);
    }

    #[test]
    fn close_rx_rejects_and_unblocks() {
        let q = BoundedQueue::new(1, OverflowPolicy::Block);
        q.push(1);
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(Duration::from_millis(10));
        q.close_rx();
        assert_eq!(h.join().unwrap(), PushOutcome::Closed);
        assert_eq!(q.push(3), PushOutcome::Closed);
    }

    #[test]
    fn close_tx_drains_then_disconnects() {
        let q = BoundedQueue::new(4, OverflowPolicy::DropOldest);
        q.push(1);
        q.close_tx();
        assert_eq!(q.pop(), Ok(1));
        assert_eq!(q.pop(), Err(Disconnected));
        assert_eq!(q.try_pop(), Err(Disconnected));
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Err(Disconnected));
    }

    #[test]
    fn pop_timeout_times_out() {
        let q: Arc<BoundedQueue<u32>> = BoundedQueue::new(2, OverflowPolicy::DropOldest);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Ok(None));
    }

    #[test]
    fn policy_parse_round_trip() {
        for p in [
            OverflowPolicy::Block,
            OverflowPolicy::DropNewest,
            OverflowPolicy::DropOldest,
        ] {
            assert_eq!(OverflowPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(OverflowPolicy::parse("nope"), None);
    }
}
