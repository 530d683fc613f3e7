//! Bounded delivery queues that shed by policy.
//!
//! DCDB's data path is QoS 0: under sustained overload the broker is
//! allowed to drop messages, but the drops must be *bounded, chosen by
//! policy, and observable* — never silent memory growth (DCDB paper
//! §IV-A; the ODA-in-practice follow-up calls sustained overload the
//! main gap between prototype and production). Every subscriber queue
//! in the bus is a [`BoundedQueue`]: one lock around a ring of at most
//! `capacity` messages, an [`OverflowPolicy`] and the counters (depth,
//! high-water mark, drops) that feed the `/metrics` endpoint. A push
//! never waits for space and a pop never waits for a message.

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;

/// What a full queue does with the next message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
#[serde(rename_all = "kebab-case")]
pub enum OverflowPolicy {
    /// The incoming message is discarded; queued messages are kept.
    DropNewest,
    /// The oldest queued message is evicted to admit the incoming one
    /// (QoS-0 default: survivors are always the freshest data).
    #[default]
    DropOldest,
}

impl OverflowPolicy {
    /// Parses `drop-newest` / `drop-oldest` (the spelling `/metrics`
    /// serves).
    pub fn parse(s: &str) -> Option<OverflowPolicy> {
        match s {
            "drop-newest" | "dropnewest" => Some(OverflowPolicy::DropNewest),
            "drop-oldest" | "dropoldest" => Some(OverflowPolicy::DropOldest),
            _ => None,
        }
    }
}

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
}

/// Point-in-time copy of a queue's counters, plus its static
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
}

impl QueueMetricsSnapshot {
    /// Total messages lost at this queue.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_newest + self.dropped_oldest
    }

    /// Conservation check: every offered message is accounted for as
    /// consumed, still queued, or dropped.
    pub fn conserved(&self) -> bool {
        self.offered == self.dequeued + self.depth as u64 + self.dropped_total()
    }
}

/// The ring and its counters, all under the queue's one lock.
struct State<T> {
    ring: VecDeque<T>,
    high_water: usize,
    offered: u64,
    enqueued: u64,
    dequeued: u64,
    dropped_newest: u64,
    dropped_oldest: u64,
}

/// A bounded MPMC queue with a full-queue policy.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    cap: usize,
    policy: OverflowPolicy,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue bounded at `cap` messages.
    pub fn new(cap: usize, policy: OverflowPolicy) -> Arc<BoundedQueue<T>> {
        assert!(cap > 0, "queue capacity must be positive");
        Arc::new(BoundedQueue {
            state: Mutex::new(State {
                ring: VecDeque::new(),
                high_water: 0,
                offered: 0,
                enqueued: 0,
                dequeued: 0,
                dropped_newest: 0,
                dropped_oldest: 0,
            }),
            cap,
            policy,
        })
    }

    /// Messages queued right now.
    pub fn len(&self) -> usize {
        self.state.lock().ring.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> QueueMetricsSnapshot {
        let s = self.state.lock();
        QueueMetricsSnapshot {
            capacity: self.cap,
            policy: self.policy,
            depth: s.ring.len(),
            high_water: s.high_water,
            offered: s.offered,
            enqueued: s.enqueued,
            dequeued: s.dequeued,
            dropped_newest: s.dropped_newest,
            dropped_oldest: s.dropped_oldest,
        }
    }

    /// Offers a message, applying the overflow policy when full.
    pub fn push(&self, msg: T) -> PushOutcome {
        let mut s = self.state.lock();
        s.offered += 1;
        let outcome = if s.ring.len() < self.cap {
            PushOutcome::Enqueued
        } else {
            match self.policy {
                OverflowPolicy::DropNewest => {
                    s.dropped_newest += 1;
                    return PushOutcome::DroppedNewest;
                }
                OverflowPolicy::DropOldest => {
                    s.ring.pop_front();
                    s.dropped_oldest += 1;
                    PushOutcome::Evicted
                }
            }
        };
        s.ring.push_back(msg);
        s.enqueued += 1;
        s.high_water = s.high_water.max(s.ring.len());
        outcome
    }

    /// Takes the oldest queued message; `None` when the queue is empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut s = self.state.lock();
        let msg = s.ring.pop_front()?;
        s.dequeued += 1;
        Some(msg)
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
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
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
        assert_eq!(q.try_pop(), Some(7));
        assert_eq!(q.try_pop(), Some(8));
        assert_eq!(q.try_pop(), Some(9));
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
        assert_eq!(q.try_pop(), Some(0));
        assert!(q.metrics().conserved());
    }

    #[test]
    fn policy_parse_round_trip() {
        for (word, p) in [
            ("drop-newest", OverflowPolicy::DropNewest),
            ("drop-oldest", OverflowPolicy::DropOldest),
        ] {
            assert_eq!(OverflowPolicy::parse(word), Some(p));
        }
        assert_eq!(OverflowPolicy::parse("block"), None);
        assert_eq!(OverflowPolicy::parse("nope"), None);
    }
}
