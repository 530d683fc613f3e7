//! A publish to a warm subscription allocates nothing. A counting
//! global allocator watches 10 000 publishes of a prebuilt frame to one
//! `/#` subscriber, each followed by the `try_recv` that takes it off the
//! queue: routing, the push and the pop must reuse what the warm-up
//! allocated (the subscription list, the queue's ring), so the heap is
//! not on the per-message path.
//!
//! One test per binary: the allocator's counter is process-wide.

use bytes::Bytes;
use dcdb_bus::{Broker, MessageBus};
use dcdb_common::topic::Topic;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 1_000;
const PUBLISHES: usize = 10_000;

#[test]
fn a_publish_and_its_receive_allocate_nothing() {
    let broker = Broker::new();
    let bus = broker.handle();
    let sub = bus.subscribe_str("/#").unwrap();
    let topic = Topic::parse("/rack00/node00/power").unwrap();
    let frame = Bytes::from(vec![7u8; 48]);

    let round = |n: usize| {
        for _ in 0..n {
            bus.publish(topic.clone(), frame.clone()).unwrap();
            let msg = sub.try_recv().expect("routed when publish returns");
            assert_eq!(msg.payload.len(), 48);
        }
    };
    round(WARM_UP);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    round(PUBLISHES);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(
        allocations,
        0,
        "{allocations} allocations over {PUBLISHES} publishes ({:.2} per publish)",
        allocations as f64 / PUBLISHES as f64
    );
    let stats = broker.stats();
    assert_eq!(stats.published, (WARM_UP + PUBLISHES) as u64);
    assert_eq!(stats.published, stats.delivered + stats.dropped);
    assert!(sub.metrics().conserved());
}
