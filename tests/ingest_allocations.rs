//! The ingest path's allocations per reading, counted. A counting global
//! allocator watches a steady `ingest_steady`-shaped system: 4 Pushers
//! × 100 tester sensors publishing through the broker to a Collect
//! Agent over a storage engine that keeps nothing, so every allocation
//! counted is the Pusher's or the agent's own. After a warm-up, the
//! Pusher ticks and the agent drains are counted apart:
//!
//! * a Pusher tick makes at most 4 allocations (its samples, one node
//!   frame, the frame list), not a handful per reading;
//! * an agent drain decodes into the group it kept from the last drain
//!   and resolves each topic through the cache map: at most 0.01
//!   allocations per reading.
//!
//! One test per binary: the allocator's counter is process-wide.

use dcdb_wintermute::dcdb_bus::Broker;
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::error::Result;
use dcdb_wintermute::dcdb_common::{ReadingBatch, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_pusher::{Pusher, PusherConfig, TesterMonitoringPlugin};
use dcdb_wintermute::dcdb_storage::{AggFrame, StorageEngine, StorageHealthReport, StorageStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

const PUSHERS: usize = 4;
const SENSORS: usize = 100;
const WARM_UP: u64 = 20;
const TICKS: u64 = 200;

/// A storage engine that acknowledges everything and keeps nothing.
#[derive(Debug)]
struct Discard;

impl StorageEngine for Discard {
    fn insert_columns(&self, _: &Topic, _: &ReadingBatch) -> Result<()> {
        Ok(())
    }
    fn query(&self, _: &Topic, _: Timestamp, _: Timestamp) -> Vec<SensorReading> {
        Vec::new()
    }
    fn latest(&self, _: &Topic) -> Option<SensorReading> {
        None
    }
    fn contains(&self, _: &Topic) -> bool {
        false
    }
    fn topics(&self) -> Vec<Topic> {
        Vec::new()
    }
    fn oldest_ts(&self, _: &Topic) -> Option<Timestamp> {
        None
    }
    fn evict_before(&self, _: Timestamp) -> usize {
        0
    }
    fn stats(&self) -> StorageStats {
        StorageStats::default()
    }
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    fn maintain(&self, _: Timestamp) -> Result<()> {
        Ok(())
    }
    fn health(&self) -> Option<StorageHealthReport> {
        None
    }
    fn rollup_tiers(&self) -> Vec<u64> {
        Vec::new()
    }
    fn query_frames(&self, _: &Topic, _: u64, _: Timestamp, _: Timestamp) -> Vec<AggFrame> {
        Vec::new()
    }
}

#[test]
fn a_steady_tick_and_drain_allocate_per_frame_not_per_reading() {
    let broker = Broker::new();
    let agent = CollectAgent::new(
        CollectAgentConfig::default(),
        &broker.handle(),
        Arc::new(Discard),
    )
    .unwrap();
    let pushers: Vec<Pusher> = (0..PUSHERS)
        .map(|p| {
            let mut pusher = Pusher::new(PusherConfig::default(), Some(broker.handle()));
            let node = Topic::parse(&format!("/rack00/node{p:02}")).unwrap();
            pusher.add_monitoring_plugin(Box::new(
                TesterMonitoringPlugin::new(&node, SENSORS).unwrap(),
            ));
            pusher.refresh_sensor_tree();
            pusher
        })
        .collect();

    let (mut tick_allocations, mut drain_allocations) = (0, 0);
    for k in 1..=WARM_UP + TICKS {
        let now = Timestamp::from_secs(k);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for pusher in &pushers {
            pusher.tick(now).unwrap();
        }
        let ticked = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(agent.process_pending(), PUSHERS * SENSORS);
        let drained = ALLOCATIONS.load(Ordering::Relaxed);
        if k > WARM_UP {
            tick_allocations += ticked - before;
            drain_allocations += drained - ticked;
        }
    }

    let readings = (TICKS as usize * PUSHERS * SENSORS) as f64;
    let per_tick = tick_allocations as f64 / (TICKS as usize * PUSHERS) as f64;
    let per_reading = drain_allocations as f64 / readings;
    eprintln!(
        "Pusher::tick: {per_tick:.2} allocations per tick ({:.4} per reading); \
         process_pending: {per_reading:.4} per reading",
        tick_allocations as f64 / readings
    );
    assert!(per_tick <= 4.0, "{per_tick:.2} allocations per Pusher tick");
    assert!(
        per_reading <= 0.01,
        "{per_reading:.4} allocations per drained reading"
    );
    let stats = agent.stats();
    assert_eq!(
        stats.readings,
        (WARM_UP + TICKS) * (PUSHERS * SENSORS) as u64
    );
    assert_eq!(
        stats.messages,
        (WARM_UP + TICKS) * PUSHERS as u64,
        "one frame per tick"
    );
    assert_eq!(stats.decode_errors, 0);
}
