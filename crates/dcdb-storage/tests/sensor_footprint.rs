//! A sensor the engine has seen once costs one small record. A counting
//! global allocator measures the live heap that one reading each to
//! 3 200 sensors (32 Pushers of 100 sensors, the benchmark's ingest
//! shape) adds under the default configuration: the memtable's column
//! pair and the rollup tiers' open frames, plus each sensor's map
//! entries — a few hundred bytes, not a tree node per sensor and tier.
//!
//! One test per binary: the allocator's counters are process-wide.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::time::NS_PER_SEC;
use dcdb_common::topic::Topic;
use dcdb_storage::{DurableBackend, DurableConfig, FsyncPolicy, StorageEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SENSORS: usize = 3_200;
/// Live heap one sensor may add: its memtable columns, one open frame
/// per default tier and its share of the topic maps.
const BYTES_PER_SENSOR: usize = 600;

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn a_sensor_seen_once_costs_one_small_record() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("dcdb-sensor-footprint-{}", std::process::id())));
    std::fs::remove_dir_all(&dir.0).ok();
    let config = DurableConfig {
        fsync: FsyncPolicy::Never,
        ..DurableConfig::default()
    };
    let db = DurableBackend::open(&dir.0, config).unwrap();
    // The topics are the caller's: parsed before the count starts, the
    // engine holds shared references to them.
    let topics: Vec<Topic> = (0..SENSORS)
        .map(|n| Topic::parse(&format!("/r{:02}/n{:03}/power", n / 100, n % 100)).unwrap())
        .collect();
    let base = LIVE.load(Ordering::Relaxed);
    for (n, topic) in topics.iter().enumerate() {
        let batch = ReadingBatch::from_columns(vec![NS_PER_SEC], vec![n as i64]);
        db.insert_columns(topic, &batch).unwrap();
    }
    let per_sensor = (LIVE.load(Ordering::Relaxed) - base) / SENSORS;
    eprintln!("{per_sensor} B of live heap per sensor");
    let e = db.engine_stats();
    assert_eq!(e.seals, 0, "{e:?}");
    assert!(
        per_sensor <= BYTES_PER_SENSOR,
        "{per_sensor} B of live heap per sensor after one reading each to {SENSORS} \
         sensors; the bound is {BYTES_PER_SENSOR} B"
    );
}
