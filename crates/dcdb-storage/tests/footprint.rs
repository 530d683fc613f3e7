//! The engine's memory follows what is still open, not how long it has
//! run. A counting global allocator watches 256 sensors ingest 1 Hz data
//! through 20 seals and several compactions:
//!
//! * after every insert, the hot rollup frames are at most one open
//!   bucket per sensor and tier plus the buckets touched since the last
//!   seal — sealed frames are served from rollup segments;
//! * after every `maintain`, each tier keeps fewer than
//!   `compact_min_segments` rollup files;
//! * a compaction that merges the whole history holds a few topics'
//!   share of the data at a time, not the history.
//!
//! One test per binary: the allocator's counters are process-wide.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_storage::rollup::RollupSegmentReader;
use dcdb_storage::{DurableBackend, DurableConfig, FsyncPolicy, StdIo, StorageEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
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
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const TOPICS: u64 = 256;
/// Seconds of 1 Hz data per insert call.
const BATCH_S: u64 = 10;
/// Seconds of data per seal: the memtable holds one minute of every sensor.
const SEAL_S: u64 = 60;
const SECONDS: u64 = 1200;
/// The last seals run without `maintain`, so the final explicit
/// compaction merges the whole history.
const UNMAINTAINED_S: u64 = 4 * SEAL_S;
/// Bytes of one reading in memory (timestamp + value).
const READING_BYTES: u64 = 16;

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Rollup files on disk, counted per tier width.
fn rollup_files_per_tier(dir: &Path) -> BTreeMap<u64, usize> {
    let mut per_tier = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rsg") {
            let reader = RollupSegmentReader::open_with(Arc::new(StdIo), &path, &|_| None).unwrap();
            *per_tier.entry(reader.width_ns()).or_insert(0) += 1;
        }
    }
    per_tier
}

#[test]
fn memory_follows_open_data_not_history() {
    let dir = TempDir(std::env::temp_dir().join(format!("dcdb-footprint-{}", std::process::id())));
    std::fs::remove_dir_all(&dir.0).ok();
    let config = DurableConfig {
        fsync: FsyncPolicy::Never,
        memtable_max_readings: (TOPICS * SEAL_S) as usize,
        compact_min_segments: 4,
        ..DurableConfig::default()
    };
    let min_segments = config.compact_min_segments;
    let widths: Vec<u64> = config.rollup.tiers.iter().map(|t| t.width_ns).collect();
    let db = DurableBackend::open(&dir.0, config).unwrap();
    let topics: Vec<Topic> = (0..TOPICS)
        .map(|n| Topic::parse(&format!("/r0/n{n:03}/power")).unwrap())
        .collect();

    // (topic, tier width, bucket) touched since the last seal.
    let mut touched: HashSet<(u64, u64, u64)> = HashSet::new();
    let mut seals = 0;
    for start in (0..SECONDS).step_by(BATCH_S as usize) {
        for (n, topic) in topics.iter().enumerate() {
            let ts: Vec<u64> = (start..start + BATCH_S)
                .map(|s| (s + 1) * NS_PER_SEC)
                .collect();
            let values = ts
                .iter()
                .map(|t| (t / NS_PER_SEC) as i64 + n as i64)
                .collect();
            for &t in &ts {
                for &w in &widths {
                    touched.insert((n as u64, w, t - t % w));
                }
            }
            db.insert_columns(topic, &ReadingBatch::from_columns(ts, values))
                .unwrap();
            // A seal the insert queued runs on the maintenance thread.
            db.settle().unwrap();
            let e = db.engine_stats();
            if e.seals > seals {
                // A seal ends the call: nothing was dirtied after it.
                seals = e.seals;
                touched.clear();
            }
            let open = TOPICS as usize * widths.len();
            assert!(
                e.rollup_hot_frames <= open + touched.len(),
                "{} hot frames, {open} open buckets, {} touched since the seal",
                e.rollup_hot_frames,
                touched.len()
            );
        }
        let now = start + BATCH_S;
        if now.is_multiple_of(SEAL_S) && now <= SECONDS - UNMAINTAINED_S {
            db.maintain(Timestamp::from_secs(now)).unwrap();
            db.settle().unwrap();
            for (width, files) in rollup_files_per_tier(&dir.0) {
                assert!(
                    files <= min_segments,
                    "{files} files in the {width} ns tier"
                );
            }
        }
    }
    let e = db.engine_stats();
    assert!(e.seals >= 8, "{e:?}");
    assert!(e.compactions >= 2, "{e:?}");
    assert!(e.sealed_segments >= min_segments, "{e:?}");

    // Merge the whole history in one pass and watch the heap meanwhile.
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    assert!(db.compact().unwrap());
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let per_topic = SECONDS * READING_BYTES;
    let history = TOPICS * per_topic;
    assert!(
        (peak as u64) < 8 * per_topic,
        "compaction peaked at {peak} B of live heap; one topic's share is {per_topic} B, \
         the history {history} B"
    );
    let all = db.query(&topics[7], Timestamp::ZERO, Timestamp::MAX);
    assert_eq!(all.len() as u64, SECONDS);
    assert_eq!(db.engine_stats().sealed_segments, 1);
}
