//! The sensor cache's sequence stamp under real threads: one writer and
//! two readers over a ring of eight, which wraps on almost every write.
//! Every window a reader copies out must be one the writer stored at
//! some instant — no longer than the ring, consecutive in time, and each
//! value the one its timestamp encodes.

use dcdb_common::{SensorCache, SensorReading, Timestamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const CAP: usize = 8;
const STEP_NS: u64 = 1_000;
const WRITES: u64 = 1_000_000;

fn value_of(ts: u64) -> i64 {
    (ts as i64).wrapping_mul(7) ^ 0x5A5A
}

fn reading(k: u64) -> SensorReading {
    let ts = k * STEP_NS;
    SensorReading::new(value_of(ts), Timestamp(ts))
}

/// Holds one copied window to what the writer can have stored.
fn check(window: &[SensorReading], oldest: Option<Timestamp>, what: &str) {
    assert!(window.len() <= CAP, "{what}: {} readings", window.len());
    if let (Some(first), Some(oldest)) = (window.first(), oldest) {
        assert!(
            oldest <= first.ts,
            "{what}: oldest {oldest:?} after {first:?}"
        );
    }
    for r in window {
        assert_eq!(r.value, value_of(r.ts.as_nanos()), "{what}: torn {r:?}");
    }
    for pair in window.windows(2) {
        assert_eq!(
            pair[1].ts.as_nanos(),
            pair[0].ts.as_nanos() + STEP_NS,
            "{what}: not consecutive {pair:?}"
        );
    }
}

#[test]
fn readers_copy_only_windows_the_writer_stored() {
    let cache = SensorCache::new(CAP);
    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    let (newest, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            start.wait();
            let mut k = 1;
            while k <= WRITES {
                // Single pushes, whole batches in one write, and a stale
                // reading the cache must refuse without storing.
                if k % 3 == 0 {
                    let batch = (k..k + 5).map(reading);
                    assert_eq!(cache.push_all(batch.chain([reading(k)])), 1);
                    k += 5;
                } else {
                    cache.push(reading(k));
                    k += 1;
                }
            }
            done.store(true, Ordering::Release);
            k - 1
        });
        let readers: Vec<_> = (0..2u64)
            .map(|seed| {
                let (cache, start, done) = (&cache, &start, &done);
                s.spawn(move || {
                    start.wait();
                    let mut out = Vec::new();
                    let (mut reads, mut state) = (0u64, seed + 1);
                    loop {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let oldest = cache.read_relative(0, &mut out);
                        check(&out, oldest, "latest");
                        assert!(out.len() <= 1);
                        let offset = (state >> 33) % (12 * STEP_NS);
                        let oldest = cache.read_relative(offset, &mut out);
                        check(&out, oldest, "relative");
                        let newest = out.last().map_or(0, |r| r.ts.as_nanos());
                        let t0 = newest.saturating_sub((state >> 40) % (10 * STEP_NS));
                        let t1 = t0 + (state >> 20) % (10 * STEP_NS);
                        let oldest = cache.read_absolute(Timestamp(t0), Timestamp(t1), &mut out);
                        check(&out, oldest, "absolute");
                        for r in &out {
                            assert!((t0..=t1).contains(&r.ts.as_nanos()), "absolute: {r:?}");
                        }
                        reads += 3;
                        if done.load(Ordering::Acquire) {
                            break reads;
                        }
                    }
                })
            })
            .collect();
        let reads = readers
            .into_iter()
            .map(|reader| reader.join().expect("reader"))
            .sum::<u64>();
        (writer.join().expect("writer"), reads)
    });
    assert!(reads > 0);
    assert_eq!(cache.len(), CAP);
    let mut out = Vec::new();
    cache.read_absolute(Timestamp::ZERO, Timestamp::MAX, &mut out);
    check(&out, None, "final");
    assert_eq!(out.last().unwrap().ts, Timestamp(newest * STEP_NS));
}
