//! Stage replay: leaf functions no trait seam exposes inside the
//! composed run are measured by feeding the inputs captured at their
//! boundary to the public function alone — one warm-up repetition, then
//! timed repetitions, reporting the median (and printing the MAD).

use crate::metrics::Values;
use crate::stats;
use bytes::Bytes;
use dcdb_bus::decode_batch;
use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::Result;
use dcdb_common::topic::Topic;
use dcdb_rest::RequestParser;
use dcdb_storage::compress::{compress_columns, decompress_columns};
use dcdb_storage::io::IoFile;
use dcdb_storage::rollup::RollupState;
use dcdb_storage::wal::WalWriter;
use dcdb_storage::{FsyncPolicy, RollupConfig, StorageBackend, StorageIo};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wintermute::prelude::QueryEngine;

const REPS: usize = 7;

/// Runs `run` over a freshly `prepare`d input `REPS + 1` times (the
/// first untimed) and returns the median nanoseconds per item.
fn replay<I>(
    label: &str,
    items: u64,
    mut prepare: impl FnMut(u64) -> I,
    mut run: impl FnMut(I),
) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let mut per_item = Vec::with_capacity(REPS);
    for rep in 0..=REPS as u64 {
        let input = prepare(rep);
        let start = Instant::now();
        run(input);
        let ns = start.elapsed().as_nanos() as f64;
        if rep > 0 {
            per_item.push(ns / items as f64);
        }
    }
    let median = stats::median(&per_item);
    eprintln!(
        "  replay {label:<36} {median:>9.1} ns/item  (MAD {:.1}, {REPS} reps x {items} items)",
        stats::mad(&per_item)
    );
    median
}

/// Captured inserts with every timestamp moved `rep` periods forward,
/// so each repetition appends in order the way live ingest does.
fn shifted(inserts: &[(Topic, ReadingBatch)], rep: u64) -> Vec<(Topic, ReadingBatch)> {
    const PERIOD_NS: u64 = 1_000_000_000_000;
    inserts
        .iter()
        .map(|(topic, batch)| {
            let ts = batch.ts.iter().map(|t| t + rep * PERIOD_NS).collect();
            (
                topic.clone(),
                ReadingBatch::from_columns(ts, batch.values.clone()),
            )
        })
        .collect()
}

/// A [`StorageIo`] that accepts and discards every byte, so a replayed
/// WAL append costs its record assembly and checksum, not the disk.
#[derive(Debug)]
struct NullIo;

struct NullFile;

impl IoFile for NullFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        black_box(buf);
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
    fn truncate(&mut self, _len: u64) -> Result<()> {
        Ok(())
    }
}

impl StorageIo for NullIo {
    fn create(&self, _path: &Path) -> Result<Box<dyn IoFile>> {
        Ok(Box::new(NullFile))
    }
    fn open_append(&self, _path: &Path, _truncate_to: u64) -> Result<Box<dyn IoFile>> {
        Ok(Box::new(NullFile))
    }
    fn read(&self, _path: &Path) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }
    fn read_range(&self, _path: &Path, _offset: u64, len: usize) -> Result<Vec<u8>> {
        Ok(vec![0; len])
    }
    fn file_len(&self, _path: &Path) -> Result<u64> {
        Ok(0)
    }
    fn rename(&self, _from: &Path, _to: &Path) -> Result<()> {
        Ok(())
    }
    fn remove(&self, _path: &Path) -> Result<()> {
        Ok(())
    }
    fn list(&self, _dir: &Path) -> Result<Vec<PathBuf>> {
        Ok(Vec::new())
    }
    fn create_dir_all(&self, _dir: &Path) -> Result<()> {
        Ok(())
    }
    fn sync_dir(&self, _dir: &Path) -> Result<()> {
        Ok(())
    }
}

/// Replays the write path's leaves on what the bus and storage seams
/// captured: frame decode, cache insert, WAL record assembly, memtable
/// insert and rollup fold.
pub fn write_stages(
    frames: &[Bytes],
    inserts: &[(Topic, ReadingBatch)],
    cache_slots: usize,
) -> Values {
    let mut out = Values::default();
    let readings: u64 = inserts.iter().map(|(_, b)| b.len() as u64).sum();

    let framed: u64 = frames
        .iter()
        .map(|f| decode_batch(f.clone()).map_or(0, |b| b.len() as u64))
        .sum();
    out.set(
        "bus.decode_ns_per_reading",
        replay(
            "decode_batch",
            framed,
            |_| frames.to_vec(),
            |frames| {
                for frame in frames {
                    black_box(decode_batch(frame).expect("captured frame decodes"));
                }
            },
        ),
    );

    let cache = QueryEngine::new(cache_slots);
    out.set(
        "cache.insert_ns_per_reading",
        replay(
            "QueryEngine::insert_columns (cache only)",
            readings,
            |rep| shifted(inserts, rep),
            |inserts| {
                for (topic, batch) in &inserts {
                    cache.insert_columns(topic, batch);
                }
            },
        ),
    );

    let mut wal = WalWriter::create_with(&NullIo, Path::new("replay.wal"), FsyncPolicy::Never)
        .expect("null WAL");
    out.set(
        "storage.wal_append_ns_per_reading",
        replay(
            "WalWriter::append_batch (null file)",
            readings,
            |rep| shifted(inserts, rep),
            |inserts| {
                for (topic, batch) in &inserts {
                    wal.append_batch(topic, batch).expect("null append");
                }
            },
        ),
    );

    let memtable = StorageBackend::new();
    out.set(
        "storage.memtable_insert_ns_per_reading",
        replay(
            "StorageBackend::insert_columns",
            readings,
            |rep| shifted(inserts, rep),
            |inserts| {
                for (topic, batch) in &inserts {
                    memtable.insert_columns(topic, batch);
                }
            },
        ),
    );

    let mut rollup = RollupState::new(&RollupConfig::default());
    out.set(
        "storage.rollup_fold_ns_per_reading",
        replay(
            "RollupState::apply",
            readings,
            |rep| {
                shifted(inserts, rep)
                    .into_iter()
                    .map(|(topic, batch)| {
                        let pairs: Vec<(u64, i64)> =
                            batch.ts.iter().copied().zip(batch.values).collect();
                        (topic, pairs)
                    })
                    .collect::<Vec<_>>()
            },
            |inserts| {
                for (topic, pairs) in &inserts {
                    // In-order data never asks for the raw truth.
                    rollup.apply(topic, pairs, |_, _| Vec::new());
                }
            },
        ),
    );
    out
}

/// Replays the segment codec on blocks shaped like the ones a seal
/// writes: `block_len` consecutive readings of one monotonic counter
/// sampled every `dt_ns`.
pub fn codec_stages(blocks: usize, block_len: usize, dt_ns: u64) -> Values {
    let mut out = Values::default();
    let columns: Vec<(Vec<u64>, Vec<i64>)> = (0..blocks as u64)
        .map(|b| {
            let first = 1 + b * block_len as u64;
            let ks = first..first + block_len as u64;
            (
                ks.clone().map(|k| k * dt_ns).collect(),
                ks.map(|k| k as i64).collect(),
            )
        })
        .collect();
    let readings = (blocks * block_len) as u64;
    out.set(
        "storage.compress_ns_per_reading",
        replay(
            "compress_columns",
            readings,
            |_| (),
            |()| {
                for (ts, values) in &columns {
                    black_box(compress_columns(ts, values));
                }
            },
        ),
    );
    let compressed: Vec<Vec<u8>> = columns
        .iter()
        .map(|(ts, values)| compress_columns(ts, values))
        .collect();
    out.set(
        "storage.compressed_bytes_per_reading",
        compressed.iter().map(Vec::len).sum::<usize>() as f64 / readings.max(1) as f64,
    );
    out.set(
        "storage.decompress_ns_per_reading",
        replay(
            "decompress_columns",
            readings,
            |_| (),
            |()| {
                for block in &compressed {
                    black_box(decompress_columns(block).expect("own block decodes"));
                }
            },
        ),
    );
    out
}

/// The bytes `dcdb_rest::http_request` puts on the wire for a `GET`.
pub fn request_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: dcdb\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
        .into_bytes()
}

/// Replays `RequestParser::feed` on the request heads a run sent.
pub fn parse_stage(paths: &[String]) -> Values {
    let mut out = Values::default();
    let requests: Vec<Vec<u8>> = paths.iter().map(|p| request_bytes(p)).collect();
    out.set(
        "rest.parse_ns_per_request",
        replay(
            "RequestParser::feed",
            requests.len() as u64,
            |_| (),
            |()| {
                for bytes in &requests {
                    let parsed = RequestParser::new().feed(bytes);
                    black_box(parsed.expect("well-formed request"));
                }
            },
        ),
    );
    out
}
