//! Immutable sealed segment files.
//!
//! When the engine's memtable fills (or a flush is requested), its
//! contents are written out as one *segment*: a sealed file (see
//! [`crate::sealed`] for the container layout, shared with rollup segments)
//! holding every sensor's readings as one compressed block
//! ([`crate::compress`]), indexed by topic and `[min_ts, max_ts]`.
//! Queries open the index once at startup and then read only the blocks
//! that can contain the requested topic and window.

use crate::compress::{compress_columns, decompress_columns, BlockCursor};
use crate::io::StorageIo;
use crate::sealed::{self, Block, Format, SealedFile};
use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::Result;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use std::borrow::Borrow;
use std::path::Path;
use std::sync::Arc;

pub(crate) const FORMAT: Format = Format {
    magic: b"DCDBSEG1",
    magic_end: b"DCDBSEGE",
    ext_len: 0,
    kind: "segment",
};

/// Writes a segment file from per-topic columns, pulling one topic at a
/// time: a caller that builds each batch on demand holds one topic's
/// readings, never the whole file's.
///
/// `entries` must contain each batch sorted by timestamp (the memtable
/// guarantees this); topics may come in any order and empty batches are
/// skipped. See [`sealed::write`] for the failure contract.
pub fn write_segment_with<'a, B: Borrow<ReadingBatch>>(
    io: &dyn StorageIo,
    path: &Path,
    entries: impl IntoIterator<Item = Result<(&'a Topic, B)>>,
) -> Result<()> {
    let blocks = entries.into_iter().filter_map(|entry| {
        entry
            .map(|(topic, batch)| {
                let batch = batch.borrow();
                Some(Block {
                    topic,
                    bytes: compress_columns(&batch.ts, &batch.values),
                    count: batch.len() as u32,
                    min_key: *batch.ts.first()?,
                    max_key: *batch.ts.last()?,
                })
            })
            .transpose()
    });
    sealed::write(io, path, &FORMAT, &[], blocks)
}

/// Read handle over one sealed segment.
#[derive(Debug)]
pub struct SegmentReader {
    file: SealedFile,
}

impl AsRef<SealedFile> for SegmentReader {
    fn as_ref(&self) -> &SealedFile {
        &self.file
    }
}

impl SegmentReader {
    /// Opens a segment over `io`, validating magics and the index
    /// checksum.
    pub fn open_with(io: Arc<dyn StorageIo>, path: &Path) -> Result<SegmentReader> {
        Ok(SegmentReader {
            file: SealedFile::open(io, path, &FORMAT)?,
        })
    }

    /// Topics indexed by this segment.
    pub fn topics(&self) -> impl Iterator<Item = &Topic> {
        self.file.topics()
    }

    /// True when this segment holds data for `topic`.
    pub fn contains(&self, topic: &Topic) -> bool {
        self.file.meta(topic).is_some()
    }

    /// Newest timestamp indexed for `topic`, without touching the block.
    pub fn block_max_ts(&self, topic: &Topic) -> Option<Timestamp> {
        self.file.meta(topic).map(|m| Timestamp(m.max_key))
    }

    /// Oldest timestamp indexed for `topic`, without touching the block.
    pub fn block_min_ts(&self, topic: &Topic) -> Option<Timestamp> {
        self.file.meta(topic).map(|m| Timestamp(m.min_key))
    }

    /// Total readings across all blocks.
    pub fn reading_count(&self) -> usize {
        self.file.item_count()
    }

    /// Newest timestamp in the segment; `None` when empty.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.file.max_key().map(Timestamp)
    }

    /// Readings stored for `topic` in this segment (whole block),
    /// timestamp-ordered. `None` when the topic has no block here.
    pub fn read_topic(&self, topic: &Topic) -> Result<Option<ReadingBatch>> {
        let Some(meta) = self.file.meta(topic) else {
            return Ok(None);
        };
        let block = self.file.read_block(topic, meta)?;
        Ok(Some(decompress_columns(&block)?))
    }

    /// Range query against one topic's block, pruned by the indexed
    /// time range before any I/O happens.
    ///
    /// The block is decoded incrementally with a [`BlockCursor`] rather
    /// than materialized whole: readings before `t0` are skipped without
    /// being collected, and decoding stops at the first reading past
    /// `t1` (blocks are timestamp-ordered; the CRC check already vouches
    /// for the undecoded tail).
    pub fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Result<Vec<SensorReading>> {
        let Some(meta) = self.file.meta(topic) else {
            return Ok(Vec::new());
        };
        if t1 < t0 || meta.max_key < t0.as_nanos() || t1.as_nanos() < meta.min_key {
            return Ok(Vec::new());
        }
        let block = self.file.read_block(topic, meta)?;
        let mut cursor = BlockCursor::new(&block)?;
        let mut out = Vec::new();
        while let Some(r) = cursor.next_reading()? {
            if r.ts > t1 {
                break;
            }
            if r.ts >= t0 {
                out.push(r);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::StdIo;
    use std::path::PathBuf;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    fn temp_seg(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dcdb-seg-test-{}-{name}.seg", std::process::id()));
        p
    }

    #[test]
    fn write_open_query_round_trip() {
        let path = temp_seg("roundtrip");
        let entries = [
            (t("/n0/power"), (1..=100).map(|i| r(i, i as u64)).collect()),
            (t("/n1/temp"), (50..=80).map(|i| r(-i, i as u64)).collect()),
        ];
        let pulled = entries.iter().map(|(topic, batch)| Ok((topic, batch)));
        write_segment_with(&StdIo, &path, pulled).unwrap();
        let seg = SegmentReader::open_with(Arc::new(StdIo), &path).unwrap();
        assert_eq!(seg.reading_count(), 131);
        assert!(seg.contains(&t("/n0/power")));
        assert!(!seg.contains(&t("/nope")));
        assert_eq!(
            seg.block_min_ts(&t("/n1/temp")),
            Some(Timestamp::from_secs(50))
        );
        assert_eq!(seg.max_ts(), Some(Timestamp::from_secs(100)));
        let q = seg
            .query(
                &t("/n0/power"),
                Timestamp::from_secs(10),
                Timestamp::from_secs(12),
            )
            .unwrap();
        assert_eq!(
            q.iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        // Out-of-range queries are pruned by the index alone.
        assert!(seg
            .query(&t("/n0/power"), Timestamp::from_secs(200), Timestamp::MAX)
            .unwrap()
            .is_empty());
        assert_eq!(
            seg.read_topic(&t("/n1/temp")).unwrap(),
            Some(entries[1].1.clone())
        );
        assert!(seg.read_topic(&t("/nope")).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_runs_are_skipped() {
        let path = temp_seg("empty-runs");
        let entries = [
            (t("/a/b"), ReadingBatch::new()),
            (t("/c/d"), ReadingBatch::from_columns(vec![1], vec![1])),
        ];
        let pulled = entries.iter().map(|(topic, batch)| Ok((topic, batch)));
        write_segment_with(&StdIo, &path, pulled).unwrap();
        let seg = SegmentReader::open_with(Arc::new(StdIo), &path).unwrap();
        assert!(!seg.contains(&t("/a/b")));
        assert_eq!(seg.reading_count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
