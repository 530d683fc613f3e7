//! The sealed-file container shared by raw and rollup segments.
//!
//! A sealed file is immutable: one CRC'd block per topic, back to back,
//! then a per-topic index and a CRC'd trailer. The two segment kinds
//! differ only in their magic pair, an opaque fixed-size header
//! extension, and what a block's bytes and its `[min_key, max_key]`
//! mean — [`crate::segment`] stores Gorilla blocks keyed by timestamp,
//! [`crate::rollup`] stores frame blocks keyed by bucket start behind an
//! 8-byte `width_ns` extension.
//!
//! ```text
//! [8B magic] [header extension: 0 B raw | 8 B rollup]
//! block*:   block bytes, back to back
//! index:    [u32 topic_count]
//!           topic_count × { [u16 topic_len][topic utf-8]
//!                           [u64 offset][u32 len][u32 crc32(block)]
//!                           [u32 count][u64 min_key][u64 max_key] }
//! trailer:  [u64 index_offset][u32 crc32(index)][8B end magic]
//! ```
//!
//! Files are written to `<name>.tmp`, fsynced, renamed into place and
//! the directory fsynced — a crash mid-seal leaves no partial file
//! behind. Readers keep the index in memory and read blocks on demand.

use crate::crc::crc32;
use crate::io::StorageIo;
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::topic::Topic;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `[u64 index_offset][u32 crc32(index)][8B end magic]`.
const TRAILER_LEN: usize = 8 + 4 + 8;
/// Fixed bytes of one index entry, before its (non-empty) topic.
const ENTRY_FIXED: usize = 2 + 8 + 4 + 4 + 4 + 8 + 8;

/// What distinguishes one kind of sealed file from the other.
#[derive(Debug)]
pub struct Format {
    /// Leading file magic.
    pub magic: &'static [u8; 8],
    /// Trailing file magic.
    pub magic_end: &'static [u8; 8],
    /// Bytes of header extension following the leading magic.
    pub ext_len: usize,
    /// Noun used in error messages.
    pub kind: &'static str,
}

/// Where [`SealedFile::open`] finds the [`Topic`] of a name its index
/// lists. A caller that already holds the file's topics (the seal and
/// the merge that wrote it) passes them, so every index shares one
/// allocation per sensor with the memtable, the rollup state and the
/// other files; a name it does not know is parsed.
pub type Names<'a> = &'a dyn Fn(&str) -> Option<Topic>;

/// One topic's encoded block, handed to [`write()`].
pub struct Block<'a> {
    /// The topic the block belongs to.
    pub topic: &'a Topic,
    /// The encoded block.
    pub bytes: Vec<u8>,
    /// Items (readings or frames) the block encodes.
    pub count: u32,
    /// Smallest key in the block.
    pub min_key: u64,
    /// Largest key in the block.
    pub max_key: u64,
}

/// Index entry for one topic's block.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    offset: u64,
    len: u32,
    crc: u32,
    /// Items the block encodes.
    pub count: u32,
    /// Smallest key in the block.
    pub min_key: u64,
    /// Largest key in the block.
    pub max_key: u64,
}

/// Writes a sealed file atomically. `blocks` is consumed lazily, so only
/// one encoded block is in memory at a time; an `Err` among them aborts
/// the file before it is renamed into place.
///
/// On failure the temp file may remain behind — the engine counts (and
/// retries) its removal rather than silently leaking it.
pub fn write<'a>(
    io: &dyn StorageIo,
    path: &Path,
    format: &Format,
    ext: &[u8],
    blocks: impl Iterator<Item = Result<Block<'a>>>,
) -> Result<()> {
    assert_eq!(ext.len(), format.ext_len, "header extension length");
    let tmp = path.with_extension("tmp");
    {
        let mut file = io.create(&tmp)?;
        file.write_all(format.magic)?;
        if !ext.is_empty() {
            file.write_all(ext)?;
        }
        let mut offset = (format.magic.len() + ext.len()) as u64;
        let mut count = 0u32;
        let mut entries = Vec::new();
        for block in blocks {
            let block = block?;
            file.write_all(&block.bytes)?;
            let topic = block.topic.as_str().as_bytes();
            entries.extend_from_slice(&(topic.len() as u16).to_le_bytes());
            entries.extend_from_slice(topic);
            entries.extend_from_slice(&offset.to_le_bytes());
            entries.extend_from_slice(&(block.bytes.len() as u32).to_le_bytes());
            entries.extend_from_slice(&crc32(&block.bytes).to_le_bytes());
            entries.extend_from_slice(&block.count.to_le_bytes());
            entries.extend_from_slice(&block.min_key.to_le_bytes());
            entries.extend_from_slice(&block.max_key.to_le_bytes());
            offset += block.bytes.len() as u64;
            count += 1;
        }
        let mut index = count.to_le_bytes().to_vec();
        index.append(&mut entries);
        file.write_all(&index)?;
        file.write_all(&offset.to_le_bytes())?;
        file.write_all(&crc32(&index).to_le_bytes())?;
        file.write_all(format.magic_end)?;
        file.sync()?;
    }
    io.rename(&tmp, path)?;
    // Fsync the directory so the rename itself is durable.
    if let Some(dir) = path.parent() {
        io.sync_dir(dir)?;
    }
    Ok(())
}

/// Read handle over one sealed file: in-memory index, on-demand
/// checksummed block reads.
pub struct SealedFile {
    io: Arc<dyn StorageIo>,
    path: PathBuf,
    kind: &'static str,
    ext: Vec<u8>,
    index: HashMap<Topic, BlockMeta>,
    max_key: u64,
    items: usize,
}

impl SealedFile {
    /// Opens a sealed file, validating both magics, the trailer and the
    /// index checksum; the handle keeps the VFS for later block reads.
    pub fn open(
        io: Arc<dyn StorageIo>,
        path: &Path,
        format: &Format,
        names: Names<'_>,
    ) -> Result<SealedFile> {
        let kind = format.kind;
        let corrupt = |what: &str| DcdbError::Parse(format!("{kind} {}: {what}", path.display()));
        let file_len = io.file_len(path)?;
        let header_len = format.magic.len() + format.ext_len;
        if file_len < (header_len + TRAILER_LEN) as u64 {
            return Err(corrupt("file too short"));
        }
        let header = io.read_range(path, 0, header_len)?;
        if &header[..format.magic.len()] != format.magic {
            return Err(corrupt("bad leading magic"));
        }
        let index_end = file_len - TRAILER_LEN as u64;
        let trailer = io.read_range(path, index_end, TRAILER_LEN)?;
        if &trailer[12..20] != format.magic_end {
            return Err(corrupt("bad trailing magic"));
        }
        let index_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let index_crc = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
        if index_offset < header_len as u64 || index_offset > index_end {
            return Err(corrupt("index offset out of range"));
        }
        let index_bytes = io.read_range(path, index_offset, (index_end - index_offset) as usize)?;
        if crc32(&index_bytes) != index_crc {
            return Err(corrupt("index checksum mismatch"));
        }

        let mut pos = 0usize;
        let mut take = |n: usize| {
            let s = index_bytes.get(pos..pos.checked_add(n)?)?;
            pos += n;
            Some(s)
        };
        let mut take = |n: usize| take(n).ok_or_else(|| corrupt("truncated index"));
        let count = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        // The count is read from disk: reserve only what the index
        // bytes could encode.
        let mut index = HashMap::with_capacity(count.min(index_bytes.len() / (ENTRY_FIXED + 1)));
        let mut max_key = 0u64;
        let mut items = 0usize;
        for _ in 0..count {
            let topic_len = u16::from_le_bytes(take(2)?.try_into().unwrap()) as usize;
            let name =
                std::str::from_utf8(take(topic_len)?).map_err(|_| corrupt("non-utf8 topic"))?;
            let topic = match names(name) {
                Some(topic) => topic,
                None => Topic::parse(name)?,
            };
            let meta = BlockMeta {
                offset: u64::from_le_bytes(take(8)?.try_into().unwrap()),
                len: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                crc: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                count: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                min_key: u64::from_le_bytes(take(8)?.try_into().unwrap()),
                max_key: u64::from_le_bytes(take(8)?.try_into().unwrap()),
            };
            // Block ranges are read from disk: one outside the block
            // area would size a read of up to 4 GiB before failing.
            let end = meta.offset.checked_add(u64::from(meta.len));
            if meta.offset < header_len as u64 || end.is_none_or(|end| end > index_offset) {
                return Err(corrupt("block out of range"));
            }
            max_key = max_key.max(meta.max_key);
            items += meta.count as usize;
            index.insert(topic, meta);
        }
        if pos != index_bytes.len() {
            return Err(corrupt("index has trailing bytes"));
        }
        Ok(SealedFile {
            io,
            path: path.to_path_buf(),
            kind,
            ext: header[format.magic.len()..].to_vec(),
            index,
            max_key,
            items,
        })
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The header extension bytes.
    pub fn ext(&self) -> &[u8] {
        &self.ext
    }

    /// Topics indexed by this file.
    pub fn topics(&self) -> impl Iterator<Item = &Topic> {
        self.index.keys()
    }

    /// This file's `Topic` named `name`, if it holds a block for it.
    pub fn topic(&self, name: &str) -> Option<Topic> {
        self.index
            .get_key_value(name)
            .map(|(topic, _)| topic.clone())
    }

    /// The index entry of `topic`'s block, if the file holds one.
    pub fn meta(&self, topic: &Topic) -> Option<&BlockMeta> {
        self.index.get(topic)
    }

    /// Total items across all blocks.
    pub fn item_count(&self) -> usize {
        self.items
    }

    /// The largest key in the file; `None` when it holds no block.
    pub fn max_key(&self) -> Option<u64> {
        (!self.index.is_empty()).then_some(self.max_key)
    }

    /// Reads and CRC-checks the block `meta` (one of this file's own
    /// index entries, for `topic`) points at.
    pub fn read_block(&self, topic: &Topic, meta: &BlockMeta) -> Result<Vec<u8>> {
        let block = self
            .io
            .read_range(&self.path, meta.offset, meta.len as usize)?;
        if crc32(&block) != meta.crc {
            return Err(DcdbError::Parse(format!(
                "{} {}: block checksum mismatch for {topic}",
                self.kind,
                self.path.display()
            )));
        }
        Ok(block)
    }
}

impl std::fmt::Debug for SealedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedFile")
            .field("kind", &self.kind)
            .field("path", &self.path)
            .field("topics", &self.index.len())
            .field("items", &self.items)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::StdIo;
    use crate::rollup::{write_rollup_segment_with, AggFrame, RollupSegmentReader};
    use crate::segment::{write_segment_with, SegmentReader};
    use dcdb_common::batch::ReadingBatch;
    use dcdb_common::time::NS_PER_SEC;

    const BASE: u64 = 1_700_000_000 * NS_PER_SEC;
    const WIDTH: u64 = 10 * NS_PER_SEC;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcdb-sealed-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes the fixed raw segment the golden hash was taken from.
    fn write_raw(path: &Path) {
        let power = ReadingBatch::from_columns(
            (0..300)
                .map(|i| BASE + i * NS_PER_SEC + i % 7 * 1_000)
                .collect(),
            (0..300).map(|i| 100_000 + i * 3 - i % 5 * 11).collect(),
        );
        let temp = ReadingBatch::from_columns(
            (0..40).map(|i| BASE + i * i * 17).collect(),
            (0..40).map(|i| -i * 1_000_003).collect(),
        );
        let entries = [
            (t("/r0/n0/power"), power),
            (t("/r0/n1/empty"), ReadingBatch::new()),
            (t("/r0/n1/temp"), temp),
        ];
        let entries = entries.iter().map(|(topic, batch)| Ok((topic, batch)));
        write_segment_with(&StdIo, path, entries).unwrap();
    }

    /// Writes the fixed rollup segment the golden hash was taken from.
    fn write_rollup(path: &Path) {
        let power = (0..50u64)
            .map(|i| {
                let mut f = AggFrame::seed(i * WIDTH, i * WIDTH + 1, i as i64 * 3 - 11);
                f.observe(i * WIDTH + 5, -(i as i64));
                f
            })
            .collect();
        let temp = vec![
            AggFrame::seed(7 * WIDTH, 7 * WIDTH + 3, i64::MIN),
            AggFrame::seed(9 * WIDTH, 9 * WIDTH + 1, i64::MAX),
        ];
        let entries = [
            (t("/r0/n0/power"), power),
            (t("/r0/n1/empty"), Vec::new()),
            (t("/r0/n1/temp"), temp),
        ];
        let entries = entries.iter().map(|(topic, frames)| Ok((topic, frames)));
        write_rollup_segment_with(&StdIo, path, WIDTH, entries).unwrap();
    }

    /// Reads the first topic's whole block through the typed reader.
    fn read_raw(path: &Path) -> Result<()> {
        let seg = SegmentReader::open_with(Arc::new(StdIo), path, &|_| None)?;
        seg.read_topic(&t("/r0/n0/power")).map(drop)
    }

    fn read_rollup(path: &Path) -> Result<()> {
        let seg = RollupSegmentReader::open_with(Arc::new(StdIo), path, &|_| None)?;
        seg.query(&t("/r0/n0/power"), 0, u64::MAX).map(drop)
    }

    /// The bytes both writers emitted for these inputs at the commit
    /// before the container was shared (PR 12): a data directory
    /// written by any earlier build opens unchanged.
    #[test]
    fn file_bytes_match_the_pre_container_writers() {
        let dir = temp_dir("golden");
        let raw = dir.join("seg-0000000001.seg");
        write_raw(&raw);
        let bytes = std::fs::read(&raw).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (1013, 0x6306_2403));
        let rollup = dir.join("rlu-0000000002.rsg");
        write_rollup(&rollup);
        let bytes = std::fs::read(&rollup).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (1344, 0xb7e6_93c8));
        // Nothing but the two renamed files is left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed block pull aborts the file: the error comes back and
    /// nothing is renamed into place.
    #[test]
    fn an_error_among_the_blocks_publishes_nothing() {
        let dir = temp_dir("abort");
        let path = dir.join("seg-0000000001.seg");
        let topic = t("/r0/n0/power");
        let batch = ReadingBatch::from_columns(vec![1, 2], vec![3, 4]);
        let entries = [
            Ok((&topic, &batch)),
            Err(DcdbError::Parse("read failed".into())),
        ];
        let err = write_segment_with(&StdIo, &path, entries).unwrap_err();
        assert!(err.to_string().contains("read failed"), "{err}");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Splits a sealed file into `(header + blocks, index)`.
    fn split(bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let index_end = bytes.len() - TRAILER_LEN;
        let index_offset = u64::from_le_bytes(bytes[index_end..index_end + 8].try_into().unwrap());
        let (body, index) = bytes[..index_end].split_at(index_offset as usize);
        (body.to_vec(), index.to_vec())
    }

    /// Reassembles a sealed file around a (forged) body and index with
    /// a trailer whose offset and checksum are valid for them.
    fn join(body: &[u8], index: &[u8], format: &Format) -> Vec<u8> {
        let mut out = [body, index].concat();
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(index).to_le_bytes());
        out.extend_from_slice(format.magic_end);
        out
    }

    /// Every way the container refuses a file, once, for both kinds.
    #[test]
    fn malformed_files_are_rejected_for_both_kinds() {
        let dir = temp_dir("reject");
        type Kind = (&'static Format, fn(&Path), fn(&Path) -> Result<()>);
        let kinds: [Kind; 2] = [
            (&crate::segment::FORMAT, write_raw, read_raw),
            (&crate::rollup::FORMAT, write_rollup, read_rollup),
        ];
        for (format, write_good, read_first) in kinds {
            let path = dir.join("victim");
            write_good(&path);
            read_first(&path).unwrap();
            let good = std::fs::read(&path).unwrap();
            let (body, index) = split(&good);
            assert_eq!(join(&body, &index, format), good);
            let header_len = format.magic.len() + format.ext_len;
            let open = |bytes: &[u8]| {
                std::fs::write(&path, bytes).unwrap();
                SealedFile::open(Arc::new(StdIo), &path, format, &|_| None)
            };
            let refused = |bytes: &[u8], why: &str| {
                let err = open(bytes).expect_err(why).to_string();
                assert!(
                    err.contains(format.kind) && err.contains(why),
                    "{err:?} lacks {why:?}"
                );
            };
            let flipped = |at: usize| {
                let mut bytes = good.clone();
                bytes[at] ^= 0xFF;
                bytes
            };
            let with_index_offset = |offset: u64| {
                let mut bytes = good.clone();
                let at = bytes.len() - TRAILER_LEN;
                bytes[at..at + 8].copy_from_slice(&offset.to_le_bytes());
                bytes
            };

            refused(b"garbage", "file too short");
            refused(&good[..header_len + TRAILER_LEN - 1], "file too short");
            refused(&[0u8; 64], "bad leading magic");
            refused(&flipped(0), "bad leading magic");
            refused(&flipped(good.len() - 1), "bad trailing magic");
            refused(&with_index_offset(header_len as u64 - 1), "out of range");
            refused(&with_index_offset(good.len() as u64), "out of range");
            refused(&flipped(body.len() + 2), "index checksum mismatch");
            // Forged indexes behind a valid checksum.
            let truncated = &index[..index.len() - 1];
            refused(&join(&body, truncated, format), "truncated index");
            let trailing = [&index[..], &[0]].concat();
            refused(&join(&body, &trailing, format), "trailing bytes");
            // A topic count far beyond what the index bytes can hold
            // must fail the parse, not size an allocation.
            let mut huge = index.clone();
            huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            refused(&join(&body, &huge, format), "truncated index");
            // A block range outside the block area must fail the open,
            // not size a read.
            let (bad, ok) = (t("/r0/n0/power"), t("/r0/n1/temp"));
            let entry = 4 + 2 + bad.as_str().len() + 8; // [u32 len][u32 crc]
            let forged = |at: usize, bytes: &[u8]| {
                let mut forged = index.clone();
                forged[at..at + bytes.len()].copy_from_slice(bytes);
                join(&body, &forged, format)
            };
            let overlong = forged(entry, &u32::MAX.to_le_bytes());
            refused(&overlong, "block out of range");
            let into_header = forged(entry - 8, &0u64.to_le_bytes());
            refused(&into_header, "block out of range");
            let wrapping = forged(entry - 8, &u64::MAX.to_le_bytes());
            refused(&wrapping, "block out of range");

            // A damaged block leaves the index valid: the file opens,
            // the block read fails its checksum, other blocks still read.
            let file = open(&flipped(header_len + 2)).unwrap();
            let err = file.read_block(&bad, file.meta(&bad).unwrap());
            assert!(err.unwrap_err().to_string().contains("block checksum"));
            assert!(file.read_block(&ok, file.meta(&ok).unwrap()).is_ok());
            assert!(file.meta(&t("/r0/n1/empty")).is_none());

            // An item count forged inside the first block, with the
            // block's checksum in the index and the index's in the
            // trailer recomputed to match, must surface as a parse
            // error from the typed reader — not size an allocation.
            let len = u32::from_le_bytes(index[entry..entry + 4].try_into().unwrap()) as usize;
            let (mut body, mut index) = (body.clone(), index.clone());
            body[header_len..header_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let crc = crc32(&body[header_len..header_len + len]);
            index[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, join(&body, &index, format)).unwrap();
            assert!(matches!(read_first(&path), Err(DcdbError::Parse(_))));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
