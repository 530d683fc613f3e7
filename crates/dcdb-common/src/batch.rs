//! Columnar reading batches: the hot-path unit of bulk ingest.
//!
//! A [`ReadingBatch`] carries the same samples as a `&[SensorReading]`
//! but in structure-of-arrays form — one packed `u64` timestamp column
//! and one packed `i64` value column. The whole ingest pipeline (bus
//! frames, the Collect Agent loop, the WAL journal, the Gorilla codec)
//! moves these columns without re-interleaving, which buys two things:
//!
//! * **serialization is memcpy**: a column of `n` little-endian words
//!   is one `extend_from_slice` of `n * 8` bytes instead of `n` 8-byte
//!   appends, so journaling and frame encoding stop being per-reading
//!   loops;
//! * **codecs see contiguous lanes**: delta / zig-zag passes run over
//!   plain integer slices in chunked loops the compiler can vectorize.
//!
//! Row-major views remain available ([`ReadingBatch::iter`],
//! [`ReadingBatch::to_readings`]) for the query side, which still
//! thinks in `(value, ts)` pairs.

use crate::error::DcdbError;
use crate::reading::SensorReading;
use crate::time::Timestamp;

/// A columnar batch of sensor readings for one topic.
///
/// Invariant: `ts.len() == values.len()`. Order is whatever the
/// producer pushed — like `&[SensorReading]`, the batch itself imposes
/// no sortedness (storage keeps partitions sorted on insert).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadingBatch {
    /// Timestamp column, nanoseconds.
    pub ts: Vec<u64>,
    /// Value column.
    pub values: Vec<i64>,
}

impl ReadingBatch {
    /// An empty batch.
    pub fn new() -> ReadingBatch {
        ReadingBatch::default()
    }

    /// An empty batch with room for `n` readings per column.
    pub fn with_capacity(n: usize) -> ReadingBatch {
        ReadingBatch {
            ts: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Builds a batch from parallel columns.
    ///
    /// # Panics
    /// When the columns differ in length.
    pub fn from_columns(ts: Vec<u64>, values: Vec<i64>) -> ReadingBatch {
        assert_eq!(ts.len(), values.len(), "column length mismatch");
        ReadingBatch { ts, values }
    }

    /// Transposes a row-major slice into columns.
    pub fn from_readings(readings: &[SensorReading]) -> ReadingBatch {
        ReadingBatch {
            ts: readings.iter().map(|r| r.ts.as_nanos()).collect(),
            values: readings.iter().map(|r| r.value).collect(),
        }
    }

    /// Number of readings.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the batch holds no readings.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends one reading to both columns.
    pub fn push(&mut self, value: i64, ts: Timestamp) {
        self.ts.push(ts.as_nanos());
        self.values.push(value);
    }

    /// The `i`-th reading, row-major.
    pub fn get(&self, i: usize) -> Option<SensorReading> {
        Some(SensorReading::new(
            *self.values.get(i)?,
            Timestamp(*self.ts.get(i)?),
        ))
    }

    /// Clears both columns, keeping capacity (scratch-buffer reuse).
    pub fn clear(&mut self) {
        self.ts.clear();
        self.values.clear();
    }

    /// Row-major iterator over the batch.
    pub fn iter(&self) -> impl Iterator<Item = SensorReading> + '_ {
        self.ts
            .iter()
            .zip(self.values.iter())
            .map(|(&ts, &value)| SensorReading::new(value, Timestamp(ts)))
    }

    /// Re-interleaves the columns into a row-major vector.
    pub fn to_readings(&self) -> Vec<SensorReading> {
        self.iter().collect()
    }

    /// True when the timestamp column is strictly ascending — the shape
    /// in-order samplers produce, which storage exploits as an append
    /// fast path.
    pub fn is_strictly_ascending(&self) -> bool {
        self.ts.windows(2).all(|w| w[0] < w[1])
    }
}

impl FromIterator<SensorReading> for ReadingBatch {
    fn from_iter<I: IntoIterator<Item = SensorReading>>(iter: I) -> ReadingBatch {
        let iter = iter.into_iter();
        let mut batch = ReadingBatch::with_capacity(iter.size_hint().0);
        for r in iter {
            batch.push(r.value, r.ts);
        }
        batch
    }
}

// ---------------------------------------------------------------------------
// Bulk little-endian column serialization.
// ---------------------------------------------------------------------------

/// Appends a `u64` column as little-endian bytes in one memcpy on
/// little-endian targets (a per-word loop elsewhere).
pub fn extend_le_u64s(out: &mut Vec<u8>, column: &[u64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: a `[u64]`'s backing memory is valid, initialized and
        // at least `len * 8` bytes; reinterpreting it as bytes is sound
        // (u8 has no alignment or validity requirements), and on a
        // little-endian target the in-memory order is the wire order.
        let bytes = unsafe {
            std::slice::from_raw_parts(column.as_ptr() as *const u8, std::mem::size_of_val(column))
        };
        out.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    {
        for &x in column {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Appends an `i64` column as little-endian bytes; see [`extend_le_u64s`].
pub fn extend_le_i64s(out: &mut Vec<u8>, column: &[i64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `extend_le_u64s`; i64 and u64 share layout.
        let bytes = unsafe {
            std::slice::from_raw_parts(column.as_ptr() as *const u8, std::mem::size_of_val(column))
        };
        out.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    {
        for &x in column {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// The entry: one `(topic, batch)` on the wire and in the journal.
// ---------------------------------------------------------------------------

/// Bit 31 of an entry's count field marks the columnar layout, the only
/// one written or read.
const COLUMNAR_FLAG: u32 = 1 << 31;

/// Bytes one reading occupies in an entry: its timestamp and its value.
pub const READING_WIRE_SIZE: usize = 16;

/// Appends one entry, all integers little-endian:
///
/// ```text
/// [u16 topic_len] [topic utf-8] [u32 count | 0x8000_0000]
/// [count × u64 ts] [count × i64 value]
/// ```
///
/// A WAL record's payload and an entry of a node frame are this layout
/// byte for byte. Fails, leaving `out` as it was, when the topic does
/// not fit the length field or the count reaches the flag bit.
pub fn push_entry(
    out: &mut Vec<u8>,
    topic: &str,
    ts: &[u64],
    values: &[i64],
) -> Result<(), DcdbError> {
    debug_assert_eq!(ts.len(), values.len());
    let Ok(topic_len) = u16::try_from(topic.len()) else {
        return Err(DcdbError::InvalidState(format!(
            "topic of {} bytes exceeds the entry limit",
            topic.len()
        )));
    };
    let count = match u32::try_from(ts.len()) {
        Ok(count) if count & COLUMNAR_FLAG == 0 => count,
        _ => {
            return Err(DcdbError::InvalidState(format!(
                "entry of {} readings exceeds the count field",
                ts.len()
            )))
        }
    };
    out.extend_from_slice(&topic_len.to_le_bytes());
    out.extend_from_slice(topic.as_bytes());
    out.extend_from_slice(&(count | COLUMNAR_FLAG).to_le_bytes());
    extend_le_u64s(out, ts);
    extend_le_i64s(out, values);
    Ok(())
}

/// One entry as [`read_entry`] found it, borrowed from the bytes: the
/// topic is valid UTF-8 (not yet a parsed [`crate::topic::Topic`]) and
/// both columns are exactly `len()` words long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// The topic bytes, as written.
    pub topic: &'a str,
    ts: &'a [u8],
    values: &'a [u8],
}

impl<'a> EntryRef<'a> {
    /// An entry over a column pair already split off, each `len × 8`
    /// bytes.
    pub fn from_columns(topic: &'a str, ts: &'a [u8], values: &'a [u8]) -> Option<EntryRef<'a>> {
        (ts.len() == values.len() && ts.len().is_multiple_of(8)).then_some(EntryRef {
            topic,
            ts,
            values,
        })
    }

    /// Readings the entry carries.
    pub fn len(&self) -> usize {
        self.ts.len() / 8
    }

    /// True when the entry carries no reading.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends the entry's readings to `batch`.
    pub fn extend_into(&self, batch: &mut ReadingBatch) {
        let n = self.len();
        batch.ts.reserve(n);
        batch.values.reserve(n);
        for chunk in self.ts.chunks_exact(8) {
            batch
                .ts
                .push(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
        for chunk in self.values.chunks_exact(8) {
            batch
                .values
                .push(i64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
    }

    /// The entry's readings as a batch of their own.
    pub fn to_batch(&self) -> ReadingBatch {
        let mut batch = ReadingBatch::with_capacity(self.len());
        self.extend_into(&mut batch);
        batch
    }
}

/// Reads the entry at the start of `data` and returns it with the bytes
/// it spans; bytes after it are the caller's (the next entry of a
/// frame, or a record's end). `None` when the bytes cannot be an entry:
/// too short for a header or for the columns the count declares, a
/// topic that is not UTF-8, or the flag bit clear. Nothing is
/// allocated, so a count field cannot size a reservation.
pub fn read_entry(data: &[u8]) -> Option<(EntryRef<'_>, usize)> {
    let topic_len = u16::from_le_bytes(data.get(0..2)?.try_into().ok()?) as usize;
    let topic = std::str::from_utf8(data.get(2..2 + topic_len)?).ok()?;
    let at = 2 + topic_len;
    let raw_count = u32::from_le_bytes(data.get(at..at + 4)?.try_into().ok()?);
    if raw_count & COLUMNAR_FLAG == 0 {
        return None;
    }
    let count = (raw_count & !COLUMNAR_FLAG) as usize;
    let body = &data[at + 4..];
    if body.len() / READING_WIRE_SIZE < count {
        return None;
    }
    let (ts, values) = body[..count * READING_WIRE_SIZE].split_at(count * 8);
    Some((
        EntryRef { topic, ts, values },
        at + 4 + count * READING_WIRE_SIZE,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64, ns: u64) -> SensorReading {
        SensorReading::new(v, Timestamp(ns))
    }

    #[test]
    fn round_trips_through_rows() {
        let rows = vec![r(-5, 10), r(7, 20), r(i64::MIN, u64::MAX)];
        let batch = ReadingBatch::from_readings(&rows);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.to_readings(), rows);
        assert_eq!(batch.get(2), Some(r(i64::MIN, u64::MAX)));
        assert_eq!(batch.get(3), None);
        let collected: ReadingBatch = rows.iter().copied().collect();
        assert_eq!(collected, batch);
    }

    #[test]
    fn push_and_clear_keep_columns_parallel() {
        let mut b = ReadingBatch::with_capacity(4);
        assert!(b.is_empty());
        b.push(1, Timestamp(100));
        b.push(2, Timestamp(200));
        assert_eq!(b.len(), 2);
        assert_eq!(b.ts, vec![100, 200]);
        assert_eq!(b.values, vec![1, 2]);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn ascending_detection() {
        assert!(ReadingBatch::from_readings(&[r(0, 1), r(0, 2), r(0, 5)]).is_strictly_ascending());
        assert!(ReadingBatch::new().is_strictly_ascending());
        assert!(!ReadingBatch::from_readings(&[r(0, 2), r(0, 2)]).is_strictly_ascending());
        assert!(!ReadingBatch::from_readings(&[r(0, 3), r(0, 1)]).is_strictly_ascending());
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn from_columns_rejects_skew() {
        ReadingBatch::from_columns(vec![1, 2], vec![3]);
    }

    #[test]
    fn an_entry_round_trips_and_spans_exactly_its_bytes() {
        let mut buf = Vec::new();
        push_entry(&mut buf, "/a/b", &[1, u64::MAX], &[-1, i64::MIN]).unwrap();
        assert_eq!(buf.len(), 2 + 4 + 4 + 2 * READING_WIRE_SIZE);
        buf.extend_from_slice(b"next");
        let (entry, used) = read_entry(&buf).unwrap();
        assert_eq!((entry.topic, entry.len(), used), ("/a/b", 2, buf.len() - 4));
        assert_eq!(
            entry.to_batch(),
            ReadingBatch::from_columns(vec![1, u64::MAX], vec![-1, i64::MIN])
        );
        let mut batch = ReadingBatch::from_columns(vec![0], vec![0]);
        entry.extend_into(&mut batch);
        assert_eq!(batch.ts, vec![0, 1, u64::MAX]);
        // Every cut short of the columns is refused.
        for cut in 0..used {
            assert!(read_entry(&buf[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn an_entry_refuses_lying_fields() {
        let mut buf = Vec::new();
        push_entry(&mut buf, "/a", &[7], &[8]).unwrap();
        let count_at = 2 + 2;
        // The count claims more readings than the bytes hold.
        let mut big = buf.clone();
        big[count_at..count_at + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_entry(&big).is_none());
        // The flag bit clear: the retired row-major layout.
        let mut rows = buf.clone();
        rows[count_at..count_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(read_entry(&rows).is_none());
        // A topic length past the end, and a topic that is not UTF-8.
        let mut long = buf.clone();
        long[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(read_entry(&long).is_none());
        let mut bad = buf.clone();
        bad[2] = 0xff;
        assert!(read_entry(&bad).is_none());
        // The writer refuses what the fields cannot say.
        let mut out = vec![9u8];
        let topic = "x".repeat(u16::MAX as usize + 1);
        assert!(push_entry(&mut out, &topic, &[], &[]).is_err());
        assert_eq!(out, vec![9u8]);
    }

    #[test]
    fn bulk_le_round_trips() {
        let ts = vec![0u64, 1, u64::MAX, 0x0102_0304_0506_0708];
        let values = vec![0i64, -1, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        extend_le_u64s(&mut buf, &ts);
        extend_le_i64s(&mut buf, &values);
        assert_eq!(buf.len(), 64);
        // Matches the scalar little-endian encoding byte for byte.
        let mut expect = Vec::new();
        for &x in &ts {
            expect.extend_from_slice(&x.to_le_bytes());
        }
        for &x in &values {
            expect.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(buf, expect);
        // And reads back as an entry's columns.
        let entry = EntryRef::from_columns("/t", &buf[..32], &buf[32..]).unwrap();
        assert_eq!(entry.to_batch(), ReadingBatch::from_columns(ts, values));
    }
}
