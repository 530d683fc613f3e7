//! Gorilla-style compression for runs of sensor readings.
//!
//! Sealed segments store each sensor's readings as one compressed
//! block. Monitoring data is extremely regular — near-constant sampling
//! intervals and slowly drifting values — so the classic time-series
//! tricks (Facebook's Gorilla, §4.1) apply directly:
//!
//! * **timestamps**: delta-of-delta. The first timestamp is stored raw;
//!   every subsequent one stores the *change in sampling interval*,
//!   zig-zag + varint encoded, which is `0` (one byte) for perfectly
//!   periodic data.
//! * **values**: delta against the previous value, zig-zag + varint
//!   encoded — sensor values are integers here (fixed-point for real
//!   valued metrics), so integer deltas compress better than the
//!   float-oriented XOR scheme and remain byte-exact.
//!
//! ```text
//! block := [u32 count]                      (0 terminates immediately)
//!          [u64 first_ts] [i64 first_value]
//!          (count-1) × { varint zz(ddts) , varint zz(dvalue) }
//! ```
//!
//! Decompression reproduces the input byte-identically: this is a
//! lossless code over arbitrary `(i64, u64)` sequences, not just sorted
//! ones, so replays and proptests can exercise any input.
//!
//! The implementation is *columnar*: both directions work over packed
//! `u64`/`i64` columns ([`ReadingBatch`]) in chunks of
//! `CHUNK` readings. The arithmetic passes (delta, delta-of-delta,
//! zig-zag and their inverses) run over plain integer slices with no
//! data-dependent branches, which the compiler auto-vectorizes; only
//! the byte-granular varint stage remains serial. The emitted bytes
//! are identical to the original scalar codec — a property test in
//! this module proves it against a retained copy of that code.

use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;

/// Readings processed per inner-loop chunk. Large enough that the
/// vectorizable passes dominate, small enough that chunk scratch
/// buffers stay in L1 (4 × 256 × 8 B = 8 KiB).
const CHUNK: usize = 256;

/// Fixed bytes before the varint stream of a non-empty block:
/// `[u32 count][u64 first_ts][i64 first_value]`.
const BLOCK_HEADER: usize = 20;

/// Zig-zag encodes a signed 64-bit integer into an unsigned one.
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a LEB128 varint.
#[inline]
pub(crate) fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint, advancing `pos`.
#[inline]
pub(crate) fn get_uvarint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None; // over-long varint
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Compresses parallel timestamp/value columns into one block.
///
/// # Panics
/// When the columns differ in length.
pub fn compress_columns(ts: &[u64], values: &[i64]) -> Vec<u8> {
    assert_eq!(ts.len(), values.len(), "column length mismatch");
    let n = ts.len();
    let mut out = Vec::with_capacity(BLOCK_HEADER + n * 2);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    if n == 0 {
        return out;
    }
    out.extend_from_slice(&ts[0].to_le_bytes());
    out.extend_from_slice(&values[0].to_le_bytes());

    // Chunk scratch: zig-zagged delta-of-delta timestamps and value
    // deltas for up to CHUNK readings at a time.
    let mut zz_ddts = [0u64; CHUNK];
    let mut zz_dval = [0u64; CHUNK];
    let mut prev_ts = ts[0];
    let mut prev_delta = 0i64;
    let mut prev_value = values[0];
    let mut base = 1;
    while base < n {
        let len = CHUNK.min(n - base);
        let ts_chunk = &ts[base..base + len];
        let val_chunk = &values[base..base + len];
        // Pass 1 (vectorizable): deltas, delta-of-deltas, zig-zag —
        // straight-line integer arithmetic over packed lanes.
        let mut p_ts = prev_ts;
        let mut p_delta = prev_delta;
        for (i, &t) in ts_chunk.iter().enumerate() {
            let delta = t.wrapping_sub(p_ts) as i64;
            zz_ddts[i] = zigzag(delta.wrapping_sub(p_delta));
            p_ts = t;
            p_delta = delta;
        }
        let mut p_val = prev_value;
        for (i, &v) in val_chunk.iter().enumerate() {
            zz_dval[i] = zigzag(v.wrapping_sub(p_val));
            p_val = v;
        }
        // Pass 2 (serial): byte-granular varint emission in the wire
        // order the scalar codec used — interleaved ddts, dvalue.
        for i in 0..len {
            put_uvarint(&mut out, zz_ddts[i]);
            put_uvarint(&mut out, zz_dval[i]);
        }
        prev_ts = p_ts;
        prev_delta = p_delta;
        prev_value = p_val;
        base += len;
    }
    out
}

fn corrupt() -> DcdbError {
    DcdbError::Parse("corrupt compressed block".into())
}

/// Parses and validates a block header, returning
/// `(count, first_ts, first_value, varint stream offset)`.
/// A zero-count block returns `count == 0` and dummy firsts.
fn block_header(data: &[u8]) -> Result<(usize, u64, i64)> {
    if data.len() < 4 {
        return Err(corrupt());
    }
    let count = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
    if count == 0 {
        return Ok((0, 0, 0));
    }
    if data.len() < BLOCK_HEADER {
        return Err(corrupt());
    }
    let first_ts = u64::from_le_bytes(data[4..12].try_into().unwrap());
    let first_value = i64::from_le_bytes(data[12..20].try_into().unwrap());
    Ok((count, first_ts, first_value))
}

/// The largest reading count the bytes after the header could possibly
/// encode: every reading past the first costs at least two varint
/// bytes. Clamps attacker-controlled `count` fields so a corrupt block
/// cannot drive the initial reservation into a multi-gigabyte
/// allocation before the first varint fails.
fn max_plausible_count(data_len: usize) -> usize {
    1 + data_len.saturating_sub(BLOCK_HEADER) / 2
}

/// Decompresses a block into packed columns.
///
/// The inverse of [`compress_columns`]: varints are decoded serially
/// per chunk, then the arithmetic reconstruction (un-zig-zag, prefix
/// sums) runs over the chunk's packed lanes.
pub fn decompress_columns(data: &[u8]) -> Result<ReadingBatch> {
    let (count, first_ts, first_value) = block_header(data)?;
    if count == 0 {
        if data.len() != 4 {
            return Err(corrupt()); // trailing garbage
        }
        return Ok(ReadingBatch::new());
    }
    let reserve = count.min(max_plausible_count(data.len()));
    let mut batch = ReadingBatch::with_capacity(reserve);
    batch.ts.push(first_ts);
    batch.values.push(first_value);

    let mut zz_ddts = [0u64; CHUNK];
    let mut zz_dval = [0u64; CHUNK];
    let mut pos = BLOCK_HEADER;
    let mut prev_ts = first_ts;
    let mut prev_delta = 0i64;
    let mut prev_value = first_value;
    let mut remaining = count - 1;
    while remaining > 0 {
        let len = CHUNK.min(remaining);
        // Pass 1 (serial): pull the interleaved varint pairs apart into
        // packed chunk lanes.
        for i in 0..len {
            zz_ddts[i] = get_uvarint(data, &mut pos).ok_or_else(corrupt)?;
            zz_dval[i] = get_uvarint(data, &mut pos).ok_or_else(corrupt)?;
        }
        // Pass 2 (vectorizable-friendly): un-zig-zag + prefix-sum
        // reconstruction over the lanes.
        for &zz in &zz_ddts[..len] {
            let delta = prev_delta.wrapping_add(unzigzag(zz));
            prev_ts = prev_ts.wrapping_add(delta as u64);
            prev_delta = delta;
            batch.ts.push(prev_ts);
        }
        for &zz in &zz_dval[..len] {
            prev_value = prev_value.wrapping_add(unzigzag(zz));
            batch.values.push(prev_value);
        }
        remaining -= len;
    }
    if pos != data.len() {
        return Err(corrupt()); // trailing garbage
    }
    Ok(batch)
}

/// An incremental, zero-allocation decoder over one compressed block.
///
/// Yields `(value, ts)` pairs one at a time without materializing a
/// `Vec` — the segment scan path uses this to filter time ranges and
/// count readings straight off the compressed bytes.
///
/// Corruption surfaces as an error from [`BlockCursor::next_reading`];
/// a block fully consumed without error is exactly as validated as a
/// full [`decompress_columns`] pass (including trailing-garbage
/// detection).
pub struct BlockCursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// Readings still to yield.
    remaining: usize,
    /// True before the first reading has been yielded.
    at_first: bool,
    prev_ts: u64,
    prev_delta: i64,
    prev_value: i64,
}

impl<'a> BlockCursor<'a> {
    /// Opens a cursor over a block, validating its header.
    pub fn new(data: &'a [u8]) -> Result<BlockCursor<'a>> {
        let (count, first_ts, first_value) = block_header(data)?;
        if count == 0 && data.len() != 4 {
            return Err(corrupt());
        }
        Ok(BlockCursor {
            data,
            pos: if count == 0 { 4 } else { BLOCK_HEADER },
            remaining: count,
            at_first: true,
            prev_ts: first_ts,
            prev_delta: 0,
            prev_value: first_value,
        })
    }

    /// Readings left to yield.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Decodes the next reading, or `Ok(None)` at a clean end of block.
    pub fn next_reading(&mut self) -> Result<Option<SensorReading>> {
        if self.remaining == 0 {
            if self.pos != self.data.len() {
                return Err(corrupt()); // trailing garbage
            }
            return Ok(None);
        }
        if self.at_first {
            self.at_first = false;
        } else {
            let zz_ddts = get_uvarint(self.data, &mut self.pos).ok_or_else(corrupt)?;
            let zz_dval = get_uvarint(self.data, &mut self.pos).ok_or_else(corrupt)?;
            let delta = self.prev_delta.wrapping_add(unzigzag(zz_ddts));
            self.prev_ts = self.prev_ts.wrapping_add(delta as u64);
            self.prev_delta = delta;
            self.prev_value = self.prev_value.wrapping_add(unzigzag(zz_dval));
        }
        self.remaining -= 1;
        Ok(Some(SensorReading::new(
            self.prev_value,
            Timestamp(self.prev_ts),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::time::NS_PER_SEC;

    fn r(v: i64, ns: u64) -> SensorReading {
        SensorReading::new(v, Timestamp(ns))
    }

    /// The original scalar codec, retained verbatim as the byte-level
    /// reference the columnar rewrite must match exactly.
    mod scalar_reference {
        use super::*;

        pub fn compress(readings: &[SensorReading]) -> Vec<u8> {
            let mut out = Vec::with_capacity(20 + readings.len() * 2);
            out.extend_from_slice(&(readings.len() as u32).to_le_bytes());
            let Some(first) = readings.first() else {
                return out;
            };
            out.extend_from_slice(&first.ts.as_nanos().to_le_bytes());
            out.extend_from_slice(&first.value.to_le_bytes());
            let mut prev_ts = first.ts.as_nanos();
            let mut prev_delta = 0i64;
            let mut prev_value = first.value;
            for r in &readings[1..] {
                let delta = r.ts.as_nanos().wrapping_sub(prev_ts) as i64;
                put_uvarint(&mut out, zigzag(delta.wrapping_sub(prev_delta)));
                put_uvarint(&mut out, zigzag(r.value.wrapping_sub(prev_value)));
                prev_ts = r.ts.as_nanos();
                prev_delta = delta;
                prev_value = r.value;
            }
            out
        }

        pub fn decompress(data: &[u8]) -> Result<Vec<SensorReading>> {
            let corrupt = || DcdbError::Parse("corrupt compressed block".into());
            if data.len() < 4 {
                return Err(corrupt());
            }
            let count = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
            if count == 0 {
                return Ok(Vec::new());
            }
            if data.len() < 20 {
                return Err(corrupt());
            }
            let mut prev_ts = u64::from_le_bytes(data[4..12].try_into().unwrap());
            let mut prev_value = i64::from_le_bytes(data[12..20].try_into().unwrap());
            let mut out = Vec::with_capacity(count);
            out.push(SensorReading::new(prev_value, Timestamp(prev_ts)));
            let mut pos = 20;
            let mut prev_delta = 0i64;
            for _ in 1..count {
                let ddts = unzigzag(get_uvarint(data, &mut pos).ok_or_else(corrupt)?);
                let dvalue = unzigzag(get_uvarint(data, &mut pos).ok_or_else(corrupt)?);
                let delta = prev_delta.wrapping_add(ddts);
                prev_ts = prev_ts.wrapping_add(delta as u64);
                prev_value = prev_value.wrapping_add(dvalue);
                prev_delta = delta;
                out.push(SensorReading::new(prev_value, Timestamp(prev_ts)));
            }
            if pos != data.len() {
                return Err(corrupt()); // trailing garbage
            }
            Ok(out)
        }
    }

    /// Deterministic xorshift so tests need no external crate.
    fn xorshift_stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Rows in, block out: the columnar codec on the row-shaped inputs
    /// the scalar reference takes.
    fn encode(readings: &[SensorReading]) -> Vec<u8> {
        let batch = ReadingBatch::from_readings(readings);
        compress_columns(&batch.ts, &batch.values)
    }

    fn decode(block: &[u8]) -> Result<Vec<SensorReading>> {
        Ok(decompress_columns(block)?.to_readings())
    }

    fn cursor_collect(block: &[u8]) -> Result<Vec<SensorReading>> {
        let mut cur = BlockCursor::new(block)?;
        let mut out = Vec::new();
        while let Some(r) = cur.next_reading()? {
            out.push(r);
        }
        Ok(out)
    }

    #[test]
    fn round_trips_periodic_data_compactly() {
        // Perfectly periodic sampling with a slow ramp: the common case.
        let readings: Vec<SensorReading> = (0..1000)
            .map(|i| {
                r(
                    100_000 + i as i64,
                    1_700_000_000 * NS_PER_SEC + i * NS_PER_SEC,
                )
            })
            .collect();
        let block = encode(&readings);
        assert_eq!(decode(&block).unwrap(), readings);
        // 16 B/reading raw → ~2 B/reading compressed for this shape.
        let raw = readings.len() * 16;
        assert!(
            block.len() * 4 < raw,
            "block {} B vs raw {} B — expected >4x compression",
            block.len(),
            raw
        );
    }

    #[test]
    fn round_trips_adversarial_sequences() {
        let cases: Vec<Vec<SensorReading>> = vec![
            vec![],
            vec![r(0, 0)],
            vec![r(i64::MAX, u64::MAX), r(i64::MIN, 0)],
            vec![r(-5, 10), r(-5, 10), r(-5, 10)],
            vec![r(7, 3), r(-900, 1), r(12345, u64::MAX / 2)],
        ];
        for case in cases {
            let block = encode(&case);
            assert_eq!(decode(&block).unwrap(), case, "case {case:?}");
            assert_eq!(cursor_collect(&block).unwrap(), case, "cursor {case:?}");
        }
    }

    #[test]
    fn round_trips_randomized_sequences() {
        let mut next = xorshift_stream(0x853C_49E6_748F_EA9B);
        for len in [0usize, 1, 2, 3, 17, 256, 1024] {
            let readings: Vec<SensorReading> = (0..len).map(|_| r(next() as i64, next())).collect();
            let block = encode(&readings);
            assert_eq!(decode(&block).unwrap(), readings, "len {len}");
            assert_eq!(
                cursor_collect(&block).unwrap(),
                readings,
                "cursor len {len}"
            );
        }
    }

    #[test]
    fn columnar_round_trip_preserves_columns() {
        let ts: Vec<u64> = (0..600).map(|i| i * 1_000 + 7).collect();
        let values: Vec<i64> = (0..600).map(|i| 42 - i as i64 * 3).collect();
        let block = compress_columns(&ts, &values);
        let batch = decompress_columns(&block).unwrap();
        assert_eq!(batch.ts, ts);
        assert_eq!(batch.values, values);
    }

    /// The tentpole property: the columnar rewrite emits byte-identical
    /// blocks and decodes identically to the original scalar codec, on
    /// arbitrary `(i64, u64)` sequences — including chunk boundaries
    /// (CHUNK ± 1) and multi-chunk lengths.
    #[test]
    fn byte_identical_with_scalar_reference_on_random_inputs() {
        let mut next = xorshift_stream(0x9E37_79B9_7F4A_7C15);
        let lens = [
            0usize,
            1,
            2,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK,
            2 * CHUNK + 3,
            1000,
        ];
        for &len in &lens {
            // Fully random shape — exercises worst-case varint widths.
            let wild: Vec<SensorReading> = (0..len).map(|_| r(next() as i64, next())).collect();
            // Monitoring shape — near-periodic, small deltas.
            let tame: Vec<SensorReading> = (0..len)
                .map(|i| {
                    r(
                        1_000_000 + (next() % 32) as i64 - 16,
                        i as u64 * NS_PER_SEC + (next() % 1024),
                    )
                })
                .collect();
            for readings in [wild, tame] {
                let new_block = encode(&readings);
                let old_block = scalar_reference::compress(&readings);
                assert_eq!(new_block, old_block, "encode diverged at len {len}");
                assert_eq!(
                    decode(&new_block).unwrap(),
                    scalar_reference::decompress(&old_block).unwrap(),
                    "decode diverged at len {len}"
                );
            }
        }
    }

    /// Truncation at *every* byte offset must be rejected, and the new
    /// decoder must agree with the scalar reference on every prefix —
    /// corrupt or (never, for strict prefixes) valid.
    #[test]
    fn truncation_fuzz_at_every_offset_matches_reference() {
        let mut next = xorshift_stream(0xDEAD_BEEF_CAFE_F00D);
        let readings: Vec<SensorReading> = (0..300).map(|_| r(next() as i64, next())).collect();
        let block = encode(&readings);
        for cut in 0..block.len() {
            let prefix = &block[..cut];
            let new = decode(prefix);
            let old = scalar_reference::decompress(prefix);
            assert_eq!(
                new.is_err(),
                old.is_err(),
                "verdict diverged at cut {cut}/{}",
                block.len()
            );
            assert!(new.is_err(), "truncated block accepted at cut {cut}");
            assert!(cursor_collect(prefix).is_err(), "cursor accepted cut {cut}");
        }
        // Trailing garbage is also rejected, by both paths.
        let mut extended = block.clone();
        extended.push(0);
        assert!(decode(&extended).is_err());
        assert!(cursor_collect(&extended).is_err());
    }

    /// A corrupt `count = u32::MAX` must fail without first reserving
    /// gigabytes: the initial allocation is clamped to what the actual
    /// bytes could encode.
    #[test]
    fn oversized_count_is_clamped_before_allocation() {
        let readings: Vec<SensorReading> = (0..10).map(|i| r(i, i as u64 * 100)).collect();
        let mut block = encode(&readings);
        block[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Must error (stream exhausts long before u32::MAX readings)
        // and, per the clamp, reserve at most ~len/2 entries. The
        // allocation bound is not directly observable, but a multi-GB
        // with_capacity would abort the test process under the runner's
        // memory limits — surviving to the Err is the regression signal.
        assert!(decompress_columns(&block).is_err());
        let mut cur = BlockCursor::new(&block).unwrap();
        let mut err = None;
        for _ in 0..20 {
            match cur.next_reading() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.is_some(), "cursor must hit corruption");
        assert_eq!(max_plausible_count(block.len()), 1 + (block.len() - 20) / 2);
    }

    /// Over-long varints (more than 10 continuation bytes / shift ≥ 64)
    /// are rejected, not wrapped.
    #[test]
    fn overlong_varints_are_rejected() {
        // Block claiming 2 readings whose first varint never terminates
        // within the 64-bit shift budget.
        let mut block = Vec::new();
        block.extend_from_slice(&2u32.to_le_bytes());
        block.extend_from_slice(&0u64.to_le_bytes());
        block.extend_from_slice(&0i64.to_le_bytes());
        block.extend_from_slice(&[0x80; 10]); // 10 continuation bytes → shift 70
        block.push(0x01);
        block.push(0x00); // would-be second varint
        assert!(decode(&block).is_err());
        assert!(scalar_reference::decompress(&block).is_err());
        assert!(cursor_collect(&block).is_err());
    }

    #[test]
    fn rejects_truncated_blocks() {
        let readings: Vec<SensorReading> = (0..50).map(|i| r(i, i as u64 * 100)).collect();
        let block = encode(&readings);
        for cut in [0, 3, 10, block.len() - 1] {
            assert!(decode(&block[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut extended = block.clone();
        extended.push(0);
        assert!(decode(&extended).is_err());
    }

    #[test]
    fn cursor_streams_without_materializing() {
        let readings: Vec<SensorReading> = (0..777).map(|i| r(i * 3, i as u64 * 50)).collect();
        let block = encode(&readings);
        let mut cur = BlockCursor::new(&block).unwrap();
        assert_eq!(cur.remaining(), 777);
        let mut n = 0usize;
        while let Some(got) = cur.next_reading().unwrap() {
            assert_eq!(got, readings[n]);
            n += 1;
        }
        assert_eq!(n, 777);
        assert_eq!(cur.remaining(), 0);
        // Exhausted cursor keeps returning a clean end.
        assert!(cur.next_reading().unwrap().is_none());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
