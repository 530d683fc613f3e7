//! Wire format for sensor-data messages.
//!
//! Although the bus is in-process, Pushers marshal readings into the
//! same compact binary frames a networked MQTT deployment would use, so
//! the serialization cost the paper's overhead numbers include is paid
//! here too.
//!
//! One frame layout, little-endian:
//!
//! ```text
//! [u8 2] [u32 n] [n × u64 timestamp_ns] [n × i64 value]
//! ```
//!
//! The frame carries a [`ReadingBatch`]'s packed columns verbatim, so
//! encoding on the Pusher side and decoding on the Collect Agent side
//! are two memcpys instead of per-reading loops. Version 1 (row-major)
//! is retired: nothing encodes it and the decoder rejects it like any
//! other unknown version.

use bytes::Bytes;
use dcdb_common::batch::{
    extend_le_i64s, extend_le_u64s, read_le_i64s, read_le_u64s, ReadingBatch,
};
use dcdb_common::error::DcdbError;

/// Columnar frame format version.
pub const FRAME_VERSION_COLUMNAR: u8 = 2;

/// Bytes occupied by one encoded reading.
pub const READING_WIRE_SIZE: usize = 16;

/// Encodes a columnar batch into a frame: both columns land in the
/// payload as single bulk copies.
pub fn encode_batch(batch: &ReadingBatch) -> Bytes {
    let mut buf = Vec::with_capacity(5 + batch.len() * READING_WIRE_SIZE);
    buf.push(FRAME_VERSION_COLUMNAR);
    buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    extend_le_u64s(&mut buf, &batch.ts);
    extend_le_i64s(&mut buf, &batch.values);
    Bytes::from(buf)
}

/// Decodes a frame into a columnar batch.
pub fn decode_batch(frame: Bytes) -> Result<ReadingBatch, DcdbError> {
    if frame.len() < 5 {
        return Err(DcdbError::Parse(format!(
            "sensor frame too short: {} bytes",
            frame.len()
        )));
    }
    match frame[0] {
        FRAME_VERSION_COLUMNAR => {
            let n = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
            let body = &frame[5..];
            if body.len() != n * READING_WIRE_SIZE {
                return Err(DcdbError::Parse(format!(
                    "columnar frame length mismatch: {} readings declared, {} bytes remain",
                    n,
                    body.len()
                )));
            }
            Ok(ReadingBatch::from_columns(
                read_le_u64s(body, n),
                read_le_i64s(&body[n * 8..], n),
            ))
        }
        version => Err(DcdbError::Parse(format!(
            "unsupported frame version {version}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::reading::SensorReading;
    use dcdb_common::time::Timestamp;

    fn r(v: i64, ns: u64) -> SensorReading {
        SensorReading::new(v, Timestamp(ns))
    }

    #[test]
    fn frame_round_trips() {
        let batch = ReadingBatch::from_readings(&[r(-5, 0), r(i64::MAX, u64::MAX), r(0, 42)]);
        let frame = encode_batch(&batch);
        assert_eq!(frame[0], FRAME_VERSION_COLUMNAR);
        assert_eq!(frame.len(), 5 + 3 * READING_WIRE_SIZE);
        assert_eq!(decode_batch(frame).unwrap(), batch);
        let single = ReadingBatch::from_readings(&[r(7, 9)]);
        assert_eq!(decode_batch(encode_batch(&single)).unwrap(), single);
        assert!(decode_batch(encode_batch(&ReadingBatch::new()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rejects_truncation_trailing_garbage_and_bad_version() {
        let batch = ReadingBatch::from_columns(vec![1, 2], vec![10, 20]);
        let frame = encode_batch(&batch);
        assert!(decode_batch(frame.slice(0..frame.len() - 1)).is_err());
        assert!(decode_batch(frame.slice(0..frame.len() - 3)).is_err());
        assert!(decode_batch(Bytes::from_static(&[2])).is_err());
        let mut raw = frame.to_vec();
        raw.push(0);
        assert!(decode_batch(Bytes::from(raw)).is_err());
        let mut bad = frame.to_vec();
        bad[0] = 9;
        assert!(decode_batch(Bytes::from(bad)).is_err());
    }

    #[test]
    fn retired_v1_frame_is_a_parse_error() {
        // What a v1 producer would have sent: version byte 1, a count,
        // interleaved value/timestamp pairs.
        let mut v1 = vec![1u8];
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&7i64.to_le_bytes());
        v1.extend_from_slice(&9u64.to_le_bytes());
        match decode_batch(Bytes::from(v1)) {
            Err(DcdbError::Parse(msg)) => assert!(msg.contains("unsupported frame version 1")),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
