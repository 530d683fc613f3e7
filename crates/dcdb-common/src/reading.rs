//! Sensor readings: the atomic unit of monitoring data.
//!
//! Following DCDB, a sensor produces *readings*, each a 64-bit integer
//! value plus a nanosecond timestamp. Integer values keep the wire and
//! storage formats compact and exact; plugins that need real-valued data
//! (derived metrics, model outputs) scale by a fixed factor declared in
//! the sensor's metadata.

use crate::time::Timestamp;
use serde::{Deserialize, Serialize};

/// A single monitoring sample: `(value, timestamp)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SensorReading {
    /// Raw integer sensor value (possibly fixed-point scaled).
    pub value: i64,
    /// Time the value was sampled.
    pub ts: Timestamp,
}

impl SensorReading {
    /// Creates a reading.
    pub const fn new(value: i64, ts: Timestamp) -> Self {
        SensorReading { value, ts }
    }
}

/// Fixed-point scale used by real-valued sensors: values are stored as
/// `round(x * FIXED_POINT_SCALE)`.
pub const FIXED_POINT_SCALE: f64 = 1000.0;

/// Encodes a real value into the fixed-point integer representation.
pub fn encode_f64(x: f64) -> i64 {
    (x * FIXED_POINT_SCALE).round() as i64
}

/// Decodes a fixed-point integer back into a real value.
pub fn decode_f64(v: i64) -> f64 {
    v as f64 / FIXED_POINT_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_round_trips() {
        for x in [-12.345, 0.0, 0.001, 98765.432] {
            let enc = encode_f64(x);
            assert!((decode_f64(enc) - x).abs() < 1e-3, "{x}");
        }
    }
}
