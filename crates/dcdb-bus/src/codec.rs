//! Wire format for sensor-data messages.
//!
//! Although the bus is in-process, Pushers marshal readings into the
//! same compact binary frames a networked MQTT deployment would use, so
//! the serialization cost the paper's overhead numbers include is paid
//! here too.
//!
//! Two frame layouts, little-endian, read by one decoder
//! ([`for_each_entry`]):
//!
//! ```text
//! v3, node frame:   [u8 3] [u32 entries] entries × entry
//!   entry:          [u16 topic_len] [topic] [u32 count | 0x8000_0000]
//!                   [count × u64 timestamp_ns] [count × i64 value]
//! v2, one sensor:   [u8 2] [u32 n] [n × u64 timestamp_ns] [n × i64 value]
//! ```
//!
//! A **node frame** is what a Pusher publishes once per tick: every
//! reading it sampled or derived under one node prefix (a topic's first
//! [`NODE_PREFIX_DEPTH`] segments), published to that prefix. An entry
//! is laid out exactly as a WAL record's payload
//! ([`dcdb_common::batch::push_entry`]); every entry carries at least
//! one reading and lies under the message topic, so the frame reaches
//! exactly the subscribers whose filter matches its node prefix, which
//! is also the federation's shard key. A subscriber that wants sensors
//! below a node subscribes to `<node>/#` and picks entries with
//! [`decode_frame`].
//!
//! A **v2 frame** carries one [`ReadingBatch`]'s packed columns
//! verbatim for the message's own topic; [`MessageBus::publish_batch`]
//! sends it. Version 1 (row-major) is retired: nothing encodes it and
//! the decoder rejects it like any other unknown version.
//!
//! [`MessageBus::publish_batch`]: crate::MessageBus::publish_batch

use crate::broker::Message;
use crate::filter::TopicFilter;
use bytes::Bytes;
use dcdb_common::batch::{
    extend_le_i64s, extend_le_u64s, push_entry, read_entry, EntryRef, ReadingBatch,
    READING_WIRE_SIZE,
};
use dcdb_common::error::DcdbError;
use dcdb_common::reading::SensorReading;
use dcdb_common::topic::{prefix_of, Topic, NODE_PREFIX_DEPTH};

/// One-sensor columnar frame version.
pub const FRAME_VERSION_COLUMNAR: u8 = 2;

/// Node frame version.
pub const FRAME_VERSION_NODE: u8 = 3;

/// Encodes a columnar batch into a v2 frame: both columns land in the
/// payload as single bulk copies.
pub fn encode_batch(batch: &ReadingBatch) -> Bytes {
    let mut buf = Vec::with_capacity(5 + batch.len() * READING_WIRE_SIZE);
    buf.push(FRAME_VERSION_COLUMNAR);
    buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    extend_le_u64s(&mut buf, &batch.ts);
    extend_le_i64s(&mut buf, &batch.values);
    Bytes::from(buf)
}

/// Decodes a v2 frame into a columnar batch. A node frame is refused:
/// it carries many topics, so it is read with [`decode_frame`] or
/// [`for_each_entry`].
pub fn decode_batch(frame: Bytes) -> Result<ReadingBatch, DcdbError> {
    match header(&frame)? {
        (FRAME_VERSION_COLUMNAR, n, body) => Ok(v2_columns("", n, body)?.to_batch()),
        (FRAME_VERSION_NODE, ..) => Err(DcdbError::Parse(
            "a node frame carries many topics: read it with decode_frame".into(),
        )),
        (version, ..) => Err(DcdbError::Parse(format!(
            "unsupported frame version {version}"
        ))),
    }
}

/// A frame on its way out: the node prefix it is published to, its
/// bytes, and the readings it carries.
#[derive(Debug)]
pub struct Frame {
    /// The message topic.
    pub topic: Topic,
    /// The encoded frame.
    pub payload: Bytes,
    /// Readings across its entries.
    pub readings: usize,
}

/// Builds a Pusher's node frames: each reading is appended as an entry
/// to the frame of its node prefix, and [`FrameBuilder::finish`] hands
/// out the frames in the order their prefixes were first pushed. A
/// prefix's buffer and `Topic` are kept from one tick to the next, so
/// a steady tick allocates only the frames it hands out.
#[derive(Debug, Default)]
pub struct FrameBuilder {
    slots: Vec<Slot>,
    /// The slot the previous push went to: a plugin's samples come in
    /// runs under one prefix.
    last: usize,
    /// Slots holding entries, in first-push order.
    open: Vec<usize>,
}

#[derive(Debug)]
struct Slot {
    topic: Topic,
    buf: Vec<u8>,
    entries: u32,
    readings: usize,
}

impl FrameBuilder {
    /// Appends `reading` of `topic` to the frame of its node prefix.
    pub fn push(&mut self, topic: &Topic, reading: SensorReading) {
        let i = self.slot(topic);
        let slot = &mut self.slots[i];
        if slot.entries == 0 {
            slot.buf.clear();
            slot.buf.push(FRAME_VERSION_NODE);
            slot.buf.extend_from_slice(&[0u8; 4]);
            self.open.push(i);
        }
        // A topic fits the length field (`Topic::parse` bounds it) and
        // one reading fits the count.
        push_entry(
            &mut slot.buf,
            topic.as_str(),
            &[reading.ts.as_nanos()],
            &[reading.value],
        )
        .expect("one reading of a parsed topic is a valid entry");
        slot.entries += 1;
        slot.readings += 1;
    }

    /// True when nothing was pushed since the last finish.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// The frames pushed since the last finish.
    pub fn finish(&mut self) -> Vec<Frame> {
        let mut frames = Vec::with_capacity(self.open.len());
        for &i in &self.open {
            let slot = &mut self.slots[i];
            slot.buf[1..5].copy_from_slice(&slot.entries.to_le_bytes());
            frames.push(Frame {
                topic: slot.topic.clone(),
                payload: Bytes::copy_from_slice(&slot.buf),
                readings: slot.readings,
            });
            slot.entries = 0;
            slot.readings = 0;
        }
        self.open.clear();
        frames
    }

    fn slot(&mut self, topic: &Topic) -> usize {
        let prefix = topic.prefix_str(NODE_PREFIX_DEPTH);
        if self
            .slots
            .get(self.last)
            .is_some_and(|s| s.topic.as_str() == prefix)
        {
            return self.last;
        }
        self.last = match self.slots.iter().position(|s| s.topic.as_str() == prefix) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    topic: topic.prefix(NODE_PREFIX_DEPTH),
                    buf: Vec::new(),
                    entries: 0,
                    readings: 0,
                });
                self.slots.len() - 1
            }
        };
        self.last
    }
}

/// The version byte, the `u32` after it and the bytes after that.
fn header(frame: &[u8]) -> Result<(u8, usize, &[u8]), DcdbError> {
    if frame.len() < 5 {
        return Err(DcdbError::Parse(format!(
            "sensor frame too short: {} bytes",
            frame.len()
        )));
    }
    let n = u32::from_le_bytes(frame[1..5].try_into().expect("four bytes")) as usize;
    Ok((frame[0], n, &frame[5..]))
}

/// A v2 body as the one entry it is.
fn v2_columns<'a>(topic: &'a str, n: usize, body: &'a [u8]) -> Result<EntryRef<'a>, DcdbError> {
    if body.len() / READING_WIRE_SIZE != n || !body.len().is_multiple_of(READING_WIRE_SIZE) {
        return Err(DcdbError::Parse(format!(
            "columnar frame length mismatch: {n} readings declared, {} bytes remain",
            body.len()
        )));
    }
    let (ts, values) = body.split_at(n * 8);
    Ok(EntryRef::from_columns(topic, ts, values).expect("columns split evenly"))
}

/// Calls `each` with every entry of `frame`, published to `topic`, in
/// order: a v2 frame is one entry under `topic`, a node frame each of
/// its entries. Returns the first error, the decoder's or `each`'s;
/// entries before it have been passed to `each` already, so a caller
/// that must take nothing from a malformed frame stages what it is
/// given. The decoder allocates nothing, so no length field can size a
/// reservation.
pub fn for_each_entry<'a>(
    topic: &'a Topic,
    frame: &'a [u8],
    mut each: impl FnMut(EntryRef<'a>) -> Result<(), DcdbError>,
) -> Result<(), DcdbError> {
    let (version, declared, mut rest) = header(frame)?;
    match version {
        FRAME_VERSION_COLUMNAR => each(v2_columns(topic.as_str(), declared, rest)?),
        FRAME_VERSION_NODE => {
            for k in 0..declared {
                let Some((entry, used)) = read_entry(rest) else {
                    return Err(DcdbError::Parse(format!(
                        "node frame on {topic}: entry {k} of {declared} is malformed"
                    )));
                };
                if entry.is_empty() || prefix_of(entry.topic, NODE_PREFIX_DEPTH) != topic.as_str() {
                    return Err(DcdbError::Parse(format!(
                        "node frame on {topic}: entry {k} ({:?}, {} readings) is empty or under another node",
                        entry.topic,
                        entry.len()
                    )));
                }
                each(entry)?;
                rest = &rest[used..];
            }
            if !rest.is_empty() {
                return Err(DcdbError::Parse(format!(
                    "node frame on {topic}: {} bytes after the last entry",
                    rest.len()
                )));
            }
            Ok(())
        }
        version => Err(DcdbError::Parse(format!(
            "unsupported frame version {version}"
        ))),
    }
}

/// Readings `frame`, published to `topic`, carries; 0 when the decoder
/// refuses it. No reading occupies fewer than [`READING_WIRE_SIZE`]
/// bytes, so a frame of `b` bytes carries at most `b / 16`.
pub fn frame_readings(topic: &Topic, frame: &[u8]) -> usize {
    let mut readings = 0;
    match for_each_entry(topic, frame, |entry| {
        readings += entry.len();
        Ok(())
    }) {
        Ok(()) => readings,
        Err(_) => 0,
    }
}

/// `raw` as a topic, when it is one in normal form: an entry's topic is
/// written as [`Topic::as_str`] spells it.
pub fn entry_topic(raw: &str) -> Result<Topic, DcdbError> {
    let topic = Topic::parse(raw)?;
    if topic.as_str() != raw {
        return Err(DcdbError::Parse(format!(
            "entry topic {raw:?} is not in normal form"
        )));
    }
    Ok(topic)
}

/// The entries of `msg` whose topic `filter` matches, each as a batch:
/// how a subscriber below a node picks its sensors out of node frames.
/// A malformed frame is an error as a whole.
pub fn decode_frame(
    msg: &Message,
    filter: &TopicFilter,
) -> Result<Vec<(Topic, ReadingBatch)>, DcdbError> {
    let mut picked = Vec::new();
    for_each_entry(&msg.topic, &msg.payload, |entry| {
        let topic = if entry.topic == msg.topic.as_str() {
            msg.topic.clone()
        } else {
            entry_topic(entry.topic)?
        };
        if filter.matches(&topic) {
            picked.push((topic, entry.to_batch()));
        }
        Ok(())
    })?;
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::time::Timestamp;
    use proptest::prelude::*;

    fn r(v: i64, ns: u64) -> SensorReading {
        SensorReading::new(v, Timestamp(ns))
    }

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn entries(topic: &Topic, frame: &[u8]) -> Result<Vec<(String, ReadingBatch)>, DcdbError> {
        let mut out = Vec::new();
        for_each_entry(topic, frame, |e| {
            out.push((e.topic.to_string(), e.to_batch()));
            Ok(())
        })?;
        Ok(out)
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

    /// One frame per node prefix, in first-push order, each reading an
    /// entry of its own in push order; a repeated topic is a second
    /// entry. The slots outlive the tick.
    #[test]
    fn a_builder_groups_by_node_prefix_in_first_seen_order() {
        let mut builder = FrameBuilder::default();
        assert!(builder.is_empty() && builder.finish().is_empty());
        let pushes = [
            ("/rack00/node00/power", 1),
            ("/rack00/node00/cpu00/cycles", 2),
            ("/rack00/power-avg", 3),
            ("/rack00/node00/power", 4),
        ];
        for (k, (topic, v)) in pushes.iter().enumerate() {
            builder.push(&t(topic), r(*v, k as u64));
        }
        let frames = builder.finish();
        let topics: Vec<&str> = frames.iter().map(|f| f.topic.as_str()).collect();
        assert_eq!(topics, ["/rack00/node00", "/rack00/power-avg"]);
        assert_eq!(
            frames.iter().map(|f| f.readings).collect::<Vec<_>>(),
            [3, 1]
        );
        let node = entries(&frames[0].topic, &frames[0].payload).unwrap();
        let want = |topic: &str, v: i64, ts: u64| {
            (
                topic.to_string(),
                ReadingBatch::from_columns(vec![ts], vec![v]),
            )
        };
        assert_eq!(
            node,
            [
                want("/rack00/node00/power", 1, 0),
                want("/rack00/node00/cpu00/cycles", 2, 1),
                want("/rack00/node00/power", 4, 3),
            ]
        );
        assert_eq!(frame_readings(&frames[0].topic, &frames[0].payload), 3);
        assert!(
            decode_batch(frames[0].payload.clone()).is_err(),
            "not a one-sensor frame"
        );

        // The next tick reuses the slot and its topic.
        builder.push(&t("/rack00/node00/power"), r(5, 9));
        let again = builder.finish();
        assert!(again[0].topic.ptr_eq(&frames[0].topic));
        assert_eq!(again[0].readings, 1);
    }

    #[test]
    fn a_subscriber_picks_its_entries_out_of_a_node_frame() {
        let mut builder = FrameBuilder::default();
        builder.push(&t("/host/tester/t000/value"), r(1, 1));
        builder.push(&t("/host/tester/tester-avg"), r(2, 1));
        let frame = builder.finish().remove(0);
        let msg = Message {
            topic: frame.topic,
            payload: frame.payload,
        };
        let pick = |filter: &str| decode_frame(&msg, &TopicFilter::parse(filter).unwrap()).unwrap();
        assert_eq!(pick("/host/#").len(), 2);
        let avg = pick("/host/tester/tester-avg");
        assert_eq!(
            avg,
            [(
                t("/host/tester/tester-avg"),
                ReadingBatch::from_columns(vec![1], vec![2])
            )]
        );
        assert!(pick("/host/other/#").is_empty());
        // A v2 frame is one entry under its message topic.
        let v2 = Message {
            topic: t("/a/b/c"),
            payload: encode_batch(&ReadingBatch::from_columns(vec![4], vec![5])),
        };
        let got = decode_frame(&v2, &TopicFilter::parse("/a/#").unwrap()).unwrap();
        assert_eq!(
            got,
            [(t("/a/b/c"), ReadingBatch::from_columns(vec![4], vec![5]))]
        );
    }

    /// Builds a node frame by hand, entry by entry.
    fn node_frame(declared: u32, entries: &[(&str, &[u64], &[i64])]) -> Vec<u8> {
        let mut buf = vec![FRAME_VERSION_NODE];
        buf.extend_from_slice(&declared.to_le_bytes());
        for (topic, ts, values) in entries {
            push_entry(&mut buf, topic, ts, values).unwrap();
        }
        buf
    }

    #[test]
    fn a_node_frame_with_a_lying_field_is_refused() {
        let node = t("/r0/n0");
        let good = node_frame(
            2,
            &[("/r0/n0/a", &[1], &[10]), ("/r0/n0/b", &[2, 3], &[20, 30])],
        );
        assert_eq!(entries(&node, &good).unwrap().len(), 2);
        let refuse = |frame: &[u8], why: &str| {
            assert!(entries(&node, frame).is_err(), "{why}");
            assert!(
                decode_frame(
                    &Message {
                        topic: node.clone(),
                        payload: Bytes::copy_from_slice(frame)
                    },
                    &TopicFilter::parse("/#").unwrap()
                )
                .is_err(),
                "{why}"
            );
        };
        // Entry counts that disagree with the entries.
        refuse(
            &node_frame(3, &[("/r0/n0/a", &[1], &[10]), ("/r0/n0/b", &[2], &[20])]),
            "one entry short",
        );
        refuse(
            &node_frame(1, &[("/r0/n0/a", &[1], &[10]), ("/r0/n0/b", &[2], &[20])]),
            "trailing entry",
        );
        refuse(
            &node_frame(u32::MAX, &[("/r0/n0/a", &[1], &[10])]),
            "entry count near u32::MAX",
        );
        // Entries the frame may not carry.
        refuse(&node_frame(1, &[("/r0/n0/a", &[], &[])]), "empty entry");
        refuse(
            &node_frame(1, &[("/r0/n1/a", &[1], &[10])]),
            "entry under another node",
        );
        refuse(
            &node_frame(1, &[("/r0", &[1], &[10])]),
            "entry above the node",
        );
        // Inflated length fields inside the entry.
        let mut topic_len = good.clone();
        topic_len[5..7].copy_from_slice(&u16::MAX.to_le_bytes());
        refuse(&topic_len, "topic length past the end");
        let count_at = 5 + 2 + "/r0/n0/a".len();
        for count in [u32::MAX, u32::MAX >> 1, 2 | 1 << 31] {
            let mut inflated = good.clone();
            inflated[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            refuse(&inflated, "reading count inflated");
        }
        // Not UTF-8, trailing bytes, truncation, an unknown version.
        let mut utf8 = good.clone();
        utf8[5 + 2 + 1] = 0xff;
        refuse(&utf8, "non-UTF-8 topic");
        let mut trailing = good.clone();
        trailing.push(0);
        refuse(&trailing, "trailing byte");
        for cut in 0..good.len() {
            refuse(&good[..cut], "truncated");
        }
        let mut v9 = good.clone();
        v9[0] = 9;
        refuse(&v9, "unknown version");
    }

    #[test]
    fn entry_topics_are_in_normal_form() {
        assert_eq!(entry_topic("/a/b").unwrap(), t("/a/b"));
        for raw in ["a/b", "/a/b/", "/a//b", "/a/+", " /a/b", ""] {
            assert!(entry_topic(raw).is_err(), "{raw:?}");
        }
    }

    /// A node frame over generated entries under `/r0/n0`.
    fn generated_frame() -> impl Strategy<Value = (Vec<u8>, Vec<(String, ReadingBatch)>)> {
        let entry = (
            0u32..40,
            prop::collection::vec((any::<u64>(), any::<i64>()), 1..6),
        );
        prop::collection::vec(entry, 1..8).prop_map(|raw| {
            let entries: Vec<(String, ReadingBatch)> = raw
                .into_iter()
                .map(|(s, rows)| {
                    let (ts, values) = rows.into_iter().unzip();
                    (
                        format!("/r0/n0/s{s}"),
                        ReadingBatch::from_columns(ts, values),
                    )
                })
                .collect();
            let mut frame = vec![FRAME_VERSION_NODE];
            frame.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (topic, batch) in &entries {
                push_entry(&mut frame, topic, &batch.ts, &batch.values).unwrap();
            }
            (frame, entries)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The decoder returns exactly the encoded entries or an error,
        /// and never panics: every truncation, a length field inflated
        /// at any of its positions, a topic byte made non-UTF-8, and
        /// trailing bytes.
        #[test]
        fn the_decoder_returns_the_entries_or_an_error(
            (frame, want) in generated_frame(),
            pick in any::<u64>(),
            inflate in prop_oneof![Just(u32::MAX), Just(u32::MAX >> 1), Just(1u32 << 31 | 1 << 30), 1u32..1000],
        ) {
            let node = t("/r0/n0");
            prop_assert_eq!(entries(&node, &frame).unwrap(), want.clone());
            prop_assert_eq!(frame_readings(&node, &frame), want.iter().map(|(_, b)| b.len()).sum::<usize>());
            for cut in 0..frame.len() {
                prop_assert!(entries(&node, &frame[..cut]).is_err());
            }
            // Every field offset: the frame's entry count, then each
            // entry's topic length and reading count.
            let mut fields = vec![(1usize, 4usize)];
            let mut at = 5;
            for (topic, batch) in &want {
                fields.push((at, 2));
                fields.push((at + 2 + topic.len(), 4));
                at += 2 + topic.len() + 4 + batch.len() * READING_WIRE_SIZE;
            }
            let (offset, width) = fields[pick as usize % fields.len()];
            let mut inflated = frame.clone();
            let bytes = inflate.to_le_bytes();
            inflated[offset..offset + width].copy_from_slice(&bytes[..width]);
            if inflated != frame {
                prop_assert!(entries(&node, &inflated).is_err());
            }
            let mut utf8 = frame.clone();
            let (topic_at, _) = fields[1];
            utf8[topic_at + 2 + 1 + (pick as usize % 4)] = 0xfe;
            prop_assert!(entries(&node, &utf8).is_err());
            let mut trailing = frame.clone();
            trailing.extend_from_slice(&pick.to_le_bytes()[..1 + pick as usize % 8]);
            prop_assert!(entries(&node, &trailing).is_err());
        }
    }
}
