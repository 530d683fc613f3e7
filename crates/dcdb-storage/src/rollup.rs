//! Continuous-aggregation rollup tiers.
//!
//! Every insert into the durable engine also feeds a set of streaming
//! *rollup tiers* (raw → 10s → 5min by default): per sensor and per
//! tier-width bucket, an [`AggFrame`] carries `{count, sum, min, max,
//! first, last}` so aggregate queries over long ranges can be answered
//! from a handful of frames instead of re-scanning raw readings — the
//! continuous-aggregation approach ROADMAP item 4 calls for and the ODA
//! literature (PAPERS.md) uses to keep dashboard-style query load
//! independent of retention.
//!
//! ## Correctness invariant
//!
//! A frame always equals the aggregate of the *deduplicated* raw
//! readings of its bucket, as served by the engine's merged query path.
//! The accumulator guarantees this with a two-speed design:
//!
//! * **fold** (fast path): a reading whose timestamp is strictly newer
//!   than everything previously folded into its bucket is merged into
//!   the frame in O(1);
//! * **recompute** (slow path): anything else — out-of-order arrivals,
//!   duplicate timestamps (which the raw path resolves
//!   newest-generation-wins), or a bucket the accumulator has never
//!   seen (it may have history in sealed segments) — triggers a full
//!   re-aggregation of that bucket from the engine's raw query.
//!
//! Frames therefore never double-count a reading that exists in both a
//! sealed segment and the memtable, and never count a timestamp twice.
//!
//! ## Durability and footprint
//!
//! Hot frames live in memory and are persisted as *rollup segments*
//! (`rlu-<seq>.rsg`, one per tier per seal) whenever the engine seals
//! its memtable. Only *open* frames stay hot: once a tier is sealed it
//! keeps, per sensor, just its newest bucket (the one the fold is still
//! extending) until new readings dirty more; every sealed frame is
//! served from its segment. A bucket written by several seals has one
//! version per file; the engine compacts each tier's segments like raw
//! ones, the newest version winning. The frames themselves are **not**
//! WAL-journaled: after a crash the engine replays the raw WAL into its
//! memtable and rebuilds the affected frames from that raw replay (see
//! `DurableBackend::open_with`), so rollup durability rides entirely on
//! the raw WAL. A frame lost between raw seal and rollup seal merely
//! degrades the planner to the raw path for that bucket.

use crate::compress::{get_uvarint, put_uvarint, unzigzag, zigzag};
use crate::io::StorageIo;
use crate::sealed::{self, Block, Format, SealedFile};
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::NS_PER_SEC;
use dcdb_common::topic::Topic;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Default tier widths: 10 seconds and 5 minutes.
pub const DEFAULT_TIER_WIDTHS_NS: [u64; 2] = [10 * NS_PER_SEC, 300 * NS_PER_SEC];

/// One rollup tier: a bucket width plus its own retention horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Bucket width in nanoseconds (must be > 0).
    pub width_ns: u64,
    /// Drop frames whose bucket ends before `now - retention_ns` during
    /// maintenance; `None` keeps frames forever (coarse tiers usually
    /// outlive the raw retention horizon — that is the point).
    pub retention_ns: Option<u64>,
}

impl TierSpec {
    /// A tier with no retention limit.
    pub const fn new(width_ns: u64) -> TierSpec {
        TierSpec {
            width_ns,
            retention_ns: None,
        }
    }
}

/// Rollup tuning knobs, part of `DurableConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupConfig {
    /// Tiers in ascending width order; empty disables rollups.
    pub tiers: Vec<TierSpec>,
}

impl Default for RollupConfig {
    fn default() -> Self {
        RollupConfig {
            tiers: DEFAULT_TIER_WIDTHS_NS.map(TierSpec::new).to_vec(),
        }
    }
}

impl RollupConfig {
    /// A config with rollups disabled.
    pub fn disabled() -> RollupConfig {
        RollupConfig { tiers: Vec::new() }
    }
}

/// The start of the bucket of width `width_ns` containing `ts_ns`.
#[inline]
pub fn bucket_start(ts_ns: u64, width_ns: u64) -> u64 {
    ts_ns - ts_ns % width_ns
}

/// One pre-aggregated bucket: the mergeable summary of every raw
/// reading with `bucket_ns <= ts < bucket_ns + width`.
///
/// `count`, `sum`, `min` and `max` form a commutative merge algebra
/// (sums/counts add, min/max compare), so partial frames from federated
/// shards combine exactly; `avg` is *derived* (`sum / count`) and must
/// only ever be computed after the merge. `first`/`last` carry their
/// timestamps so the merge can pick the globally earliest/latest value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggFrame {
    /// Bucket start, nanoseconds.
    pub bucket_ns: u64,
    /// Readings aggregated.
    pub count: u64,
    /// Saturating sum of values.
    pub sum: i64,
    /// Minimum value.
    pub min: i64,
    /// Maximum value.
    pub max: i64,
    /// Value at the earliest timestamp.
    pub first: i64,
    /// Value at the latest timestamp.
    pub last: i64,
    /// Earliest timestamp aggregated, nanoseconds.
    pub first_ts: u64,
    /// Latest timestamp aggregated, nanoseconds.
    pub last_ts: u64,
}

impl AggFrame {
    /// A frame seeded from its first reading.
    pub fn seed(bucket_ns: u64, ts_ns: u64, value: i64) -> AggFrame {
        AggFrame {
            bucket_ns,
            count: 1,
            sum: value,
            min: value,
            max: value,
            first: value,
            last: value,
            first_ts: ts_ns,
            last_ts: ts_ns,
        }
    }

    /// Folds one reading into the frame, in any timestamp order.
    pub fn observe(&mut self, ts_ns: u64, value: i64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if ts_ns < self.first_ts {
            self.first_ts = ts_ns;
            self.first = value;
        }
        if ts_ns >= self.last_ts {
            self.last_ts = ts_ns;
            self.last = value;
        }
    }

    /// Aggregates timestamp-ordered, deduplicated readings into one
    /// frame per bucket. This is the recompute/rebuild path; the input
    /// must already carry raw-query semantics (ascending, unique ts).
    pub fn from_readings(width_ns: u64, readings: &[SensorReading]) -> Vec<AggFrame> {
        let mut out: Vec<AggFrame> = Vec::new();
        for r in readings {
            let ts = r.ts.as_nanos();
            let bucket = bucket_start(ts, width_ns);
            match out.last_mut() {
                Some(f) if f.bucket_ns == bucket => f.observe(ts, r.value),
                _ => out.push(AggFrame::seed(bucket, ts, r.value)),
            }
        }
        out
    }

    /// Merges a disjoint partial frame of the same bucket (federation
    /// algebra): counts and sums add, min/max compare, first/last pick
    /// by timestamp. The caller is responsible for the partials being
    /// disjoint — merging overlapping frames double-counts.
    pub fn merge(&mut self, other: &AggFrame) {
        debug_assert_eq!(self.bucket_ns, other.bucket_ns);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.first_ts < self.first_ts {
            self.first_ts = other.first_ts;
            self.first = other.first;
        }
        if other.last_ts >= self.last_ts {
            self.last_ts = other.last_ts;
            self.last = other.last;
        }
    }

    /// The derived average; `None` for an empty frame.
    pub fn avg(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    fn to_cols(self) -> [u64; 9] {
        [
            self.bucket_ns,
            self.count,
            self.sum as u64,
            self.min as u64,
            self.max as u64,
            self.first as u64,
            self.last as u64,
            self.first_ts,
            self.last_ts,
        ]
    }

    fn from_cols(c: [u64; 9]) -> AggFrame {
        AggFrame {
            bucket_ns: c[0],
            count: c[1],
            sum: c[2] as i64,
            min: c[3] as i64,
            max: c[4] as i64,
            first: c[5] as i64,
            last: c[6] as i64,
            first_ts: c[7],
            last_ts: c[8],
        }
    }
}

/// Counters kept by the accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollupStats {
    /// Readings folded via the O(1) ascending fast path.
    pub folds: u64,
    /// Buckets re-aggregated from the raw query path.
    pub recomputes: u64,
    /// Frames currently held in memory across all tiers: each topic's
    /// open bucket plus the frames dirtied since the last rollup seal.
    pub hot_frames: usize,
    /// Hot frames modified since the last rollup seal.
    pub dirty_frames: usize,
}

struct HotFrame {
    frame: AggFrame,
    dirty: bool,
}

struct TopicAccum {
    frames: BTreeMap<u64, HotFrame>,
    /// Highest raw timestamp incorporated for this (tier, topic);
    /// buckets entirely above it provably have no prior history.
    watermark: Option<u64>,
}

struct TierAccum {
    spec: TierSpec,
    topics: HashMap<Topic, TopicAccum>,
}

/// The in-memory streaming accumulator: per tier, per sensor, the hot
/// [`AggFrame`]s plus the bookkeeping that keeps them exact. Owned by
/// the durable engine behind a mutex.
pub struct RollupState {
    tiers: Vec<TierAccum>,
    folds: u64,
    recomputes: u64,
}

impl RollupState {
    /// An accumulator for the given tier set.
    pub fn new(config: &RollupConfig) -> RollupState {
        RollupState {
            tiers: config
                .tiers
                .iter()
                .filter(|t| t.width_ns > 0)
                .map(|spec| TierAccum {
                    spec: *spec,
                    topics: HashMap::new(),
                })
                .collect(),
            folds: 0,
            recomputes: 0,
        }
    }

    /// Tier specs, ascending by width.
    pub fn tier_specs(&self) -> Vec<TierSpec> {
        self.tiers.iter().map(|t| t.spec).collect()
    }

    /// Feeds a batch of readings for `topic` into every tier. `raw`
    /// must answer a deduplicated, timestamp-ordered range query over
    /// the engine's full truth (segments + sealing + memtable,
    /// *including* this batch, which the caller has already inserted).
    pub fn apply<F>(&mut self, topic: &Topic, batch: &[(u64, i64)], raw: F)
    where
        F: Fn(u64, u64) -> Vec<SensorReading>,
    {
        if batch.is_empty() {
            return;
        }
        let mut folds = 0u64;
        let mut recomputes = 0u64;
        for tier in &mut self.tiers {
            let width = tier.spec.width_ns;
            let accum = tier
                .topics
                .entry(topic.clone())
                .or_insert_with(|| TopicAccum {
                    frames: BTreeMap::new(),
                    watermark: None,
                });
            let mut recompute: BTreeSet<u64> = BTreeSet::new();
            let mut batch_max = 0u64;
            for &(ts, value) in batch {
                batch_max = batch_max.max(ts);
                let bucket = bucket_start(ts, width);
                if recompute.contains(&bucket) {
                    continue;
                }
                match accum.frames.get_mut(&bucket) {
                    Some(hot) if ts > hot.frame.last_ts => {
                        hot.frame.observe(ts, value);
                        hot.dirty = true;
                        folds += 1;
                    }
                    Some(_) => {
                        // Duplicate or out-of-order timestamp: the raw
                        // path dedups newest-wins; only a recompute can
                        // mirror that exactly.
                        recompute.insert(bucket);
                    }
                    None => {
                        if accum.watermark.is_some_and(|w| bucket > w) {
                            accum.frames.insert(
                                bucket,
                                HotFrame {
                                    frame: AggFrame::seed(bucket, ts, value),
                                    dirty: true,
                                },
                            );
                            folds += 1;
                        } else {
                            // The bucket may have history the
                            // accumulator never saw (sealed segments,
                            // sealed frames let go, fresh open).
                            recompute.insert(bucket);
                        }
                    }
                }
            }
            for bucket in recompute {
                let readings = raw(bucket, bucket + width - 1);
                recomputes += 1;
                match AggFrame::from_readings(width, &readings).into_iter().next() {
                    Some(frame) => {
                        accum.frames.insert(bucket, HotFrame { frame, dirty: true });
                    }
                    None => {
                        accum.frames.remove(&bucket);
                    }
                }
            }
            accum.watermark = Some(accum.watermark.unwrap_or(0).max(batch_max));
        }
        self.folds += folds;
        self.recomputes += recomputes;
    }

    /// Rebuilds frames for `topic` from timestamp-ordered, deduplicated
    /// raw readings (the recovery path after a WAL replay). Existing
    /// frames for the touched buckets are replaced.
    pub fn rebuild_topic(&mut self, topic: &Topic, readings: &[SensorReading]) {
        if readings.is_empty() {
            return;
        }
        let max_ts = readings.last().map(|r| r.ts.as_nanos()).unwrap_or(0);
        for tier in &mut self.tiers {
            let frames = AggFrame::from_readings(tier.spec.width_ns, readings);
            let accum = tier
                .topics
                .entry(topic.clone())
                .or_insert_with(|| TopicAccum {
                    frames: BTreeMap::new(),
                    watermark: None,
                });
            for frame in frames {
                accum
                    .frames
                    .insert(frame.bucket_ns, HotFrame { frame, dirty: true });
            }
            accum.watermark = Some(accum.watermark.unwrap_or(0).max(max_ts));
            self.recomputes += 1;
        }
    }

    /// Hot frames of the `width_ns` tier whose buckets overlap
    /// `[t0, t1]`, ascending by bucket.
    pub fn query_hot(&self, topic: &Topic, width_ns: u64, t0: u64, t1: u64) -> Vec<AggFrame> {
        let Some(tier) = self.tiers.iter().find(|t| t.spec.width_ns == width_ns) else {
            return Vec::new();
        };
        let Some(accum) = tier.topics.get(topic) else {
            return Vec::new();
        };
        let lo = bucket_start(t0, width_ns);
        accum.frames.range(lo..=t1).map(|(_, h)| h.frame).collect()
    }

    /// Every dirty frame of the `width_ns` tier, grouped per topic
    /// (topics sorted, frames ascending) — the seal payload.
    pub fn collect_dirty(&self, width_ns: u64) -> Vec<(Topic, Vec<AggFrame>)> {
        let Some(tier) = self.tiers.iter().find(|t| t.spec.width_ns == width_ns) else {
            return Vec::new();
        };
        let mut out: Vec<(Topic, Vec<AggFrame>)> = tier
            .topics
            .iter()
            .filter_map(|(topic, accum)| {
                let frames: Vec<AggFrame> = accum
                    .frames
                    .values()
                    .filter(|h| h.dirty)
                    .map(|h| h.frame)
                    .collect();
                if frames.is_empty() {
                    None
                } else {
                    Some((topic.clone(), frames))
                }
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Marks the tier sealed: every frame it holds was just written to a
    /// rollup segment, so each topic keeps only its newest (open) bucket,
    /// clean, for the fast fold to extend. The segments serve the rest.
    pub fn mark_sealed(&mut self, width_ns: u64) {
        let Some(tier) = self.tiers.iter_mut().find(|t| t.spec.width_ns == width_ns) else {
            return;
        };
        for accum in tier.topics.values_mut() {
            while accum.frames.len() > 1 {
                accum.frames.pop_first();
            }
            for hot in accum.frames.values_mut() {
                hot.dirty = false;
            }
        }
    }

    /// Drops hot frames of the tier whose bucket ends at or before
    /// `cutoff_ns`. Returns frames dropped.
    pub fn evict_before(&mut self, width_ns: u64, cutoff_ns: u64) -> usize {
        let Some(tier) = self.tiers.iter_mut().find(|t| t.spec.width_ns == width_ns) else {
            return 0;
        };
        let mut dropped = 0usize;
        for accum in tier.topics.values_mut() {
            let keep = accum
                .frames
                .split_off(&cutoff_ns.saturating_sub(width_ns - 1));
            dropped += accum.frames.len();
            accum.frames = keep;
        }
        dropped
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RollupStats {
        let mut hot = 0usize;
        let mut dirty = 0usize;
        for tier in &self.tiers {
            for accum in tier.topics.values() {
                hot += accum.frames.len();
                dirty += accum.frames.values().filter(|h| h.dirty).count();
            }
        }
        RollupStats {
            folds: self.folds,
            recomputes: self.recomputes,
            hot_frames: hot,
            dirty_frames: dirty,
        }
    }
}

// ---------------------------------------------------------------------
// Rollup segments: the shared sealed-file container (`crate::sealed`) with
// the tier's `width_ns` as its 8-byte header extension, blocks keyed by
// bucket start.
//
// A frame block is columnar: frame count u32, then nine columns
// (bucket, count, sum, min, max, first, last, first_ts, last_ts), each
// stored as a raw first value followed by zigzag-varint wrapping deltas
// — the same delta style as the raw Gorilla blocks, which compresses
// the regular bucket stride and slow-moving sums well.
// ---------------------------------------------------------------------

pub(crate) const FORMAT: Format = Format {
    magic: b"DCRLSEG1",
    magic_end: b"DCRLEND1",
    ext_len: 8,
    kind: "rollup segment",
};
const COLS: usize = 9;

/// Encodes frames (ascending by bucket) into one columnar block.
fn encode_frames(frames: &[AggFrame]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + frames.len() * 12);
    buf.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    for col in 0..COLS {
        let mut prev = 0u64;
        for (i, frame) in frames.iter().enumerate() {
            let cur = frame.to_cols()[col];
            if i == 0 {
                buf.extend_from_slice(&cur.to_le_bytes());
            } else {
                put_uvarint(&mut buf, zigzag(cur.wrapping_sub(prev) as i64));
            }
            prev = cur;
        }
    }
    buf
}

/// Decodes one columnar block back into frames.
fn decode_frames(block: &[u8]) -> Result<Vec<AggFrame>> {
    let corrupt = |what: &str| DcdbError::Parse(format!("rollup block: {what}"));
    if block.len() < 4 {
        return Err(corrupt("truncated header"));
    }
    let count = u32::from_le_bytes(block[0..4].try_into().unwrap()) as usize;
    // The count is read from disk: the first frame costs nine raw words
    // and every later one at least nine varint bytes, so anything larger
    // cannot decode — refuse it before allocating for it.
    if count > 1 + block.len().saturating_sub(4 + COLS * 8) / COLS {
        return Err(corrupt("frame count exceeds block size"));
    }
    let mut pos = 4usize;
    let mut cols = vec![[0u64; COLS]; count];
    for col in 0..COLS {
        let mut prev = 0u64;
        for (i, row) in cols.iter_mut().enumerate() {
            let cur = if i == 0 {
                let bytes = block
                    .get(pos..pos + 8)
                    .ok_or_else(|| corrupt("truncated column"))?;
                pos += 8;
                u64::from_le_bytes(bytes.try_into().unwrap())
            } else {
                let delta = get_uvarint(block, &mut pos).ok_or_else(|| corrupt("bad varint"))?;
                prev.wrapping_add(unzigzag(delta) as u64)
            };
            row[col] = cur;
            prev = cur;
        }
    }
    if pos != block.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(cols.into_iter().map(AggFrame::from_cols).collect())
}

/// Writes a rollup segment for one tier from per-topic frames (each
/// ascending by bucket), pulling one topic at a time; topics with no
/// frames are skipped. See [`sealed::write`] for the failure contract.
pub fn write_rollup_segment_with<'a, F: AsRef<[AggFrame]>>(
    io: &dyn StorageIo,
    path: &Path,
    width_ns: u64,
    entries: impl IntoIterator<Item = Result<(&'a Topic, F)>>,
) -> Result<()> {
    let blocks = entries.into_iter().filter_map(|entry| {
        entry
            .map(|(topic, frames)| {
                let frames = frames.as_ref();
                Some(Block {
                    topic,
                    bytes: encode_frames(frames),
                    count: frames.len() as u32,
                    min_key: frames.first()?.bucket_ns,
                    max_key: frames.last()?.bucket_ns,
                })
            })
            .transpose()
    });
    sealed::write(io, path, &FORMAT, &width_ns.to_le_bytes(), blocks)
}

/// Read handle over one sealed rollup segment.
///
/// Unlike raw segments, decoded frame blocks are pinned in memory after
/// the first read: a rollup tier is 1-2 orders of magnitude smaller
/// than the raw history it summarizes (that is its whole point), so the
/// decoded form fits comfortably and turns every later tier query into
/// a binary search over an in-memory slice. Retention eviction drops
/// the reader — and its cache — wholesale.
#[derive(Debug)]
pub struct RollupSegmentReader {
    file: SealedFile,
    width_ns: u64,
    decoded: parking_lot::Mutex<HashMap<Topic, Arc<Vec<AggFrame>>>>,
}

impl AsRef<SealedFile> for RollupSegmentReader {
    fn as_ref(&self) -> &SealedFile {
        &self.file
    }
}

impl RollupSegmentReader {
    /// Opens a rollup segment, validating magics and the index checksum.
    pub fn open_with(io: Arc<dyn StorageIo>, path: &Path) -> Result<RollupSegmentReader> {
        let file = SealedFile::open(io, path, &FORMAT)?;
        let width_ns = u64::from_le_bytes(file.ext().try_into().expect("ext_len is 8"));
        if width_ns == 0 {
            return Err(DcdbError::Parse(format!(
                "rollup segment {}: zero tier width",
                path.display()
            )));
        }
        Ok(RollupSegmentReader {
            file,
            width_ns,
            decoded: parking_lot::Mutex::new(HashMap::new()),
        })
    }

    /// The tier width this segment stores frames for.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Total frames across all blocks.
    pub fn frame_count(&self) -> usize {
        self.file.item_count()
    }

    /// Start of the newest bucket in the segment; `None` when empty.
    pub fn max_bucket(&self) -> Option<u64> {
        self.file.max_key()
    }

    /// Every frame of `topic`, ascending. A block no query has pinned
    /// yet is decoded for this call only: compaction reads each block
    /// once, just before the file is retired.
    pub(crate) fn read_topic(&self, topic: &Topic) -> Result<Vec<AggFrame>> {
        if let Some(all) = self.decoded.lock().get(topic) {
            return Ok(all.to_vec());
        }
        match self.file.meta(topic) {
            Some(meta) => decode_frames(&self.file.read_block(topic, meta)?),
            None => Ok(Vec::new()),
        }
    }

    /// Frames of `topic` whose buckets overlap `[t0, t1]`, ascending.
    pub fn query(&self, topic: &Topic, t0: u64, t1: u64) -> Result<Vec<AggFrame>> {
        let Some(meta) = self.file.meta(topic) else {
            return Ok(Vec::new());
        };
        if meta.max_key.saturating_add(self.width_ns - 1) < t0 || meta.min_key > t1 {
            return Ok(Vec::new());
        }
        let cached = self.decoded.lock().get(topic).map(Arc::clone);
        let all = if let Some(all) = cached {
            all
        } else {
            let all = Arc::new(decode_frames(&self.file.read_block(topic, meta)?)?);
            self.decoded
                .lock()
                .entry(topic.clone())
                .or_insert_with(|| Arc::clone(&all));
            all
        };
        // Blocks are written ascending by bucket, so the overlap is one
        // contiguous run.
        let lo = bucket_start(t0, self.width_ns);
        let from = all.partition_point(|f| f.bucket_ns < lo);
        let to = all.partition_point(|f| f.bucket_ns <= t1);
        Ok(all[from..to].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::StdIo;
    use dcdb_common::time::Timestamp;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn r(v: i64, ts: u64) -> SensorReading {
        SensorReading::new(v, Timestamp(ts))
    }

    #[test]
    fn frame_observe_any_order_matches_from_readings() {
        let width = 10;
        let readings = [r(5, 3), r(-2, 7), r(9, 1), r(0, 9)];
        let mut sorted = readings.to_vec();
        sorted.sort_by_key(|x| x.ts);
        let reference = AggFrame::from_readings(width, &sorted);
        assert_eq!(reference.len(), 1);
        let mut f = AggFrame::seed(0, 3, 5);
        f.observe(7, -2);
        f.observe(1, 9);
        f.observe(9, 0);
        assert_eq!(f, reference[0]);
        assert_eq!(f.count, 4);
        assert_eq!(f.sum, 12);
        assert_eq!(f.min, -2);
        assert_eq!(f.max, 9);
        assert_eq!(f.first, 9);
        assert_eq!(f.last, 0);
    }

    #[test]
    fn frame_merge_is_exact_over_disjoint_partials() {
        let width = 100;
        let all: Vec<SensorReading> = (0..10).map(|i| r(i * 3 - 5, i as u64 * 7)).collect();
        let reference = AggFrame::from_readings(width, &all);
        let left = AggFrame::from_readings(width, &all[..4]);
        let right = AggFrame::from_readings(width, &all[4..]);
        let mut merged = left[0];
        merged.merge(&right[0]);
        assert_eq!(merged, reference[0]);
    }

    #[test]
    fn frame_sum_saturates_instead_of_wrapping() {
        let mut f = AggFrame::seed(0, 1, i64::MAX);
        f.observe(2, i64::MAX);
        assert_eq!(f.sum, i64::MAX);
        assert_eq!(f.count, 2);
    }

    #[test]
    fn accumulator_fold_matches_recompute() {
        let width = 10;
        let config = RollupConfig {
            tiers: vec![TierSpec::new(width)],
        };
        let mut state = RollupState::new(&config);
        let topic = t("/r0/n0/power");
        let all: Vec<SensorReading> = (0..35).map(|i| r(i as i64, i)).collect();
        let raw = |upto: usize, t0: u64, t1: u64| -> Vec<SensorReading> {
            all[..upto]
                .iter()
                .filter(|x| x.ts.as_nanos() >= t0 && x.ts.as_nanos() <= t1)
                .copied()
                .collect()
        };
        let batch: Vec<(u64, i64)> = all.iter().map(|x| (x.ts.as_nanos(), x.value)).collect();
        state.apply(&topic, &batch[..20], |t0, t1| raw(20, t0, t1));
        state.apply(&topic, &batch[20..], |t0, t1| raw(35, t0, t1));
        let frames = state.query_hot(&topic, width, 0, u64::MAX);
        let reference = AggFrame::from_readings(width, &all);
        assert_eq!(frames, reference);
        // The second, strictly-ascending batch folds in O(1): its first
        // readings extend the open bucket, the rest seed fresh buckets
        // above the watermark.
        assert!(state.stats().folds > 0);
    }

    #[test]
    fn accumulator_duplicate_timestamp_triggers_recompute_not_double_count() {
        let width = 10;
        let config = RollupConfig {
            tiers: vec![TierSpec::new(width)],
        };
        let mut state = RollupState::new(&config);
        let topic = t("/r0/n0/power");
        // Raw truth after dedup: ts 1 -> 7 (overwritten), ts 5 -> 2.
        let truth = [r(7, 1), r(2, 5)];
        let raw = |t0: u64, t1: u64| -> Vec<SensorReading> {
            truth
                .iter()
                .filter(|x| x.ts.as_nanos() >= t0 && x.ts.as_nanos() <= t1)
                .copied()
                .collect()
        };
        state.apply(&topic, &[(1, 3), (5, 2)], raw);
        // Overwrite ts 1 with 7: duplicate timestamp, must recompute.
        state.apply(&topic, &[(1, 7)], raw);
        let frames = state.query_hot(&topic, width, 0, u64::MAX);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].count, 2);
        assert_eq!(frames[0].sum, 9);
    }

    #[test]
    fn rollup_segment_roundtrip_and_query() {
        let dir = std::env::temp_dir().join(format!("dcdb-rollup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rlu-0000000001.rsg");
        let width = 10 * NS_PER_SEC;
        let frames: Vec<AggFrame> = (0..50)
            .map(|i| {
                let mut f = AggFrame::seed(i * width, i * width + 1, i as i64 * 3 - 11);
                f.observe(i * width + 5, -(i as i64));
                f
            })
            .collect();
        let topic = t("/r0/n0/power");
        write_rollup_segment_with(&StdIo, &path, width, [Ok((&topic, &frames))]).unwrap();
        let reader = RollupSegmentReader::open_with(Arc::new(StdIo), &path).unwrap();
        assert_eq!(reader.width_ns(), width);
        assert_eq!(reader.frame_count(), 50);
        let all = reader.query(&t("/r0/n0/power"), 0, u64::MAX).unwrap();
        assert_eq!(all, frames);
        // Range filter: buckets 10..=12 inclusive-overlap.
        let some = reader
            .query(&t("/r0/n0/power"), 10 * width + 1, 12 * width + 1)
            .unwrap();
        assert_eq!(some.len(), 3);
        assert_eq!(some[0].bucket_ns, 10 * width);
        assert!(reader
            .query(&t("/r0/n0/other"), 0, u64::MAX)
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
