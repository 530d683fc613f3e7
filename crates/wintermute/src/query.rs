//! The Query Engine (paper §V-B).
//!
//! A singleton component exposing the space of available sensors to
//! operator plugins. It:
//!
//! * hands out the current [`SensorNavigator`] (the Unit System's tree);
//! * serves time-range queries, **preferring the local sensor caches**
//!   and falling back to the Storage Backend only when the requested
//!   range reaches past what the cache holds (Collect Agent deployments)
//!   or the sensor is not cached at all;
//! * supports the two query modes of the paper: *relative* (offset
//!   against the most recent reading, O(1) cache view) and *absolute*
//!   (timestamp pair, O(log N) binary search).
//!
//! Writes go through [`QueryEngine::insert`], which updates the cache
//! and is the hook through which operator outputs become inputs of other
//! operators (analysis pipelines, §IV-B d).

use crate::tree::SensorNavigator;
use dcdb_bus::TopicFilter;
use dcdb_common::batch::ReadingBatch;
use dcdb_common::cache::{PushOutcome, SensorCache};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_storage::{rollup::bucket_start, AggFrame, StorageEngine};
use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a query addresses time (paper §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// The most recent reading only.
    Latest,
    /// Readings within `offset_ns` of the most recent one (O(1) cache
    /// path).
    Relative {
        /// Window size counted back from the newest reading.
        offset_ns: u64,
    },
    /// Readings in the absolute range `[t0, t1]` (O(log N) cache path,
    /// storage fallback for older data).
    Absolute {
        /// Range start (inclusive).
        t0: Timestamp,
        /// Range end (inclusive).
        t1: Timestamp,
    },
}

/// Counters for the cache-vs-storage ablation and footprint reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct QueryStats {
    /// Queries answered purely from the sensor cache.
    pub cache_hits: u64,
    /// Queries that had to touch the storage backend.
    pub storage_fallbacks: u64,
    /// Queries for sensors with no data anywhere.
    pub misses: u64,
    /// Readings inserted.
    pub inserts: u64,
    /// Inserts the storage engine refused to acknowledge (e.g. a
    /// durable backend failing to journal); the reading stays cached
    /// but is not guaranteed to survive a restart.
    pub storage_errors: u64,
    /// Readings a sensor cache refused as not newer than its latest
    /// (the storage engine, when attached, still takes them).
    pub cache_rejected: u64,
    /// Aggregate (`query_agg`) requests served.
    pub agg_queries: u64,
    /// Sub-buckets of aggregate queries served from rollup frames.
    pub agg_tier_buckets: u64,
    /// Sub-buckets of aggregate queries that fell back to raw readings.
    pub agg_raw_buckets: u64,
}

/// An aggregate function servable from rollup frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Arithmetic mean — *derived* from `sum / count` after any merge,
    /// never merged directly (averaging averages is wrong).
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Sum of values (saturating, like the frames).
    Sum,
    /// Number of readings.
    Count,
}

impl AggFunc {
    /// Parses the REST `agg=` parameter (case-insensitive).
    pub fn parse(s: &str) -> Option<AggFunc> {
        match s.to_ascii_lowercase().as_str() {
            "avg" | "mean" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "sum" => Some(AggFunc::Sum),
            "count" => Some(AggFunc::Count),
            _ => None,
        }
    }

    /// The canonical parameter spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
        }
    }

    /// Evaluates the function over one (merged) frame. `None` only for
    /// an empty frame's average, which callers skip rather than emit.
    pub fn apply(&self, frame: &AggFrame) -> Option<f64> {
        match self {
            AggFunc::Avg => frame.avg(),
            AggFunc::Min => Some(frame.min as f64),
            AggFunc::Max => Some(frame.max as f64),
            AggFunc::Sum => Some(frame.sum as f64),
            AggFunc::Count => Some(frame.count as f64),
        }
    }
}

/// How [`QueryEngine::query_agg`] served a request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggPlan {
    /// Rollup tier width chosen by the planner; 0 when the query was
    /// answered entirely from raw readings.
    pub tier_ns: u64,
    /// Tier sub-buckets served from rollup frames.
    pub buckets_from_tier: usize,
    /// Sub-buckets (or raw-path grid buckets) aggregated from raw
    /// readings.
    pub buckets_from_raw: usize,
}

/// One aggregate query result: per-step frames on an absolute grid
/// (`bucket_ns` is a multiple of `step_ns`), empty buckets omitted.
/// The frames carry the full mergeable algebra so a federation router
/// can combine results from shards before deriving `avg`.
#[derive(Debug, Clone, Default)]
pub struct AggSeries {
    /// Grid step, nanoseconds.
    pub step_ns: u64,
    /// Non-empty grid buckets, ascending.
    pub frames: Vec<AggFrame>,
    /// How the planner served it.
    pub plan: AggPlan,
}

/// Copies into `buf` what `mode` selects of `cache`. `Ok` when the cache
/// alone answers the read; otherwise `Err`, which for an absolute range
/// reaching past a non-empty cache (with a storage engine attached) holds
/// the cache's oldest timestamp, `buf` then holding the cached part.
fn cached(
    cache: &SensorCache,
    mode: QueryMode,
    has_storage: bool,
    buf: &mut Vec<SensorReading>,
) -> Result<(), Option<Timestamp>> {
    match mode {
        QueryMode::Latest => cache.read_relative(0, buf),
        QueryMode::Relative { offset_ns } => cache.read_relative(offset_ns, buf),
        QueryMode::Absolute { t0, t1 } => {
            return match cache.read_absolute(t0, t1, buf) {
                // In range, or no storage to reach back into: clipped to
                // the cache (the answer may be empty and is still a hit).
                Some(oldest) if t0 >= oldest || !has_storage => Ok(()),
                tail => Err(tail),
            };
        }
    };
    if buf.is_empty() {
        Err(None)
    } else {
        Ok(())
    }
}

/// Distinguishes engines, so a unit bound in one is not read in another.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// The per-process query engine.
pub struct QueryEngine {
    id: u64,
    navigator: RwLock<Arc<SensorNavigator>>,
    /// Entries are never removed, so a cache a unit has found stays the
    /// sensor's cache for the engine's life.
    caches: RwLock<HashMap<Topic, Arc<SensorCache>>>,
    storage: Option<Arc<dyn StorageEngine>>,
    cache_capacity: usize,
    cache_hits: AtomicU64,
    storage_fallbacks: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    storage_errors: AtomicU64,
    cache_rejected: AtomicU64,
    agg_queries: AtomicU64,
    agg_tier_buckets: AtomicU64,
    agg_raw_buckets: AtomicU64,
}

impl QueryEngine {
    /// Creates an engine with per-sensor caches of `cache_capacity`
    /// readings and no storage backend (Pusher deployment: "operators
    /// have only access to locally-sampled sensors and their sensor
    /// cache data").
    pub fn new(cache_capacity: usize) -> QueryEngine {
        QueryEngine {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            navigator: RwLock::new(Arc::new(SensorNavigator::build(
                std::iter::empty::<&Topic>(),
            ))),
            caches: RwLock::new(HashMap::new()),
            storage: None,
            cache_capacity,
            cache_hits: AtomicU64::new(0),
            storage_fallbacks: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            storage_errors: AtomicU64::new(0),
            cache_rejected: AtomicU64::new(0),
            agg_queries: AtomicU64::new(0),
            agg_tier_buckets: AtomicU64::new(0),
            agg_raw_buckets: AtomicU64::new(0),
        }
    }

    /// Creates an engine backed by a storage engine (Collect Agent
    /// deployment: "data is retrieved from the local sensor cache, if
    /// possible, or otherwise queried from the Storage Backend"): a
    /// [`dcdb_storage::DurableBackend`] over a data directory or an
    /// in-memory disk, or a wrapper around one.
    pub fn with_storage(cache_capacity: usize, storage: Arc<dyn StorageEngine>) -> QueryEngine {
        QueryEngine {
            storage: Some(storage),
            ..QueryEngine::new(cache_capacity)
        }
    }

    /// This engine's identity among the process's engines.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Replaces the sensor navigator (called after sensor discovery or
    /// when plugins add output sensors).
    pub fn set_navigator(&self, nav: SensorNavigator) {
        *self.navigator.write() = Arc::new(nav);
    }

    /// Rebuilds the navigator from every sensor currently known to the
    /// engine (cached or stored).
    pub fn rebuild_navigator(&self) {
        *self.navigator.write() = Arc::new(SensorNavigator::build(self.topics().iter()));
    }

    /// The current navigator snapshot.
    pub fn navigator(&self) -> Arc<SensorNavigator> {
        Arc::clone(&self.navigator.read())
    }

    /// Inserts a reading for `topic`, creating its cache on first sight,
    /// and forwarding to the storage backend when one is attached.
    pub fn insert(&self, topic: &Topic, reading: SensorReading) {
        self.add_inserts(1);
        self.insert_bound(&self.bind_or_create(topic), topic, reading);
    }

    /// [`QueryEngine::insert`] into a cache already found, leaving
    /// `inserts` to the caller ([`QueryEngine::add_inserts`]).
    pub(crate) fn insert_bound(&self, cache: &SensorCache, topic: &Topic, reading: SensorReading) {
        if cache.push(reading) == PushOutcome::RejectedStale {
            self.add_rejected(1);
        }
        if let Some(storage) = &self.storage {
            if storage.insert(topic, reading).is_err() {
                self.storage_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Columnar batch insert in one cache write: the per-sensor ring
    /// buffer takes readings row by row, but the packed columns flow to
    /// the storage engine without a transpose.
    pub fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) {
        self.inserts
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.add_rejected(self.bind_or_create(topic).push_all(batch.iter()));
        if let Some(storage) = &self.storage {
            if storage.insert_columns(topic, batch).is_err() {
                self.storage_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Inserts a group of columnar batches — one Collect Agent drain —
    /// in order: every batch goes into its sensor's cache, then the
    /// storage engine takes the group in one call, so a durable engine
    /// journals it in as few writes as its sync policy allows. Returns
    /// how many sensors had no cache yet; when that is not zero the
    /// caller owes them a [`QueryEngine::rebuild_navigator`]. (A cache
    /// another thread creates between the lookup and the creation is
    /// counted too: one rebuild more than needed, never one fewer.)
    pub fn insert_many(&self, group: &[(Topic, ReadingBatch)]) -> usize {
        let mut readings = 0u64;
        let mut created = 0usize;
        let mut rejected = 0usize;
        for (topic, batch) in group {
            readings += batch.len() as u64;
            let cache = self.bind(topic).unwrap_or_else(|| {
                created += 1;
                self.bind_or_create(topic)
            });
            rejected += cache.push_all(batch.iter());
        }
        self.add_inserts(readings);
        self.add_rejected(rejected);
        if let Some(storage) = &self.storage {
            let refused = storage.insert_many(group).len() as u64;
            self.storage_errors.fetch_add(refused, Ordering::Relaxed);
        }
        created
    }

    /// `topic`'s cache, if the engine has one.
    pub(crate) fn bind(&self, topic: &Topic) -> Option<Arc<SensorCache>> {
        self.caches.read().get(topic).map(Arc::clone)
    }

    /// `topic`'s cache, created on first sight.
    pub(crate) fn bind_or_create(&self, topic: &Topic) -> Arc<SensorCache> {
        if let Some(c) = self.bind(topic) {
            return c;
        }
        let mut caches = self.caches.write();
        Arc::clone(
            caches
                .entry(topic.clone())
                .or_insert_with(|| Arc::new(SensorCache::new(self.cache_capacity))),
        )
    }

    /// True if the engine has a cache for `topic`.
    pub fn knows(&self, topic: &Topic) -> bool {
        self.caches.read().contains_key(topic)
    }

    /// Executes a query. Cache-first; falls back to storage for
    /// absolute ranges that reach past the cache contents.
    pub fn query(&self, topic: &Topic, mode: QueryMode) -> Vec<SensorReading> {
        let mut buf = Vec::new();
        self.read(topic, mode, &mut buf);
        buf
    }

    /// [`QueryEngine::query`] handed to `f`. The answer is a copy and no
    /// guard is held while `f` runs, so `f` may call back into the
    /// engine, an insert into the same sensor included.
    pub fn view<R>(
        &self,
        topic: &Topic,
        mode: QueryMode,
        f: impl FnOnce(&[SensorReading]) -> R,
    ) -> R {
        f(&self.query(topic, mode))
    }

    /// [`QueryEngine::read`] through a cache already found: no map
    /// lookup, and a cache hit is counted into `hits` for the caller to
    /// add once ([`QueryEngine::add_cache_hits`]).
    pub(crate) fn read_bound(
        &self,
        cache: &SensorCache,
        topic: &Topic,
        mode: QueryMode,
        hits: &Cell<u64>,
        buf: &mut Vec<SensorReading>,
    ) {
        match cached(cache, mode, self.storage.is_some(), buf) {
            Ok(()) => hits.set(hits.get() + 1),
            Err(tail) => self.read_storage(topic, mode, tail, buf),
        }
    }

    /// Adds the cache hits [`QueryEngine::read_bound`] left to its
    /// caller: one operator run adds its thousands at once.
    pub(crate) fn add_cache_hits(&self, hits: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Adds the inserts [`QueryEngine::insert_bound`] left to its caller.
    pub(crate) fn add_inserts(&self, inserts: u64) {
        self.inserts.fetch_add(inserts, Ordering::Relaxed);
    }

    /// Counts readings a cache refused, with no atomic write for none.
    fn add_rejected(&self, rejected: usize) {
        if rejected > 0 {
            self.cache_rejected
                .fetch_add(rejected as u64, Ordering::Relaxed);
        }
    }

    /// The one read path under `query`, `view` and unit reads: replaces
    /// `buf` with the answer, and counts it.
    pub(crate) fn read(&self, topic: &Topic, mode: QueryMode, buf: &mut Vec<SensorReading>) {
        let tail = match self.caches.read().get(topic) {
            Some(cache) => match cached(cache, mode, self.storage.is_some(), buf) {
                Ok(()) => {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(tail) => tail,
            },
            None => None,
        };
        self.read_storage(topic, mode, tail, buf);
    }

    /// The storage half of a read the cache could not answer alone.
    /// With `tail` (the cache's oldest timestamp) `buf` holds the cached
    /// part of the range, copied before the scan so no cache write waits
    /// on a disk read; `buf` leaves holding the answer.
    fn read_storage(
        &self,
        topic: &Topic,
        mode: QueryMode,
        tail: Option<Timestamp>,
        buf: &mut Vec<SensorReading>,
    ) {
        let found = self.storage.as_ref().and_then(|storage| match mode {
            QueryMode::Latest => storage.latest(topic).map(|latest| vec![latest]),
            // Relative queries are defined against live data; if the
            // cache is empty, answer from storage's most recent span.
            QueryMode::Relative { offset_ns } => storage.latest(topic).map(|latest| {
                storage.query(topic, latest.ts.saturating_sub_ns(offset_ns), latest.ts)
            }),
            QueryMode::Absolute { t0, t1 } => match tail {
                // Stitch: storage for the old part, cache for the
                // recent part.
                Some(oldest) => {
                    let boundary = oldest.saturating_sub_ns(1);
                    let mut out = storage.query(topic, t0, boundary.min(t1));
                    out.append(buf);
                    Some(out)
                }
                None => Some(storage.query(topic, t0, t1)).filter(|out| !out.is_empty()),
            },
        });
        match found {
            Some(readings) => {
                self.storage_fallbacks.fetch_add(1, Ordering::Relaxed);
                *buf = readings;
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                buf.clear();
            }
        }
    }

    /// All topics known to the engine: cached sensors plus everything
    /// the storage backend holds.
    pub fn topics(&self) -> Vec<Topic> {
        let mut topics: Vec<Topic> = self.caches.read().keys().cloned().collect();
        if let Some(storage) = &self.storage {
            topics.extend(storage.topics());
        }
        topics.sort();
        topics.dedup();
        topics
    }

    /// The known topics `filter` selects, ascending. A wildcard-free
    /// selector names its one topic, so it is looked up — one cache-map
    /// probe, one storage index probe — instead of enumerating, merging
    /// and sorting every topic of every generation to keep one.
    pub fn select(&self, filter: &TopicFilter) -> Vec<Topic> {
        if !filter.is_exact() {
            let mut topics = self.topics();
            topics.retain(|t| filter.matches(t));
            return topics;
        }
        Topic::parse(filter.as_str())
            .ok()
            .filter(|t| self.knows(t) || self.storage.as_ref().is_some_and(|s| s.contains(t)))
            .into_iter()
            .collect()
    }

    /// Aggregate query with the tier-aware planner: picks the coarsest
    /// rollup tier whose width divides `step_ns`, serves each tier
    /// sub-bucket from a frame when one exists, and stitches the
    /// remaining sub-buckets (typically the raw tail past the last
    /// seal, or gaps where rollups were lost) from the raw cache +
    /// storage path — each sub-bucket from exactly one source, so a
    /// reading is never counted both in a frame and in the raw tail.
    ///
    /// Semantics: the requested range is widened to whole grid buckets
    /// (`floor(t0/step) .. floor(t1/step)`) and clamped to the sensor's
    /// data extent; every reading in a covered bucket aggregates into
    /// it. Empty buckets are omitted.
    pub fn query_agg(
        &self,
        topic: &Topic,
        t0: Timestamp,
        t1: Timestamp,
        step_ns: u64,
    ) -> AggSeries {
        self.query_agg_planned(topic, t0, t1, step_ns, true)
    }

    /// [`QueryEngine::query_agg`] with tier use switchable — the
    /// raw-scan baseline for benchmarks and equivalence tests.
    pub fn query_agg_planned(
        &self,
        topic: &Topic,
        t0: Timestamp,
        t1: Timestamp,
        step_ns: u64,
        allow_tiers: bool,
    ) -> AggSeries {
        let mut out = AggSeries {
            step_ns,
            ..AggSeries::default()
        };
        if step_ns == 0 || t1 < t0 {
            return out;
        }
        self.agg_queries.fetch_add(1, Ordering::Relaxed);
        // Clamp to the data extent so open-ended ranges ([0, MAX]) do
        // not walk an astronomically long empty grid.
        let Some((data_oldest, data_newest)) = self.data_extent(topic) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return out;
        };
        let lo = t0.as_nanos().max(data_oldest.as_nanos());
        let hi = t1.as_nanos().min(data_newest.as_nanos());
        if hi < lo {
            return out;
        }
        // Whole grid buckets: [g0, g_end).
        let g0 = bucket_start(lo, step_ns);
        let g_end = bucket_start(hi, step_ns).saturating_add(step_ns);
        let tier = if allow_tiers {
            self.storage.as_ref().and_then(|s| {
                s.rollup_tiers()
                    .into_iter()
                    .filter(|w| *w > 0 && *w <= step_ns && step_ns.is_multiple_of(*w))
                    .max()
            })
        } else {
            None
        };
        let sub_frames = match tier {
            Some(width) => self.tier_sub_frames(topic, width, g0, g_end, &mut out.plan),
            None => {
                // Raw scan: one stitched cache+storage query, bucketed.
                let readings = self.query(
                    topic,
                    QueryMode::Absolute {
                        t0: Timestamp(g0),
                        t1: Timestamp(g_end - 1),
                    },
                );
                let frames = AggFrame::from_readings(step_ns, &readings);
                out.plan.buckets_from_raw = frames.len();
                frames
            }
        };
        self.agg_tier_buckets
            .fetch_add(out.plan.buckets_from_tier as u64, Ordering::Relaxed);
        self.agg_raw_buckets
            .fetch_add(out.plan.buckets_from_raw as u64, Ordering::Relaxed);
        // Merge tier sub-frames up to the requested grid. Sub-buckets
        // are disjoint by construction, so the frame algebra is exact.
        let mut frames: Vec<AggFrame> = Vec::new();
        for sub in sub_frames {
            let mut sub = sub;
            sub.bucket_ns = bucket_start(sub.bucket_ns, step_ns);
            match frames.last_mut() {
                Some(f) if f.bucket_ns == sub.bucket_ns => f.merge(&sub),
                _ => frames.push(sub),
            }
        }
        out.frames = frames;
        out
    }

    /// The oldest and newest timestamps `topic`'s cache holds.
    fn cache_extent(&self, topic: &Topic) -> Option<(Timestamp, Timestamp)> {
        self.caches.read().get(topic)?.extent()
    }

    /// The `[oldest, newest]` timestamps of any data for `topic` across
    /// cache and storage.
    fn data_extent(&self, topic: &Topic) -> Option<(Timestamp, Timestamp)> {
        let cached = self.cache_extent(topic);
        let (mut oldest, mut newest) = (cached.map(|c| c.0), cached.map(|c| c.1));
        if let Some(storage) = &self.storage {
            if let Some(o) = storage.oldest_ts(topic) {
                oldest = Some(oldest.map_or(o, |x| x.min(o)));
            }
            if let Some(l) = storage.latest(topic) {
                newest = Some(newest.map_or(l.ts, |x| x.max(l.ts)));
            }
        }
        Some((oldest?, newest?))
    }

    /// Serves `[g0, g_end)` at tier `width`: frames where the rollups
    /// have them, raw re-aggregation for the missing sub-bucket runs
    /// (coalesced into one stitched raw query per contiguous gap).
    ///
    /// Frames only serve buckets wholly *before* the cache boundary.
    /// Inside the cache window the raw stitch answers from the ring
    /// buffer, which applies its own admission policy (out-of-order
    /// samples are dropped; storage keeps them) — a frame there would
    /// reflect storage truth and silently disagree with the raw path,
    /// and a straddling bucket would count boundary readings from both
    /// sources. Ending the tier strictly at the boundary keeps every
    /// reading exactly-once and tier-vs-raw answers identical.
    fn tier_sub_frames(
        &self,
        topic: &Topic,
        width: u64,
        g0: u64,
        g_end: u64,
        plan: &mut AggPlan,
    ) -> Vec<AggFrame> {
        plan.tier_ns = width;
        let storage = self.storage.as_ref().expect("tier path requires storage");
        let cache_oldest = self
            .cache_extent(topic)
            .map(|(oldest, _)| oldest.as_nanos());
        let tier_frames = storage.query_frames(topic, width, Timestamp(g0), Timestamp(g_end - 1));
        let usable_end = cache_oldest.unwrap_or(u64::MAX);
        let mut out: Vec<AggFrame> = Vec::new();
        let mut gap_start: Option<u64> = None;
        let flush_gap = |out: &mut Vec<AggFrame>, plan: &mut AggPlan, from: u64, to: u64| {
            // Raw re-aggregation over [from, to): the stitched raw path
            // dedups, so these sub-buckets match frame semantics.
            let readings = self.query(
                topic,
                QueryMode::Absolute {
                    t0: Timestamp(from),
                    t1: Timestamp(to - 1),
                },
            );
            let frames = AggFrame::from_readings(width, &readings);
            plan.buckets_from_raw += frames.len();
            out.extend(frames);
        };
        // `tier_frames` is ascending by bucket; walk the grid and the
        // frames with one shared cursor instead of hashing the frames.
        let mut next = 0usize;
        let mut sub = g0;
        while sub < g_end {
            while next < tier_frames.len() && tier_frames[next].bucket_ns < sub {
                next += 1;
            }
            let frame = (next < tier_frames.len()
                && tier_frames[next].bucket_ns == sub
                && sub + width <= usable_end)
                .then(|| tier_frames[next]);
            match frame {
                Some(frame) => {
                    if let Some(gs) = gap_start.take() {
                        flush_gap(&mut out, plan, gs, sub);
                    }
                    out.push(frame);
                    plan.buckets_from_tier += 1;
                }
                None => {
                    if gap_start.is_none() {
                        gap_start = Some(sub);
                    }
                }
            }
            sub += width;
        }
        if let Some(gs) = gap_start.take() {
            flush_gap(&mut out, plan, gs, g_end);
        }
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            storage_fallbacks: self.storage_fallbacks.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            storage_errors: self.storage_errors.load(Ordering::Relaxed),
            cache_rejected: self.cache_rejected.load(Ordering::Relaxed),
            agg_queries: self.agg_queries.load(Ordering::Relaxed),
            agg_tier_buckets: self.agg_tier_buckets.load(Ordering::Relaxed),
            agg_raw_buckets: self.agg_raw_buckets.load(Ordering::Relaxed),
        }
    }

    /// The attached storage engine, if any (used by hosts for flush /
    /// maintenance passes).
    pub fn storage(&self) -> Option<&Arc<dyn StorageEngine>> {
        self.storage.as_ref()
    }

    /// Bytes held by the sensor caches (§VI-A footprint metric).
    ///
    /// Sums each cache's *actual* allocation
    /// ([`SensorCache::memory_bytes`]): `SensorCache` allocates its ring
    /// lazily, so charging the configured capacity per sensor — as this
    /// method used to — over-reports by orders of magnitude for
    /// mostly-empty caches.
    pub fn cache_memory_bytes(&self) -> usize {
        let caches = self.caches.read();
        caches.values().map(|c| c.memory_bytes()).sum()
    }

    /// Number of sensors with caches.
    pub fn sensor_count(&self) -> usize {
        self.caches.read().len()
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("sensors", &self.sensor_count())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::time::NS_PER_SEC;
    use dcdb_storage::DurableBackend;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn r(v: i64, s: u64) -> SensorReading {
        SensorReading::new(v, Timestamp::from_secs(s))
    }

    fn seeded_engine() -> QueryEngine {
        let qe = QueryEngine::new(64);
        for i in 1..=50u64 {
            qe.insert(&t("/n1/power"), r(i as i64, i));
        }
        qe
    }

    #[test]
    fn latest_query() {
        let qe = seeded_engine();
        let got = qe.query(&t("/n1/power"), QueryMode::Latest);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, 50);
        assert!(qe.query(&t("/nope"), QueryMode::Latest).is_empty());
        let s = qe.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 50);
    }

    #[test]
    fn relative_query_returns_recent_window() {
        let qe = seeded_engine();
        let got = qe.query(
            &t("/n1/power"),
            QueryMode::Relative {
                offset_ns: 5 * NS_PER_SEC,
            },
        );
        assert!((5..=7).contains(&got.len()), "{}", got.len());
        assert_eq!(got.last().unwrap().value, 50);
    }

    #[test]
    fn absolute_query_exact() {
        let qe = seeded_engine();
        let got = qe.query(
            &t("/n1/power"),
            QueryMode::Absolute {
                t0: Timestamp::from_secs(10),
                t1: Timestamp::from_secs(12),
            },
        );
        let vals: Vec<i64> = got.iter().map(|x| x.value).collect();
        assert_eq!(vals, vec![10, 11, 12]);
    }

    #[test]
    fn storage_fallback_for_old_ranges() {
        let storage: Arc<dyn StorageEngine> = Arc::new(DurableBackend::in_memory());
        let qe = QueryEngine::with_storage(8, Arc::clone(&storage));
        // 50 readings but the cache only holds the last 8.
        for i in 1..=50u64 {
            qe.insert(&t("/n1/power"), r(i as i64, i));
        }
        // Range entirely in the evicted past.
        let got = qe.query(
            &t("/n1/power"),
            QueryMode::Absolute {
                t0: Timestamp::from_secs(5),
                t1: Timestamp::from_secs(10),
            },
        );
        assert_eq!(got.len(), 6);
        assert_eq!(qe.stats().storage_fallbacks, 1);
        // Range straddling cache and storage stitches both.
        let got = qe.query(
            &t("/n1/power"),
            QueryMode::Absolute {
                t0: Timestamp::from_secs(40),
                t1: Timestamp::from_secs(50),
            },
        );
        let vals: Vec<i64> = got.iter().map(|x| x.value).collect();
        assert_eq!(vals, (40..=50).collect::<Vec<i64>>());
    }

    #[test]
    fn absolute_stitch_boundary_has_no_duplicate_or_gap() {
        // Cache of 8 over 50 readings: the cache holds 43..=50, so
        // cache_oldest = 43s. Any range with t0 < 43 <= t1 must stitch
        // storage and cache with reading 43 appearing exactly once.
        let storage: Arc<dyn StorageEngine> = Arc::new(DurableBackend::in_memory());
        let qe = QueryEngine::with_storage(8, Arc::clone(&storage));
        for i in 1..=50u64 {
            qe.insert(&t("/n1/power"), r(i as i64, i));
        }
        let absolute = |t0: u64, t1: u64| {
            qe.query(
                &t("/n1/power"),
                QueryMode::Absolute {
                    t0: Timestamp::from_secs(t0),
                    t1: Timestamp::from_secs(t1),
                },
            )
        };
        let check = |t0: u64, t1: u64| {
            let got = absolute(t0, t1);
            let vals: Vec<i64> = got.iter().map(|x| x.value).collect();
            assert_eq!(
                vals,
                (t0 as i64..=t1 as i64).collect::<Vec<i64>>(),
                "range [{t0}, {t1}]: each reading exactly once, in order"
            );
            for w in got.windows(2) {
                assert!(w[0].ts < w[1].ts, "out of order at boundary");
            }
        };
        check(40, 46); // boundary strictly inside the range
        check(40, 43); // t1 == cache_oldest: one cached reading only
        check(42, 44); // minimal straddle
        check(1, 50); // the full history
                      // t1 just below the boundary stays storage-only.
        let got = absolute(40, 42);
        assert_eq!(
            got.iter().map(|x| x.value).collect::<Vec<i64>>(),
            vec![40, 41, 42]
        );
    }

    /// In-memory store that pretends rollup frames exist only for
    /// buckets wholly before `frame_end_s` — a controllable tier/raw
    /// planner boundary without a durable engine.
    #[derive(Debug)]
    struct PartialRollupStore {
        inner: DurableBackend,
        frame_end_s: u64,
    }
    impl StorageEngine for PartialRollupStore {
        fn insert_columns(
            &self,
            topic: &Topic,
            batch: &ReadingBatch,
        ) -> dcdb_common::error::Result<()> {
            self.inner.insert_columns(topic, batch)
        }
        fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
            self.inner.query(topic, t0, t1)
        }
        fn latest(&self, topic: &Topic) -> Option<SensorReading> {
            self.inner.latest(topic)
        }
        fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
            self.inner.oldest_ts(topic)
        }
        fn contains(&self, topic: &Topic) -> bool {
            self.inner.contains(topic)
        }
        fn topics(&self) -> Vec<Topic> {
            self.inner.topics()
        }
        fn evict_before(&self, cutoff: Timestamp) -> usize {
            self.inner.evict_before(cutoff)
        }
        fn stats(&self) -> dcdb_storage::StorageStats {
            self.inner.stats()
        }
        fn flush(&self) -> dcdb_common::error::Result<()> {
            self.inner.flush()
        }
        fn maintain(&self, now: Timestamp) -> dcdb_common::error::Result<()> {
            self.inner.maintain(now)
        }
        fn health(&self) -> Option<dcdb_storage::StorageHealthReport> {
            StorageEngine::health(&self.inner)
        }
        fn rollup_tiers(&self) -> Vec<u64> {
            vec![10 * NS_PER_SEC]
        }
        fn query_frames(
            &self,
            topic: &Topic,
            width_ns: u64,
            t0: Timestamp,
            t1: Timestamp,
        ) -> Vec<AggFrame> {
            let readings = self.inner.query(topic, Timestamp::ZERO, Timestamp::MAX);
            AggFrame::from_readings(width_ns, &readings)
                .into_iter()
                .filter(|f| f.bucket_ns + width_ns <= self.frame_end_s * NS_PER_SEC)
                .filter(|f| f.bucket_ns + width_ns > t0.as_nanos() && f.bucket_ns <= t1.as_nanos())
                .collect()
        }
    }

    #[test]
    fn agg_raw_bucket_semantics() {
        // No rollup tiers: the planner answers from raw with whole-grid
        // bucket semantics, clamped to the data extent.
        let qe = seeded_engine(); // values 1..=50 at seconds 1..=50
        let series = qe.query_agg(
            &t("/n1/power"),
            Timestamp::ZERO,
            Timestamp::MAX,
            10 * NS_PER_SEC,
        );
        assert_eq!(series.plan.tier_ns, 0);
        let counts: Vec<u64> = series.frames.iter().map(|f| f.count).collect();
        assert_eq!(counts, vec![9, 10, 10, 10, 10, 1]);
        assert_eq!(series.frames[0].sum, (1..=9).sum::<i64>());
        assert_eq!(series.frames[1].min, 10);
        assert_eq!(series.frames[1].max, 19);
        assert_eq!(series.frames[5].avg(), Some(50.0));
        // Degenerate requests are empty, not panics.
        assert!(qe
            .query_agg(
                &t("/n1/power"),
                Timestamp::from_secs(9),
                Timestamp::ZERO,
                10
            )
            .frames
            .is_empty());
        assert!(qe
            .query_agg(&t("/n1/power"), Timestamp::ZERO, Timestamp::MAX, 0)
            .frames
            .is_empty());
        assert!(qe
            .query_agg(&t("/absent"), Timestamp::ZERO, Timestamp::MAX, 10)
            .frames
            .is_empty());
    }

    #[test]
    fn agg_tier_raw_boundary_exactly_once() {
        // Frames exist only for buckets before 30s; the 30..=50s tail
        // must come from the raw stitch. Every reading aggregates
        // exactly once, and the tier-planned answer equals the pure
        // raw-scan answer bucket for bucket.
        let storage: Arc<dyn StorageEngine> = Arc::new(PartialRollupStore {
            inner: DurableBackend::in_memory(),
            frame_end_s: 30,
        });
        let qe = QueryEngine::with_storage(8, Arc::clone(&storage));
        for i in 1..=50u64 {
            qe.insert(&t("/n1/power"), r(i as i64, i));
        }
        let tiered = qe.query_agg(
            &t("/n1/power"),
            Timestamp::ZERO,
            Timestamp::MAX,
            10 * NS_PER_SEC,
        );
        let raw = qe.query_agg_planned(
            &t("/n1/power"),
            Timestamp::ZERO,
            Timestamp::MAX,
            10 * NS_PER_SEC,
            false,
        );
        assert_eq!(tiered.plan.tier_ns, 10 * NS_PER_SEC);
        assert_eq!(tiered.plan.buckets_from_tier, 3); // [0,10) [10,20) [20,30)
        assert_eq!(tiered.plan.buckets_from_raw, 3); // [30,40) [40,50) [50,60)
        assert_eq!(raw.plan.tier_ns, 0);
        assert_eq!(tiered.frames, raw.frames);
        let total: u64 = tiered.frames.iter().map(|f| f.count).sum();
        assert_eq!(total, 50, "each reading counted exactly once");
    }

    #[test]
    fn agg_step_not_divisible_by_tier_falls_back_to_raw() {
        let storage: Arc<dyn StorageEngine> = Arc::new(PartialRollupStore {
            inner: DurableBackend::in_memory(),
            frame_end_s: 60,
        });
        let qe = QueryEngine::with_storage(8, Arc::clone(&storage));
        for i in 1..=50u64 {
            qe.insert(&t("/n1/power"), r(i as i64, i));
        }
        // 7s step: the 10s tier does not divide it, so the planner must
        // not use frames (they would mis-bucket readings).
        let series = qe.query_agg(
            &t("/n1/power"),
            Timestamp::ZERO,
            Timestamp::MAX,
            7 * NS_PER_SEC,
        );
        assert_eq!(series.plan.tier_ns, 0);
        assert_eq!(series.plan.buckets_from_tier, 0);
        let total: u64 = series.frames.iter().map(|f| f.count).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn agg_func_parse_and_apply() {
        assert_eq!(AggFunc::parse("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("mean"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("median"), None);
        let mut f = AggFrame::seed(0, 5, 10);
        f.observe(6, 30);
        assert_eq!(AggFunc::Avg.apply(&f), Some(20.0));
        assert_eq!(AggFunc::Min.apply(&f), Some(10.0));
        assert_eq!(AggFunc::Max.apply(&f), Some(30.0));
        assert_eq!(AggFunc::Sum.apply(&f), Some(40.0));
        assert_eq!(AggFunc::Count.apply(&f), Some(2.0));
    }

    #[test]
    fn no_storage_clips_to_cache() {
        let qe = QueryEngine::new(8);
        for i in 1..=50u64 {
            qe.insert(&t("/n1/power"), r(i as i64, i));
        }
        let got = qe.query(
            &t("/n1/power"),
            QueryMode::Absolute {
                t0: Timestamp::from_secs(1),
                t1: Timestamp::from_secs(50),
            },
        );
        assert_eq!(got.len(), 8); // only what the cache holds
        assert_eq!(got.first().unwrap().value, 43);
    }

    #[test]
    fn relative_falls_back_to_storage_when_cache_empty() {
        let storage = Arc::new(DurableBackend::in_memory());
        storage
            .insert_columns(
                &t("/cold/sensor"),
                &(1..=20u64).map(|i| r(i as i64, i)).collect(),
            )
            .unwrap();
        let qe = QueryEngine::with_storage(8, storage);
        let got = qe.query(
            &t("/cold/sensor"),
            QueryMode::Relative {
                offset_ns: 5 * NS_PER_SEC,
            },
        );
        assert_eq!(got.last().unwrap().value, 20);
        assert!(got.len() >= 5);
        assert_eq!(qe.stats().storage_fallbacks, 1);
    }

    #[test]
    fn insert_columns_matches_individual() {
        let qe = QueryEngine::new(32);
        let batch: Vec<SensorReading> = (1..=10u64).map(|i| r(i as i64, i)).collect();
        qe.insert_columns(&t("/b/s"), &ReadingBatch::from_readings(&batch));
        let got = qe.query(
            &t("/b/s"),
            QueryMode::Absolute {
                t0: Timestamp::ZERO,
                t1: Timestamp::MAX,
            },
        );
        assert_eq!(got, batch);
        assert_eq!(qe.stats().inserts, 10);
    }

    #[test]
    fn navigator_rebuild_reflects_sensors() {
        let qe = seeded_engine();
        qe.insert(&t("/n2/temp"), r(1, 1));
        qe.rebuild_navigator();
        let nav = qe.navigator();
        assert_eq!(nav.sensor_count(), 2);
        assert!(nav.has_sensor(&t("/n1/power")));
        assert!(nav.has_sensor(&t("/n2/temp")));
    }

    #[test]
    fn pipeline_outputs_become_queryable() {
        // An operator output inserted through the engine is immediately
        // visible to the next operator (pipelines, §IV-B d).
        let qe = QueryEngine::new(16);
        qe.insert(&t("/n1/derived/cpi"), r(15, 1));
        let got = qe.query(&t("/n1/derived/cpi"), QueryMode::Latest);
        assert_eq!(got[0].value, 15);
    }

    #[test]
    fn concurrent_inserts_and_queries() {
        let qe = Arc::new(QueryEngine::new(128));
        let mut handles = vec![];
        for n in 0..4 {
            let qe = Arc::clone(&qe);
            handles.push(std::thread::spawn(move || {
                let topic = t(&format!("/n{n}/s"));
                for i in 1..=500u64 {
                    qe.insert(&topic, r(i as i64, i));
                    if i % 100 == 0 {
                        let got = qe.query(&topic, QueryMode::Latest);
                        assert_eq!(got[0].value, i as i64);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(qe.sensor_count(), 4);
        assert_eq!(qe.stats().inserts, 2000);
    }

    /// Regression: a cache hit ran `view`'s closure under the cache's
    /// read guard, so an insert into the same sensor from inside it
    /// waited for that guard forever.
    #[test]
    fn a_view_closure_may_insert_into_the_sensor_it_reads() {
        let qe = Arc::new(seeded_engine());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let viewer = {
            let qe = Arc::clone(&qe);
            std::thread::spawn(move || {
                let seen = qe.view(&t("/n1/power"), QueryMode::Latest, |latest| {
                    qe.insert(&t("/n1/power"), r(51, 51));
                    latest.to_vec()
                });
                done_tx.send(seen).unwrap();
            })
        };
        let seen = done_rx.recv_timeout(std::time::Duration::from_secs(2));
        assert_eq!(seen.expect("the insert waited").len(), 1);
        viewer.join().unwrap();
        assert_eq!(qe.query(&t("/n1/power"), QueryMode::Latest)[0].value, 51);
    }

    #[test]
    fn readings_a_cache_refuses_are_counted() {
        let storage = Arc::new(DurableBackend::in_memory());
        let qe = QueryEngine::with_storage(8, storage);
        let topic = t("/n1/power");
        qe.insert(&topic, r(1, 10));
        assert_eq!(qe.stats().cache_rejected, 0);
        // Not newer than the latest: refused by the cache.
        qe.insert(&topic, r(2, 10));
        assert_eq!(qe.stats().cache_rejected, 1);
        // One stale reading inside a drain's batch.
        let batch: ReadingBatch = [r(3, 11), r(4, 9), r(5, 12)].into_iter().collect();
        qe.insert_many(&[
            (topic.clone(), batch),
            (t("/n2/power"), [r(6, 1)].into_iter().collect()),
        ]);
        assert_eq!(qe.stats().cache_rejected, 2);
        let cached: Vec<i64> = qe
            .query(&topic, QueryMode::Relative { offset_ns: 0 })
            .iter()
            .map(|x| x.value)
            .collect();
        assert_eq!(cached, vec![5]);
        assert_eq!(qe.stats().inserts, 6);
    }

    /// Delegating store whose `query` parks, once armed, until the test
    /// releases it — a disk scan of controllable length.
    #[derive(Debug)]
    struct ParkingStore {
        inner: DurableBackend,
        armed: std::sync::atomic::AtomicBool,
        entered: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
        release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }
    impl StorageEngine for ParkingStore {
        fn insert_columns(
            &self,
            topic: &Topic,
            batch: &ReadingBatch,
        ) -> dcdb_common::error::Result<()> {
            self.inner.insert_columns(topic, batch)
        }
        fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
            if self.armed.load(Ordering::SeqCst) {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            self.inner.query(topic, t0, t1)
        }
        fn latest(&self, topic: &Topic) -> Option<SensorReading> {
            self.inner.latest(topic)
        }
        fn oldest_ts(&self, topic: &Topic) -> Option<Timestamp> {
            self.inner.oldest_ts(topic)
        }
        fn contains(&self, topic: &Topic) -> bool {
            self.inner.contains(topic)
        }
        fn topics(&self) -> Vec<Topic> {
            self.inner.topics()
        }
        fn evict_before(&self, cutoff: Timestamp) -> usize {
            self.inner.evict_before(cutoff)
        }
        fn stats(&self) -> dcdb_storage::StorageStats {
            self.inner.stats()
        }
        fn flush(&self) -> dcdb_common::error::Result<()> {
            self.inner.flush()
        }
        fn maintain(&self, now: Timestamp) -> dcdb_common::error::Result<()> {
            self.inner.maintain(now)
        }
        fn health(&self) -> Option<dcdb_storage::StorageHealthReport> {
            StorageEngine::health(&self.inner)
        }
        fn rollup_tiers(&self) -> Vec<u64> {
            self.inner.rollup_tiers()
        }
        fn query_frames(
            &self,
            topic: &Topic,
            width_ns: u64,
            t0: Timestamp,
            t1: Timestamp,
        ) -> Vec<AggFrame> {
            self.inner.query_frames(topic, width_ns, t0, t1)
        }
    }

    /// Regression: the stitch branch held the sensor's cache read guard
    /// across `storage.query`, so a cold read blocked that sensor's
    /// ingest (and, on a writer-preferring lock, every later reader)
    /// for the length of the scan.
    #[test]
    fn cold_read_does_not_block_ingest_of_the_same_sensor() {
        use std::sync::mpsc;
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let store = Arc::new(ParkingStore {
            inner: DurableBackend::in_memory(),
            armed: false.into(),
            entered: entered_tx.into(),
            release: release_rx.into(),
        });
        let qe = Arc::new(QueryEngine::with_storage(
            8,
            Arc::clone(&store) as Arc<dyn StorageEngine>,
        ));
        for i in 1..=50u64 {
            qe.insert(&t("/n1/power"), r(i as i64, i));
        }
        store.armed.store(true, Ordering::SeqCst);

        let reader = {
            let qe = Arc::clone(&qe);
            std::thread::spawn(move || {
                qe.query(
                    &t("/n1/power"),
                    QueryMode::Absolute {
                        t0: Timestamp::from_secs(5),
                        t1: Timestamp::from_secs(60),
                    },
                )
            })
        };
        // The reader is now inside the storage scan.
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let writer = {
            let qe = Arc::clone(&qe);
            std::thread::spawn(move || {
                qe.insert_columns(&t("/n1/power"), &[r(51, 51)].into_iter().collect());
                done_tx.send(()).unwrap();
            })
        };
        let ingested = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        release_tx.send(()).unwrap();
        writer.join().unwrap();
        let got = reader.join().unwrap();
        assert!(ingested.is_ok(), "insert_columns waited for the cold read");
        // The read is the snapshot it took: storage part, then the
        // cache part copied before the scan.
        let vals: Vec<i64> = got.iter().map(|x| x.value).collect();
        assert_eq!(vals, (5..=50).collect::<Vec<i64>>());
    }

    /// `select` with a wildcard-free filter is a lookup; it must return
    /// exactly what enumerating and filtering returned, for topics held
    /// only by storage (after a reopen), only by a cache, by both, and
    /// for selectors naming nothing.
    #[test]
    fn exact_selector_lookup_equals_enumerate_and_filter() {
        let dir = std::env::temp_dir().join(format!("wm-select-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topic = |rack: u64, node: u64, s: u64| t(&format!("/r{rack}/n{node}/s{s}"));
        let open = || -> Arc<dyn StorageEngine> {
            Arc::new(
                dcdb_storage::DurableBackend::open(&dir, dcdb_storage::DurableConfig::default())
                    .unwrap(),
            )
        };
        {
            let storage = open();
            let qe = QueryEngine::with_storage(8, Arc::clone(&storage));
            for (rack, node) in [(0, 0), (0, 1), (1, 0)] {
                qe.insert(&topic(rack, node, 0), r(1, 1));
            }
            storage.flush().unwrap();
        }
        // Reopened: the three topics above are storage-only; two more
        // are cached and stored; the second engine is cache-only.
        let durable = QueryEngine::with_storage(8, open());
        durable.insert(&topic(2, 0, 0), r(1, 2));
        durable.insert(&topic(2, 0, 1), r(1, 2));
        assert!(!durable.knows(&topic(0, 0, 0)));
        let cache_only = QueryEngine::new(8);
        cache_only.insert(&topic(0, 0, 0), r(1, 1));
        cache_only.insert(&topic(3, 3, 3), r(1, 1));

        let mut state = 0x5EED_5E1E_2026_0928u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut selected = 0;
        for case in 0..2000 {
            // Known topics, near misses (ancestor, descendant, unknown
            // leaf), untrimmed forms; a literal no topic can equal does
            // not parse.
            let (rack, node, s) = (next() % 4, next() % 4, next() % 4);
            let raw = match next() % 7 {
                0 => format!("/r{rack}/n{node}"),
                1 => format!("/r{rack}/n{node}/s{s}/x"),
                2 => format!("/r{rack}/n {node}/s{s}"),
                3 => format!("r{rack}/n{node}/s{s}/ "),
                4 => format!("/r{rack}/+/s{s}"),
                5 => format!("/r{rack}/#"),
                _ => format!("/r{rack}/n{node}/s{s}"),
            };
            let Ok(filter) = TopicFilter::parse(&raw) else {
                assert!(raw.contains("n "), "{raw:?}");
                continue;
            };
            for qe in [&durable, &cache_only] {
                let want: Vec<Topic> = qe
                    .topics()
                    .into_iter()
                    .filter(|t| filter.matches(t))
                    .collect();
                let got = qe.select(&filter);
                assert_eq!(got, want, "case {case}: {raw:?}");
                selected += got.len();
            }
        }
        assert!(selected > 500, "selectors must hit: {selected}");
        assert_eq!(
            durable.select(&TopicFilter::exact(&topic(0, 1, 0))),
            vec![topic(0, 1, 0)],
            "storage-only topic"
        );
        assert_eq!(
            cache_only.select(&TopicFilter::exact(&topic(3, 3, 3))),
            vec![topic(3, 3, 3)],
            "cache-only topic"
        );
        assert!(durable
            .select(&TopicFilter::exact(&topic(3, 3, 3)))
            .is_empty());
        drop(durable);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_accounting_is_positive() {
        let qe = seeded_engine();
        assert!(qe.cache_memory_bytes() > 0);
        assert_eq!(qe.sensor_count(), 1);
        assert!(qe.knows(&t("/n1/power")));
        assert!(!qe.knows(&t("/other")));
    }

    #[test]
    fn memory_accounting_reflects_allocation_not_configured_capacity() {
        // Regression: the footprint metric used to charge the full
        // configured capacity per sensor even though SensorCache
        // allocates lazily — a nearly-empty cache made the §VI-A
        // footprint lie by orders of magnitude.
        let capacity = 1_000_000usize;
        let qe = QueryEngine::new(capacity);
        for n in 0..10 {
            qe.insert(&t(&format!("/n{n}/power")), r(1, 1));
        }
        let reported = qe.cache_memory_bytes();
        let capacity_charge = 10 * capacity * std::mem::size_of::<SensorReading>();
        assert!(
            reported < capacity_charge / 100,
            "reported {reported} bytes should be far below the \
             capacity-based over-estimate {capacity_charge}"
        );
        // Still a sane lower bound: at least the stored readings.
        assert!(reported >= 10 * std::mem::size_of::<SensorReading>());
    }
}
