//! Wrapper impls of the public traits the program exposes, installed
//! only in traced runs. Each forwards to the real implementation and
//! records a span around the call, so per-layer numbers are measured
//! from outside the program's source.
//!
//! Seams: [`MonitoringPlugin`] (sample), [`MessageBus`] (encode apart
//! from publish), [`StorageEngine`] (insert / scan / frames / flush),
//! [`StorageIo`] + [`IoFile`] (every write, fsync and read, including
//! the handles the WAL syncer thread clones), and [`OperatorPlugin`] +
//! [`Operator`] (compute). Inputs seen at the bus and storage seams are
//! captured for the stage replays of [`crate::replay`].

use crate::trace::{self, span, Sp};
use bytes::Bytes;
use dcdb_bus::{
    encode_batch, BusHandle, BusStatsSnapshot, MessageBus, SubscribeOptions, Subscription,
    TopicFilter,
};
use dcdb_common::batch::ReadingBatch;
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_pusher::MonitoringPlugin;
use dcdb_storage::io::IoFile;
use dcdb_storage::{
    AggFrame, DurableBackend, StorageEngine, StorageHealthReport, StorageIo, StorageStats,
};
use sim_cluster::Sample;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wintermute::prelude::*;

/// How many inputs each seam keeps for stage replay.
const CAPTURE_CAP: usize = 4096;

/// Inputs captured at the bus and storage boundaries during a traced
/// run.
#[derive(Default)]
pub struct Capture {
    frames: Mutex<Vec<Bytes>>,
    inserts: Mutex<Vec<(Topic, ReadingBatch)>>,
    frames_full: AtomicU64,
    inserts_full: AtomicU64,
    /// Bytes of every frame published, for `bus.frame_bytes_per_reading`.
    pub frame_bytes: AtomicU64,
}

// `TimedStorage` must be `Debug` (a `StorageEngine` bound); the captured
// inputs are not worth printing.
impl std::fmt::Debug for Capture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Capture")
    }
}

impl Capture {
    pub fn frames(&self) -> Vec<Bytes> {
        self.frames.lock().expect("capture lock").clone()
    }

    pub fn inserts(&self) -> Vec<(Topic, ReadingBatch)> {
        self.inserts.lock().expect("capture lock").clone()
    }
}

/// Pushes into a capped capture buffer; the atomic flag keeps the lock
/// off the hot path once the buffer is full.
fn capture<T>(buffer: &Mutex<Vec<T>>, full: &AtomicU64, make: impl FnOnce() -> T) {
    if full.load(Ordering::Relaxed) != 0 {
        return;
    }
    let mut buffer = buffer.lock().expect("capture lock");
    if buffer.len() < CAPTURE_CAP {
        buffer.push(make());
    } else {
        full.store(1, Ordering::Relaxed);
    }
}

/// Times `MonitoringPlugin::sample`.
pub struct TimedPlugin(pub Box<dyn MonitoringPlugin>);

impl MonitoringPlugin for TimedPlugin {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn sensor_topics(&self) -> Vec<Topic> {
        self.0.sensor_topics()
    }

    fn sample(&mut self, now: Timestamp) -> Result<Vec<Sample>> {
        let mut guard = span(Sp::PusherSample);
        let samples = self.0.sample(now);
        if let Ok(samples) = &samples {
            guard.items(samples.len() as u64);
        }
        samples
    }
}

/// Times frame encoding apart from the publish into the broker.
pub struct TimedBus {
    pub inner: BusHandle,
    pub capture: Arc<Capture>,
}

impl MessageBus for TimedBus {
    fn publish(&self, topic: Topic, payload: Bytes) -> std::result::Result<(), DcdbError> {
        let _guard = span(Sp::BusPublish);
        self.inner.publish(topic, payload)
    }

    fn publish_batch(
        &self,
        topic: Topic,
        batch: &ReadingBatch,
    ) -> std::result::Result<(), DcdbError> {
        let frame = {
            let mut guard = span(Sp::BusEncode);
            guard.items(batch.len() as u64);
            encode_batch(batch)
        };
        self.capture
            .frame_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        capture(&self.capture.frames, &self.capture.frames_full, || {
            frame.clone()
        });
        self.publish(topic, frame)
    }

    fn subscribe_with(&self, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        self.inner.subscribe_with(filter, opts)
    }

    fn stats(&self) -> BusStatsSnapshot {
        self.inner.stats()
    }
}

/// Times the storage engine's write and read entry points.
#[derive(Debug)]
pub struct TimedStorage {
    pub inner: Arc<DurableBackend>,
    capture: Arc<Capture>,
    /// Segment files the I/O seam has seen created. The engine seals
    /// inline, inside the insert that fills the memtable, so an insert
    /// during which this advanced was a seal.
    segment_files: Arc<AtomicU64>,
    /// Wall time of every insert that sealed the memtable.
    pub seal_ns: Mutex<Vec<u64>>,
}

impl TimedStorage {
    pub fn new(
        inner: Arc<DurableBackend>,
        capture: Arc<Capture>,
        segment_files: Arc<AtomicU64>,
    ) -> TimedStorage {
        TimedStorage {
            inner,
            capture,
            segment_files,
            seal_ns: Mutex::new(Vec::new()),
        }
    }
}

impl StorageEngine for TimedStorage {
    fn insert(&self, topic: &Topic, r: SensorReading) -> Result<()> {
        self.inner.insert(topic, r)
    }

    fn insert_batch(&self, topic: &Topic, readings: &[SensorReading]) -> Result<()> {
        self.inner.insert_batch(topic, readings)
    }

    fn insert_columns(&self, topic: &Topic, batch: &ReadingBatch) -> Result<()> {
        capture(&self.capture.inserts, &self.capture.inserts_full, || {
            (topic.clone(), batch.clone())
        });
        let segments = self.segment_files.load(Ordering::Relaxed);
        let mut guard = span(Sp::StorageInsert);
        guard.items(batch.len() as u64);
        let result = self.inner.insert_columns(topic, batch);
        if self.segment_files.load(Ordering::Relaxed) != segments {
            let elapsed = guard.elapsed_ns();
            trace::record(Sp::StorageSeal, elapsed, 1);
            self.seal_ns.lock().expect("seal lock").push(elapsed);
        }
        result
    }

    fn query(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> Vec<SensorReading> {
        let mut guard = span(Sp::StorageScan);
        let readings = self.inner.query(topic, t0, t1);
        guard.items(readings.len() as u64);
        readings
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

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }

    fn flush(&self) -> Result<()> {
        let _guard = span(Sp::StorageFlush);
        self.inner.flush()
    }

    fn maintain(&self, now: Timestamp) -> Result<()> {
        self.inner.maintain(now)
    }

    fn health(&self) -> Option<StorageHealthReport> {
        Some(self.inner.health_report())
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
        let mut guard = span(Sp::StorageFrames);
        let frames = self.inner.query_frames(topic, width_ns, t0, t1);
        guard.items(frames.len() as u64);
        frames
    }
}

/// Times every write, fsync and read the durable engine issues.
#[derive(Debug, Default)]
pub struct TimedIo<I: StorageIo> {
    pub inner: I,
    /// Duration of every fsync, from whichever thread issued it.
    pub sync_ns: Arc<Mutex<Vec<u64>>>,
    /// Raw segment files (`seg-*`) created so far.
    pub segment_files: Arc<AtomicU64>,
}

struct TimedFile {
    inner: Box<dyn IoFile>,
    sync_ns: Arc<Mutex<Vec<u64>>>,
}

impl IoFile for TimedFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        let mut guard = span(Sp::IoWrite);
        guard.items(buf.len() as u64);
        self.inner.write_all(buf)
    }

    fn sync(&mut self) -> Result<()> {
        let _guard = span(Sp::IoSync);
        let start = Instant::now();
        let result = self.inner.sync();
        let elapsed = start.elapsed().as_nanos() as u64;
        self.sync_ns.lock().expect("sync lock").push(elapsed);
        result
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.inner.truncate(len)
    }

    fn try_clone(&self) -> Option<Box<dyn IoFile>> {
        let sync_ns = Arc::clone(&self.sync_ns);
        self.inner
            .try_clone()
            .map(|inner| Box::new(TimedFile { inner, sync_ns }) as Box<dyn IoFile>)
    }
}

impl<I: StorageIo> TimedIo<I> {
    fn wrap(&self, inner: Box<dyn IoFile>) -> Box<dyn IoFile> {
        Box::new(TimedFile {
            inner,
            sync_ns: Arc::clone(&self.sync_ns),
        })
    }
}

impl<I: StorageIo> StorageIo for TimedIo<I> {
    fn create(&self, path: &Path) -> Result<Box<dyn IoFile>> {
        let is_segment = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.starts_with("seg-"));
        if is_segment {
            self.segment_files.fetch_add(1, Ordering::Relaxed);
        }
        Ok(self.wrap(self.inner.create(path)?))
    }

    fn open_append(&self, path: &Path, truncate_to: u64) -> Result<Box<dyn IoFile>> {
        Ok(self.wrap(self.inner.open_append(path, truncate_to)?))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let mut guard = span(Sp::IoRead);
        let data = self.inner.read(path)?;
        guard.items(data.len() as u64);
        Ok(data)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut guard = span(Sp::IoRead);
        guard.items(len as u64);
        self.inner.read_range(path, offset, len)
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        self.inner.file_len(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.inner.sync_dir(dir)
    }
}

/// Times `Operator::compute` of every operator a plugin factory builds.
pub struct TimedOperatorPlugin {
    pub inner: Box<dyn OperatorPlugin>,
    pub span: Sp,
}

struct TimedOperator {
    inner: Box<dyn Operator>,
    span: Sp,
}

impl OperatorPlugin for TimedOperatorPlugin {
    fn kind(&self) -> &str {
        self.inner.kind()
    }

    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>> {
        let operators = self.inner.configure(config, nav)?;
        Ok(operators
            .into_iter()
            .map(|inner| {
                Box::new(TimedOperator {
                    inner,
                    span: self.span,
                }) as Box<dyn Operator>
            })
            .collect())
    }
}

impl Operator for TimedOperator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn units(&self) -> &[Unit] {
        self.inner.units()
    }

    fn compute(&mut self, unit_index: usize, ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
        let mut guard = span(self.span);
        guard.items(1);
        self.inner.compute(unit_index, ctx)
    }

    fn operator_outputs(&mut self, ctx: &ComputeContext<'_>) -> Vec<Output> {
        self.inner.operator_outputs(ctx)
    }

    fn refresh_units(&mut self, ctx: &ComputeContext<'_>) -> Result<()> {
        self.inner.refresh_units(ctx)
    }
}
