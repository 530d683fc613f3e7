//! # dcdb-collectagent — the DCDB data broker with embedded Wintermute
//!
//! Collect Agents receive all sensor data published by Pushers over
//! MQTT and forward it to the Storage Backend (paper §IV-A, Fig. 3).
//! With Wintermute embedded, "access to the entire system's sensor
//! space is available. Data is retrieved from the local sensor cache,
//! if possible, or otherwise queried from the Storage Backend" — the
//! deployment location for system- and infrastructure-level analyses
//! (paper §IV-B a).

#![warn(missing_docs)]

use dcdb_bus::codec::{entry_topic, for_each_entry, frame_readings};
use dcdb_bus::{BusHandle, Message, SubscribeOptions, Subscription};
use dcdb_common::batch::{ReadingBatch, READING_WIRE_SIZE};
use dcdb_common::cache::SensorCache;
use dcdb_common::document;
use dcdb_common::error::Result;
use dcdb_common::reading::SensorReading;
use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::{Topic, NODE_PREFIX_DEPTH};
use dcdb_rest::{JsonWriter, Method, Response, Router, Status};
use dcdb_storage::StorageEngine;
use parking_lot::Mutex;
use serde::Serialize;
use serde_json::json;
use sim_cluster::ClusterSimulator;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wintermute::prelude::*;

/// Collect Agent configuration.
#[derive(Debug, Clone)]
pub struct CollectAgentConfig {
    /// Stable identity of this agent, reported by `GET /health` and
    /// `GET /metrics` so a federation router (and humans) can tell
    /// shards apart. Defaults to `"agent-0"` for single-agent
    /// deployments; a federation host assigns one id per shard
    /// (`agent-00`, `agent-01`, …).
    pub agent_id: String,
    /// Sensor cache window, seconds.
    pub cache_secs: u64,
    /// Expected sampling interval of incoming data, milliseconds (sizes
    /// the caches).
    pub expected_interval_ms: u64,
    /// Maximum readings ingested per [`CollectAgent::tick`] /
    /// [`CollectAgent::process_pending`] call. A pass stops before a
    /// frame that would take it past the budget (a frame counts its
    /// readings, and at least one); a single frame larger than the
    /// budget is taken alone. Bounding the drain means a publish storm
    /// can never starve the operator tick or storage maintenance:
    /// surplus frames stay on the (bounded) subscriber queue and are
    /// shed there by its overflow policy.
    pub ingest_budget: usize,
}

impl Default for CollectAgentConfig {
    fn default() -> Self {
        CollectAgentConfig {
            agent_id: "agent-0".to_string(),
            cache_secs: 180,
            expected_interval_ms: 1000,
            ingest_budget: 4096,
        }
    }
}

/// Delivery health of one data source (Pusher), keyed by topic prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SourceHealth {
    /// The source's topic prefix (its first two segments).
    pub prefix: String,
    /// Newest reading timestamp seen from this source, nanoseconds.
    pub last_seen_ns: u64,
    /// Total readings ingested from this source.
    pub readings: u64,
    /// Age of the newest reading relative to the agent's last tick,
    /// milliseconds (0 when data is ahead of the tick clock).
    pub age_ms: u64,
    /// True once `age_ms` exceeds 3× the expected sampling interval —
    /// the pusher is down, partitioned, or spooling through an outage.
    pub stale: bool,
}

/// Counters for footprint reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CollectAgentStats {
    /// Frames consumed from the bus: a Pusher sends one per tick and
    /// node prefix.
    pub messages: u64,
    /// Readings ingested into cache + storage.
    pub readings: u64,
    /// Malformed frames dropped.
    pub decode_errors: u64,
    /// Storage maintenance passes (sealing/compaction/retention) that
    /// reported an error.
    pub maintenance_errors: u64,
    /// Ingest passes that hit their per-tick budget with messages still
    /// queued (sustained-overload indicator).
    pub budget_exhausted: u64,
}

struct SourceRecord {
    last_seen_ns: u64,
    readings: u64,
}

/// One ingest pass's entries: `entries[..len]` is the group handed to
/// storage; the slots past it keep their cleared batches for the next
/// pass, so a steady drain allocates nothing.
#[derive(Default)]
struct Drain {
    entries: Vec<(Topic, ReadingBatch)>,
    len: usize,
    /// Per frame taken: its topic, newest timestamp and readings.
    sources: Vec<(Topic, u64, u64)>,
}

impl Drain {
    /// Stages every entry of `msg`, naming each by the query engine's
    /// `Topic` for it (parsed on first sight); on a malformed frame or
    /// topic, unstages the frame whole. Returns the readings staged.
    fn stage(&mut self, msg: &Message, known: &KnownTopics<'_>) -> Result<usize> {
        let mark = self.len;
        let (mut newest, mut readings) = (None, 0usize);
        let staged = for_each_entry(&msg.topic, &msg.payload, |entry| {
            let topic = match known.get(entry.topic) {
                Some(topic) => topic.clone(),
                None if entry.topic == msg.topic.as_str() => msg.topic.clone(),
                None => entry_topic(entry.topic)?,
            };
            let batch = self.slot(topic);
            entry.extend_into(batch);
            newest = newest.max(batch.ts.iter().copied().max());
            readings += batch.len();
            Ok(())
        });
        if let Err(err) = staged {
            self.len = mark;
            return Err(err);
        }
        if let Some(newest) = newest {
            self.sources
                .push((msg.topic.clone(), newest, readings as u64));
        }
        Ok(readings)
    }

    /// The next slot, cleared, under `topic`.
    fn slot(&mut self, topic: Topic) -> &mut ReadingBatch {
        if self.len == self.entries.len() {
            self.entries.push((topic, ReadingBatch::new()));
        } else {
            let slot = &mut self.entries[self.len];
            slot.0 = topic;
            slot.1.clear();
        }
        self.len += 1;
        &mut self.entries[self.len - 1].1
    }

    fn entries(&self) -> &[(Topic, ReadingBatch)] {
        &self.entries[..self.len]
    }

    /// Ends a pass: at most `budget` slots stay, none holding room for
    /// more than `budget` readings (only a frame larger than the budget,
    /// taken alone, grows one past it).
    fn reset(&mut self, budget: usize) {
        self.entries.truncate(budget);
        for (_, batch) in &mut self.entries {
            if batch.ts.capacity() > budget {
                *batch = ReadingBatch::new();
            }
        }
        self.len = 0;
        self.sources.clear();
    }
}

/// This agent's role within its shard's replica pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
#[serde(rename_all = "lowercase")]
pub enum ShardRole {
    /// Serves ingest and queries; the shard's ring member.
    #[default]
    Primary,
    /// Journal-tailing standby applying the primary's acked stream;
    /// promoted on primary failure.
    Replica,
}

/// This agent's place in a federated deployment, assigned by the
/// federation host and reported verbatim by `GET /health` and
/// `GET /metrics` so shards are tellable apart from the outside.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardAssignment {
    /// Zero-based shard index within the federation.
    pub index: usize,
    /// Total number of shards in the current shard map.
    pub total: usize,
    /// Epoch of the shard map this assignment belongs to; bumped on
    /// every rebalance.
    pub epoch: u64,
    /// Virtual nodes this agent owns on the hash ring.
    pub vnodes: usize,
    /// Primary or journal-tailing replica within the shard's pair.
    pub role: ShardRole,
}

/// One DCDB Collect Agent.
pub struct CollectAgent {
    subscription: Subscription,
    bus: BusHandle,
    agent_id: String,
    /// Shard assignment in a federated deployment; `None` when the
    /// agent runs standalone.
    shard: Mutex<Option<ShardAssignment>>,
    ingest_budget: usize,
    expected_interval_ms: u64,
    manager: Arc<OperatorManager>,
    storage: Arc<dyn StorageEngine>,
    messages: AtomicU64,
    readings: AtomicU64,
    decode_errors: AtomicU64,
    maintenance_errors: AtomicU64,
    /// Ticks whose ingest budget was exhausted with messages still
    /// queued (overload indicator).
    budget_exhausted: AtomicU64,
    /// The entries of one pass, kept from pass to pass.
    drain: Mutex<Drain>,
    /// Last-seen reading timestamp + counters per source prefix
    /// (delivery staleness tracking).
    sources: Mutex<std::collections::HashMap<String, SourceRecord>>,
}

impl CollectAgent {
    /// Creates an agent subscribed to all sensor data on `bus`, backed
    /// by `storage` — a [`dcdb_storage::DurableBackend`] that journals
    /// every reading before it is acknowledged, to a data directory or
    /// (volatile storage) an in-memory disk.
    pub fn new(
        config: CollectAgentConfig,
        bus: &BusHandle,
        storage: Arc<dyn StorageEngine>,
    ) -> Result<CollectAgent> {
        let cache_slots = SensorCache::window_slots(config.cache_secs, config.expected_interval_ms);
        let query = Arc::new(QueryEngine::with_storage(cache_slots, Arc::clone(&storage)));
        let manager = OperatorManager::new(query);
        let filter = dcdb_bus::TopicFilter::parse("/#")?;
        let subscription =
            bus.subscribe_with(filter, SubscribeOptions::default().label("collect-agent"));
        Ok(CollectAgent {
            subscription,
            bus: bus.clone(),
            agent_id: config.agent_id,
            shard: Mutex::new(None),
            ingest_budget: config.ingest_budget.max(1),
            expected_interval_ms: config.expected_interval_ms.max(1),
            manager,
            storage,
            messages: AtomicU64::new(0),
            readings: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            maintenance_errors: AtomicU64::new(0),
            budget_exhausted: AtomicU64::new(0),
            drain: Mutex::default(),
            sources: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// The embedded Wintermute manager.
    pub fn manager(&self) -> &Arc<OperatorManager> {
        &self.manager
    }

    /// The stable agent identity reported by `/health` and `/metrics`.
    pub fn agent_id(&self) -> &str {
        &self.agent_id
    }

    /// Records this agent's shard assignment (federation host only);
    /// `None` reverts to standalone reporting.
    pub fn set_shard_assignment(&self, shard: Option<ShardAssignment>) {
        *self.shard.lock() = shard;
    }

    /// The current shard assignment, if federated.
    pub fn shard_assignment(&self) -> Option<ShardAssignment> {
        self.shard.lock().clone()
    }

    /// The system-wide query engine (caches + storage fallback).
    pub fn query_engine(&self) -> &Arc<QueryEngine> {
        self.manager.query_engine()
    }

    /// The storage engine.
    pub fn storage(&self) -> &Arc<dyn StorageEngine> {
        &self.storage
    }

    /// Drains pending frames into caches and storage, bounded by the
    /// configured per-tick ingest budget in readings, so a publish storm
    /// can never starve operators or storage maintenance. Surplus frames
    /// stay queued (and are shed by the subscription's overflow policy
    /// under sustained overload). A malformed frame counts once in
    /// `decode_errors` and none of its entries is ingested. Returns the
    /// number of readings ingested.
    pub fn process_pending(&self) -> usize {
        let budget = self.ingest_budget;
        let mut drain = self.drain.lock();
        let (mut taken, mut consumed, mut ingested) = (0usize, 0u64, 0usize);
        // A frame of `b` bytes carries at most `b / 16` readings: most
        // frames fit by their length alone, unwalked.
        let fits = |taken: usize, msg: &Message| {
            taken == 0
                || taken + msg.payload.len() / READING_WIRE_SIZE <= budget
                || taken + frame_readings(&msg.topic, &msg.payload).max(1) <= budget
        };
        self.query_engine().with_known_topics(|known| {
            while taken < budget {
                let Some(msg) = self.subscription.try_recv_if(|msg| fits(taken, msg)) else {
                    break;
                };
                consumed += 1;
                match drain.stage(&msg, &known) {
                    Ok(readings) => {
                        ingested += readings;
                        taken += readings.max(1);
                    }
                    Err(_) => {
                        self.decode_errors.fetch_add(1, Ordering::Relaxed);
                        taken += 1;
                    }
                }
            }
        });
        self.messages.fetch_add(consumed, Ordering::Relaxed);
        self.readings.fetch_add(ingested as u64, Ordering::Relaxed);
        // The loop stops with frames queued only at the budget.
        if self.subscription.queued() > 0 {
            self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
        }
        self.note_sources(&drain.sources);
        // The drain is the unit the storage engine journals; sensors
        // it had not seen need the tree refreshed so operators can bind.
        if self.query_engine().insert_many(drain.entries()) > 0 {
            self.query_engine().rebuild_navigator();
        }
        drain.reset(budget);
        ingested
    }

    /// Messages currently waiting on the agent's bus subscription.
    pub fn ingest_backlog(&self) -> usize {
        self.subscription.queued()
    }

    /// Updates the per-source last-seen clocks from one drain's frames,
    /// under one lock; a source's key is allocated when it is first
    /// seen.
    fn note_sources(&self, frames: &[(Topic, u64, u64)]) {
        let mut sources = self.sources.lock();
        for (topic, newest, readings) in frames {
            let prefix = topic.prefix_str(NODE_PREFIX_DEPTH);
            let record = match sources.get_mut(prefix) {
                Some(record) => record,
                None => sources.entry(prefix.to_string()).or_insert(SourceRecord {
                    last_seen_ns: 0,
                    readings: 0,
                }),
            };
            record.last_seen_ns = record.last_seen_ns.max(*newest);
            record.readings += readings;
        }
    }

    /// Per-pusher delivery health: one entry per source prefix, sorted
    /// by prefix, with last-seen reading timestamps and staleness
    /// relative to the newest tick (stale past 3× the expected sampling
    /// interval — the pusher is down, partitioned, or riding out an
    /// outage on its spool).
    pub fn delivery_health(&self) -> Vec<SourceHealth> {
        let now_ns = self.manager.last_tick().as_nanos();
        let stale_after_ns = self.stale_after_ms() * 1_000_000;
        let mut health: Vec<SourceHealth> = self
            .sources
            .lock()
            .iter()
            .map(|(prefix, record)| {
                let age_ns = now_ns.saturating_sub(record.last_seen_ns);
                SourceHealth {
                    prefix: prefix.clone(),
                    last_seen_ns: record.last_seen_ns,
                    readings: record.readings,
                    age_ms: age_ns / 1_000_000,
                    stale: age_ns > stale_after_ns,
                }
            })
            .collect();
        health.sort_by(|a, b| a.prefix.cmp(&b.prefix));
        health
    }

    /// The staleness threshold: 3× the expected sampling interval.
    pub fn stale_after_ms(&self) -> u64 {
        3 * self.expected_interval_ms
    }

    /// One tick: ingest pending data, run due operators, then give the
    /// storage engine a maintenance pass. The durable engine swaps out a
    /// full memtable and queues sealing, retention and compaction for
    /// its own maintenance thread, so the tick does not wait for them; an
    /// error a queued job left comes back from a later pass and counts in
    /// `maintenance_errors`. The manager keeps `now` as the agent's time.
    pub fn tick(&self, now: Timestamp) -> TickReport {
        self.process_pending();
        let report = self.manager.tick(now);
        if self.storage.maintain(now).is_err() {
            self.maintenance_errors.fetch_add(1, Ordering::Relaxed);
        }
        report
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CollectAgentStats {
        CollectAgentStats {
            messages: self.messages.load(Ordering::Relaxed),
            readings: self.readings.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            maintenance_errors: self.maintenance_errors.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
        }
    }

    /// Live operational metrics as JSON: broker counters,
    /// per-subscriber queue depth / high-water / drop counters,
    /// agent ingest counters, query-engine and storage statistics, and
    /// the embedded Wintermute runtime's per-operator fault-isolation
    /// metrics (runs, errors, panics, overruns, quarantine state,
    /// compute latency) under `"operators"`. The `"delivery"` section
    /// reports per-pusher staleness: the newest reading timestamp per
    /// source prefix, flagged stale past 3× the expected sampling
    /// interval.
    pub fn metrics_json(&self) -> serde_json::Value {
        let bus = self.bus.metrics();
        let qe = self.query_engine();
        let sources = self.delivery_health();
        json!({
            "bus": json!({
                "published": bus.stats.published,
                "delivered": bus.stats.delivered,
                "dropped": bus.stats.dropped,
                "subscriptions": bus.subscriptions,
            }),
            "agent": document(&self.stats(), json!({
                "id": self.agent_id,
                "shard": self.shard_assignment(),
                "ingest_backlog": self.ingest_backlog(),
            })),
            "query": document(&qe.stats(), json!({
                "sensors": qe.sensor_count(),
                "cache_memory_bytes": qe.cache_memory_bytes(),
            })),
            "storage": document(
                &self.storage.stats(),
                json!({"health": self.storage.health().map(health_document)}),
            ),
            "operators": self.manager.metrics_json(),
            "delivery": json!({
                "expected_interval_ms": self.expected_interval_ms,
                "stale_after_ms": self.stale_after_ms(),
                "source_prefix_depth": NODE_PREFIX_DEPTH,
                "stale_sources": sources.iter().filter(|s| s.stale).count(),
                "sources": sources,
            }),
        })
    }

    /// Mounts the Collect Agent REST API: Wintermute management routes,
    /// raw sensor queries (`GET /sensors/<topic>?from_s=..&to_s=..`),
    /// and the operational metrics endpoint (`GET /metrics`).
    pub fn mount_routes(self: &Arc<Self>, router: &mut Router) {
        self.manager.mount_routes(router);
        let agent = Arc::clone(self);
        router.route(Method::Get, "/sensors/*topic", move |req| {
            let (topic, from, to) = match parse_sensors_query(req) {
                Ok(q) => q,
                Err(resp) => return resp,
            };
            let readings = agent
                .query_engine()
                .query(&topic, QueryMode::Absolute { t0: from, t1: to });
            Response::json(sensors_body(None, &readings))
        });
        // GET /query — tier-aware aggregate queries over a sensor
        // pattern: ?sensor=<topic or +/# pattern>&agg=avg&step=10s
        // &from_s=..&to_s=.. Served from rollup tiers when one divides
        // the step, stitched with raw at the recent boundary.
        let agent = Arc::clone(self);
        router.route(Method::Get, "/query", move |req| {
            let params = match parse_agg_query(req) {
                Ok(p) => p,
                Err(resp) => return resp,
            };
            let qe = agent.query_engine();
            let series: Vec<(Topic, AggSeries)> = qe
                .select(&params.filter)
                .into_iter()
                .map(|topic| {
                    let s = qe.query_agg(&topic, params.from, params.to, params.step_ns);
                    (topic, s)
                })
                .collect();
            Response::json(agg_query_body(None, params.func, params.step_ns, &series))
        });
        let agent = Arc::clone(self);
        router.route(Method::Get, "/metrics", move |_req| {
            Response::json(agent.metrics_json().to_string())
        });
        // GET /health — liveness/readiness for load balancers and
        // monitoring: 200 while the storage engine accepts durable
        // writes (healthy or degraded-but-retrying), 503 once it has
        // fallen back to memtable-only buffering (read_only).
        let agent = Arc::clone(self);
        router.route(Method::Get, "/health", move |_req| {
            let report = agent.storage().health();
            let state = report.map_or(dcdb_storage::HealthState::Healthy, |h| h.state);
            let status = match state {
                dcdb_storage::HealthState::ReadOnly => Status::ServiceUnavailable,
                _ => Status::Ok,
            };
            let body = json!({
                "status": if status == Status::Ok { "ok" } else { "unavailable" },
                "agent_id": agent.agent_id(),
                "shard": agent.shard_assignment(),
                "state": state,
                "storage": report.map(health_document),
            });
            Response::json(body.to_string()).with_status(status)
        });
    }
}

/// A storage health report as served under `/metrics` (`storage.health`)
/// and `/health` (`storage`).
fn health_document(h: dcdb_storage::StorageHealthReport) -> serde_json::Value {
    document(&h, json!({"conserved": h.conserved()}))
}

/// Validated parameters of a `GET /query` aggregate request, shared by
/// the single-agent route and the federation router (which validates
/// with the same parser *before* scattering, so a malformed request is
/// one 400 at the front door, never a fan-out).
#[derive(Debug, Clone)]
pub struct AggQueryParams {
    /// Sensor selector: an exact topic or an MQTT-style `+`/`#` pattern.
    pub filter: dcdb_bus::TopicFilter,
    /// The aggregate function (default `avg`).
    pub func: AggFunc,
    /// Grid bucket width, nanoseconds (default 10 s).
    pub step_ns: u64,
    /// Range start (default open).
    pub from: Timestamp,
    /// Range end (default open).
    pub to: Timestamp,
}

/// Hard ceiling on `(to - from) / step` for explicitly-bounded
/// requests: past this the request is a client error ("step too small
/// for range"), not an accidental multi-million-bucket scan.
pub const MAX_GRID_BUCKETS: u64 = 100_000;

/// Parses a `step=` duration: a bare integer is seconds; `ms`, `s`,
/// `m`, `h` suffixes are honoured (`500ms`, `10s`, `5m`, `1h`).
/// Returns `None` for malformed or zero durations.
pub fn parse_step(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, scale_ns) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60 * 1_000_000_000)
    } else if let Some(d) = s.strip_suffix('h') {
        (d, 3_600 * 1_000_000_000)
    } else {
        (s, 1_000_000_000)
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_mul(scale_ns).filter(|ns| *ns > 0)
}

/// Validates the `GET /query` parameter set. Every rejection is a
/// `400 Bad Request` naming the offending parameter; both the
/// single-agent route and the federation front door call this, so the
/// two surfaces reject identically.
pub fn parse_agg_query(req: &dcdb_rest::Request) -> std::result::Result<AggQueryParams, Response> {
    let Some(raw_sensor) = req.query_param("sensor") else {
        return Err(Response::error(
            Status::BadRequest,
            "missing sensor parameter (exact topic or +/# pattern)",
        ));
    };
    let filter = match dcdb_bus::TopicFilter::parse(raw_sensor) {
        Ok(f) => f,
        Err(_) => {
            return Err(Response::error(
                Status::BadRequest,
                format!("malformed sensor pattern {raw_sensor:?}"),
            ))
        }
    };
    let func = match req.query_param("agg") {
        None => AggFunc::Avg,
        Some(raw) => match AggFunc::parse(raw) {
            Some(f) => f,
            None => {
                return Err(Response::error(
                    Status::BadRequest,
                    format!("unknown agg {raw:?}: expected avg|min|max|sum|count"),
                ))
            }
        },
    };
    let step_ns = match req.query_param("step") {
        None => 10 * 1_000_000_000,
        Some(raw) => match parse_step(raw) {
            Some(ns) => ns,
            None => {
                return Err(Response::error(
                    Status::BadRequest,
                    format!("malformed step {raw:?}: expected <n>[ms|s|m|h] > 0"),
                ))
            }
        },
    };
    let from = parse_ts_param(req, "from_s")?.unwrap_or(Timestamp::ZERO);
    let to = parse_ts_param(req, "to_s")?.unwrap_or(Timestamp::MAX);
    if to < from {
        return Err(Response::error(
            Status::BadRequest,
            "empty range: from_s > to_s",
        ));
    }
    // Explicitly-bounded requests are capped; open-ended ones are
    // clamped to the data extent by the planner.
    if to != Timestamp::MAX && (to.as_nanos() - from.as_nanos()) / step_ns > MAX_GRID_BUCKETS {
        return Err(Response::error(
            Status::BadRequest,
            format!("step too small for range (over {MAX_GRID_BUCKETS} buckets)"),
        ));
    }
    Ok(AggQueryParams {
        filter,
        func,
        step_ns,
        from,
        to,
    })
}

/// Validates a `GET /sensors/*topic?from_s=..&to_s=..` request into
/// `(topic, from, to)`, for the single-agent route and the federation
/// router alike. Absent bounds default to the open range; a malformed
/// topic or a present-but-unparsable bound is a `400 Bad Request`.
pub fn parse_sensors_query(
    req: &dcdb_rest::Request,
) -> std::result::Result<(Topic, Timestamp, Timestamp), Response> {
    let raw = format!("/{}", req.path_param("topic").unwrap_or_default());
    let Ok(topic) = Topic::parse(&raw) else {
        return Err(Response::error(Status::BadRequest, "malformed topic"));
    };
    let from = parse_ts_param(req, "from_s")?.unwrap_or(Timestamp::ZERO);
    let to = parse_ts_param(req, "to_s")?.unwrap_or(Timestamp::MAX);
    Ok((topic, from, to))
}

/// The body of `GET /sensors/<topic>`, written once from the readings:
/// an array of `{"timestamp":..,"value":..}` rows, or, behind the
/// federation router, `{"meta":<meta>,"readings":[..]}` where `meta`
/// is the router's already-rendered envelope.
pub fn sensors_body(meta: Option<&str>, readings: &[SensorReading]) -> String {
    let mut w = JsonWriter::with_capacity(64 + meta.map_or(0, str::len) + 56 * readings.len());
    if let Some(meta) = meta {
        w.begin_object();
        w.key("meta").raw(meta);
        w.key("readings");
    }
    w.begin_array();
    for r in readings {
        w.begin_object();
        w.key("timestamp").u64(r.ts.as_nanos());
        w.key("value").i64(r.value);
        w.end_object();
    }
    w.end_array();
    if meta.is_some() {
        w.end_object();
    }
    w.finish()
}

/// The body of `GET /query`, written once from the planner's frames:
/// `{"agg":..,"series":[..],"step_ns":..}` with the federation
/// router's already-rendered envelope as `"meta"` when there is one.
/// Each point carries the applied value plus the mergeable frame
/// columns (`count`/`sum`/`min`/`max`), which is what lets a router
/// combine shard answers exactly and derive `avg` itself.
pub fn agg_query_body(
    meta: Option<&str>,
    func: AggFunc,
    step_ns: u64,
    series: &[(Topic, AggSeries)],
) -> String {
    let points: usize = series.iter().map(|(_, s)| s.frames.len()).sum();
    let mut w = JsonWriter::with_capacity(
        128 + meta.map_or(0, str::len) + 192 * series.len() + 128 * points,
    );
    w.begin_object();
    w.key("agg").str(func.as_str());
    if let Some(meta) = meta {
        w.key("meta").raw(meta);
    }
    w.key("series").begin_array();
    for (topic, s) in series {
        w.begin_object();
        w.key("plan").begin_object();
        w.key("buckets_from_raw")
            .u64(s.plan.buckets_from_raw as u64);
        w.key("buckets_from_tier")
            .u64(s.plan.buckets_from_tier as u64);
        w.key("tier_ns").u64(s.plan.tier_ns);
        w.end_object();
        w.key("points").begin_array();
        for frame in &s.frames {
            w.begin_object();
            w.key("count").u64(frame.count);
            w.key("max").i64(frame.max);
            w.key("min").i64(frame.min);
            w.key("sum").i64(frame.sum);
            w.key("t").u64(frame.bucket_ns);
            w.key("value").f64(func.apply(frame));
            w.end_object();
        }
        w.end_array();
        w.key("sensor").str(topic.as_str());
        w.end_object();
    }
    w.end_array();
    w.key("step_ns").u64(step_ns);
    w.end_object();
    w.finish()
}

/// Parses an optional `?name=<seconds>` query parameter. `Ok(None)`
/// when absent; a `400 Bad Request` response when present but not an
/// unsigned integer, or past what nanoseconds in a `u64` can hold.
fn parse_ts_param(
    req: &dcdb_rest::Request,
    name: &str,
) -> std::result::Result<Option<Timestamp>, Response> {
    let Some(v) = req.query_param(name) else {
        return Ok(None);
    };
    v.parse::<u64>()
        .ok()
        .and_then(|s| s.checked_mul(NS_PER_SEC))
        .map(|ns| Some(Timestamp(ns)))
        .ok_or_else(|| {
            Response::error(
                Status::BadRequest,
                format!(
                    "malformed {name}: expected unsigned seconds up to {}, got {v:?}",
                    u64::MAX / NS_PER_SEC
                ),
            )
        })
}

/// Adapts the simulated cluster's job scheduler into the
/// [`JobDataSource`] job operators consume — the stand-in for the
/// resource-manager integration of a production Collect Agent.
pub struct SimJobSource {
    sim: Arc<Mutex<ClusterSimulator>>,
}

impl SimJobSource {
    /// Wraps a shared simulator.
    pub fn new(sim: Arc<Mutex<ClusterSimulator>>) -> Self {
        SimJobSource { sim }
    }
}

impl JobDataSource for SimJobSource {
    fn running_jobs(&self, now: Timestamp) -> Vec<JobInfo> {
        let sim = self.sim.lock();
        let topology = sim.topology().clone();
        sim.scheduler()
            .running_at(now)
            .into_iter()
            .map(|job| JobInfo {
                id: job.id,
                user: job.user.clone(),
                node_paths: job
                    .nodes
                    .iter()
                    .filter(|&&n| n < topology.total_nodes)
                    .map(|&n| topology.node_topic(n))
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_bus::{Broker, MessageBus};
    use dcdb_common::reading::SensorReading;
    use dcdb_storage::{DurableBackend, DurableConfig};
    use sim_cluster::{AppModel, ClusterConfig};

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn setup() -> (Broker, Arc<CollectAgent>) {
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::in_memory());
        let agent = Arc::new(
            CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap(),
        );
        (broker, agent)
    }

    #[test]
    fn ingests_bus_data_into_cache_and_storage() {
        let (broker, agent) = setup();
        let bus = broker.handle();
        for i in 1..=5u64 {
            bus.publish_readings(
                t("/r0/n0/power"),
                &[SensorReading::new(100 + i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        let ingested = agent.process_pending();
        assert_eq!(ingested, 5);
        let stats = agent.stats();
        assert_eq!(stats.messages, 5);
        assert_eq!(stats.readings, 5);
        // Cache answer.
        let got = agent
            .query_engine()
            .query(&t("/r0/n0/power"), QueryMode::Latest);
        assert_eq!(got[0].value, 105);
        // Storage answer.
        assert_eq!(agent.storage().stats().readings, 5);
        // Navigator was rebuilt.
        assert!(agent
            .query_engine()
            .navigator()
            .has_sensor(&t("/r0/n0/power")));
    }

    #[test]
    fn ingests_columnar_frames_end_to_end() {
        let (broker, agent) = setup();
        let bus = broker.handle();
        let batch: ReadingBatch = (1..=100u64)
            .map(|i| SensorReading::new(i as i64, Timestamp::from_secs(i)))
            .collect();
        bus.publish_batch(t("/r0/n0/power"), &batch).unwrap();
        assert_eq!(agent.process_pending(), 100);
        assert_eq!(agent.stats().readings, 100);
        assert_eq!(agent.storage().stats().readings, 100);
        let got = agent.query_engine().query(
            &t("/r0/n0/power"),
            QueryMode::Absolute {
                t0: Timestamp::from_secs(40),
                t1: Timestamp::from_secs(42),
            },
        );
        assert_eq!(
            got.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![40, 41, 42]
        );
        // The delivery tracker saw the batch's newest timestamp.
        let health = agent.delivery_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].last_seen_ns, Timestamp::from_secs(100).as_nanos());
    }

    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let (broker, agent) = setup();
        broker
            .handle()
            .publish(t("/bad/frame"), bytes::Bytes::from_static(&[1, 2, 3]))
            .unwrap();
        agent.process_pending();
        assert_eq!(agent.stats().decode_errors, 1);
        assert_eq!(agent.stats().readings, 0);
    }

    #[test]
    fn retired_v1_frame_is_one_decode_error() {
        // A well-formed frame of the retired row-major version: version
        // byte 1, one reading as an interleaved value/timestamp pair.
        let mut v1 = vec![1u8];
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&42i64.to_le_bytes());
        v1.extend_from_slice(&Timestamp::from_secs(1).as_nanos().to_le_bytes());
        let (broker, agent) = setup();
        broker
            .handle()
            .publish(t("/r0/n0/power"), bytes::Bytes::from(v1))
            .unwrap();
        agent.process_pending();
        assert_eq!(agent.stats().decode_errors, 1);
        assert_eq!(agent.stats().readings, 0);
    }

    #[test]
    fn operators_run_on_ingested_data() {
        let (broker, agent) = setup();
        wintermute_plugins::register_all(agent.manager(), None);
        let bus = broker.handle();
        for i in 1..=5u64 {
            for n in 0..3 {
                bus.publish_readings(
                    t(&format!("/r0/n{n}/power")),
                    &[SensorReading::new(
                        100 * (n + 1) as i64,
                        Timestamp::from_secs(i),
                    )],
                )
                .unwrap();
            }
        }
        agent.process_pending();
        agent
            .manager()
            .load(
                PluginConfig::online("avg", "aggregator", 1000)
                    .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
                    .with_option("window_ms", 10_000u64),
            )
            .unwrap();
        let report = agent.tick(Timestamp::from_secs(6));
        assert!(report.errors.is_empty());
        assert_eq!(report.outputs_published, 3);
    }

    #[test]
    fn rest_sensor_queries() {
        let (broker, agent) = setup();
        let bus = broker.handle();
        for i in 1..=3u64 {
            bus.publish_readings(
                t("/r0/n0/temp"),
                &[SensorReading::new(40 + i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        agent.process_pending();
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/sensors/r0/n0/temp?from_s=2&to_s=3",
        ));
        assert_eq!(resp.status.code(), 200);
        let body = resp.body_str();
        assert!(body.contains("\"value\":42"), "{body}");
        assert!(body.contains("\"value\":43"));
        assert!(!body.contains("\"value\":41"));
    }

    /// A late reading and a repeated timestamp read as storage holds
    /// them through both data routes: right after the insert, when the
    /// cache serves them, and once the window has moved past them.
    #[test]
    fn rest_routes_answer_a_late_reading_and_a_repeat_as_storage_holds_them() {
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::in_memory());
        let agent = Arc::new(
            CollectAgent::new(
                CollectAgentConfig {
                    cache_secs: 5,
                    expected_interval_ms: 1000,
                    ..CollectAgentConfig::default()
                },
                &broker.handle(),
                storage,
            )
            .unwrap(),
        );
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        let bus = broker.handle();
        let ingest = |readings: &[(i64, u64)]| {
            for &(v, s) in readings {
                let r = SensorReading::new(v, Timestamp::from_secs(s));
                bus.publish_readings(t("/r0/n0/power"), &[r]).unwrap();
            }
            agent.process_pending();
        };
        let get = |path: &str| {
            let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, path));
            assert_eq!(resp.status.code(), 200, "{path} -> {}", resp.body_str());
            serde_json::from_str::<serde_json::Value>(&resp.body_str()).unwrap()
        };
        // `from_s=10` starts at the cache's oldest reading while the
        // cache still holds it: the cache alone answers then.
        let hits = || agent.query_engine().stats().cache_hits;
        let check = |values: [i64; 4], cache_hits: u64| {
            let before = hits();
            for from in [0, 10] {
                let v = get(&format!("/sensors/r0/n0/power?from_s={from}&to_s=40"));
                let field = |name: &str| -> Vec<u64> {
                    let rows = v.as_array().unwrap().iter();
                    rows.map(|r| r.get(name).unwrap().as_i64().unwrap() as u64)
                        .collect()
                };
                let secs: Vec<u64> = field("timestamp")
                    .iter()
                    .map(|ns| ns / 1_000_000_000)
                    .collect();
                assert_eq!(secs, vec![10, 15, 20, 30], "from_s={from}");
                assert_eq!(field("value"), values.map(|v| v as u64).to_vec());
            }
            let v = get("/query?sensor=/r0/n0/power&agg=count&step=40s&from_s=0&to_s=39");
            let series = v.get("series").unwrap().as_array().unwrap();
            let points = series[0].get("points").unwrap().as_array().unwrap();
            assert_eq!(points.len(), 1);
            assert_eq!(points[0].get("count").unwrap().as_u64(), Some(4));
            assert_eq!(hits() - before, cache_hits);
        };
        ingest(&[(10, 10), (20, 20), (30, 30)]);
        ingest(&[(15, 15)]);
        check([10, 15, 20, 30], 1);
        ingest(&[(-20, 20)]);
        check([10, 15, -20, 30], 1);
        ingest(&[(41, 41), (42, 42), (43, 43), (44, 44), (45, 45), (46, 46)]);
        check([10, 15, -20, 30], 0);
    }

    #[test]
    fn rest_sensor_query_rejects_malformed_range_params() {
        let (broker, agent) = setup();
        broker
            .handle()
            .publish_readings(
                t("/r0/n0/temp"),
                &[SensorReading::new(40, Timestamp::from_secs(1))],
            )
            .unwrap();
        agent.process_pending();
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        // Malformed bounds are client errors, not silent full-range
        // queries.
        for path in [
            "/sensors/r0/n0/temp?from_s=abc",
            "/sensors/r0/n0/temp?to_s=-5",
            "/sensors/r0/n0/temp?from_s=1&to_s=2x",
            // Past what u64 nanoseconds hold: 2^64 ns is 18446744073.7 s.
            "/sensors/r0/n0/temp?from_s=18446744074",
            "/sensors/r0/n0/temp?to_s=18446744074",
            "/sensors/r0/n0/temp?to_s=18446744073709551615",
        ] {
            let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, path));
            assert_eq!(resp.status.code(), 400, "{path} -> {}", resp.body_str());
        }
        // Absent params still default to the open range.
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/sensors/r0/n0/temp"));
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body_str().contains("\"value\":40"));
        // The last second u64 nanoseconds hold is still a bound.
        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/sensors/r0/n0/temp?to_s=18446744073",
        ));
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body_str().contains("\"value\":40"));
    }

    #[test]
    fn rest_aggregate_query_over_pattern() {
        let (broker, agent) = setup();
        let bus = broker.handle();
        // Two nodes, values 1..=30 at seconds 1..=30.
        for n in 0..2 {
            for i in 1..=30u64 {
                bus.publish_readings(
                    t(&format!("/r0/n{n}/power")),
                    &[SensorReading::new(
                        (100 * n + i) as i64,
                        Timestamp::from_secs(i),
                    )],
                )
                .unwrap();
            }
        }
        agent.process_pending();
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/query?sensor=/r0/%2B/power&agg=avg&step=10s",
        ));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("agg").unwrap().as_str(), Some("avg"));
        assert_eq!(v.get("step_ns").unwrap().as_u64(), Some(10_000_000_000));
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2, "pattern matched both nodes");
        let s0 = &series[0];
        assert_eq!(s0.get("sensor").unwrap().as_str(), Some("/r0/n0/power"));
        let points = s0.get("points").unwrap().as_array().unwrap();
        // Buckets [0,10) [10,20) [20,30) [30,40): counts 9,10,10,1.
        let counts: Vec<u64> = points
            .iter()
            .map(|p| p.get("count").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(counts, vec![9, 10, 10, 1]);
        // avg of 1..=9 = 5.0; mergeable columns are served alongside.
        assert_eq!(points[0].get("value").unwrap().as_f64(), Some(5.0));
        assert_eq!(points[0].get("sum").unwrap().as_i64(), Some(45));
        assert_eq!(points[1].get("min").unwrap().as_i64(), Some(10));
        assert_eq!(points[1].get("max").unwrap().as_i64(), Some(19));
        // An exact topic (no wildcard) selects one series; count agg.
        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/query?sensor=/r0/n1/power&agg=count&step=1m",
        ));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 1);
        let points = series[0].get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("value").unwrap().as_f64(), Some(30.0));
    }

    #[test]
    fn rest_aggregate_query_rejects_malformed_params() {
        let (broker, agent) = setup();
        broker
            .handle()
            .publish_readings(
                t("/r0/n0/power"),
                &[SensorReading::new(1, Timestamp::from_secs(1))],
            )
            .unwrap();
        agent.process_pending();
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        for path in [
            "/query",                                                  // missing sensor
            "/query?sensor=/%23/x",                                    // '#' not last
            "/query?sensor=/r0/n0/power&agg=median",                   // unknown agg
            "/query?sensor=/r0/n0/power&step=abc",                     // malformed step
            "/query?sensor=/r0/n0/power&step=0",                       // zero step
            "/query?sensor=/r0/n0/power&step=-5s",                     // negative step
            "/query?sensor=/r0/n0/power&from_s=9&to_s=1",              // reversed range
            "/query?sensor=/r0/n0/power&from_s=x",                     // malformed bound
            "/query?sensor=/r0/n0/power&from_s=18446744074",           // past u64 ns
            "/query?sensor=/r0/n0/power&to_s=18446744074",             // past u64 ns
            "/query?sensor=/r0/+/power",                               // '+' decoded to ' '
            "/query?sensor=/r0/n0/power&from_s=0&to_s=999999&step=1s", // cap
        ] {
            let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, path));
            assert_eq!(resp.status.code(), 400, "{path} -> {}", resp.body_str());
        }
        // Defaults: agg=avg, step=10s, open range — still a 200.
        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/query?sensor=/r0/n0/power",
        ));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("agg").unwrap().as_str(), Some("avg"));
        // The /metrics query section carries the planner counters.
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/metrics"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let q = v.get("query").unwrap();
        assert!(q.get("agg_queries").unwrap().as_u64().unwrap() >= 1);
        assert!(q.get("agg_raw_buckets").unwrap().as_u64().is_some());
        assert!(q.get("agg_tier_buckets").unwrap().as_u64().is_some());
    }

    #[test]
    fn rest_aggregate_query_served_from_rollup_tiers() {
        // A durable backend maintains rollup tiers; /query answers from
        // them (plan.buckets_from_tier > 0) and matches raw semantics.
        let mut dir = std::env::temp_dir();
        dir.push(format!("dcdb-agent-rollup-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::open(&dir, DurableConfig::default()).unwrap());
        // A short cache window: the planner only trusts tier frames for
        // buckets wholly before the raw-cache boundary, so most of the
        // 120 s series must fall out of the ring for tiers to serve it.
        let agent = Arc::new(
            CollectAgent::new(
                CollectAgentConfig {
                    cache_secs: 20,
                    ..CollectAgentConfig::default()
                },
                &broker.handle(),
                storage,
            )
            .unwrap(),
        );
        let bus = broker.handle();
        for i in 1..=120u64 {
            bus.publish_readings(
                t("/r0/n0/power"),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        agent.process_pending();
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        let resp = router.dispatch(dcdb_rest::Request::new(
            Method::Get,
            "/query?sensor=/r0/n0/power&agg=max&step=30s&from_s=0&to_s=120",
        ));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let series = v.get("series").unwrap().as_array().unwrap();
        let plan = series[0].get("plan").unwrap();
        assert_eq!(
            plan.get("tier_ns").unwrap().as_u64(),
            Some(10_000_000_000),
            "30s step is served from the 10s tier: {plan}"
        );
        assert!(plan.get("buckets_from_tier").unwrap().as_u64().unwrap() > 0);
        let points = series[0].get("points").unwrap().as_array().unwrap();
        // Buckets [0,30) [30,60) [60,90) [90,120) [120,150).
        let maxes: Vec<i64> = points
            .iter()
            .map(|p| p.get("max").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(maxes, vec![29, 59, 89, 119, 120]);
        let total: u64 = points
            .iter()
            .map(|p| p.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 120, "each reading aggregated exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_endpoint_reports_queues_and_counters() {
        let (broker, agent) = setup();
        let bus = broker.handle();
        for i in 1..=4u64 {
            bus.publish_readings(
                t("/r0/n0/power"),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        agent.process_pending();
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/metrics"));
        assert_eq!(resp.status.code(), 200);
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let bus_m = v.get("bus").unwrap();
        assert_eq!(bus_m.get("published").unwrap().as_u64(), Some(4));
        assert_eq!(
            v.get("agent").unwrap().get("readings").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(
            v.get("storage").unwrap().get("readings").unwrap().as_u64(),
            Some(4)
        );
        let subs = bus_m.get("subscriptions").unwrap().as_array().unwrap();
        let agent_sub = subs
            .iter()
            .find(|s| s.get("label").unwrap().as_str() == Some("collect-agent"))
            .expect("agent subscription is registered");
        let q = agent_sub.get("queue").unwrap();
        assert_eq!(q.get("depth").unwrap().as_u64(), Some(0));
        assert_eq!(q.get("dequeued").unwrap().as_u64(), Some(4));
        assert!(q.get("capacity").unwrap().as_u64().unwrap() > 0);
        // The embedded operator runtime reports under "operators".
        let ops = v.get("operators").unwrap();
        assert!(ops.get("ticks").unwrap().as_u64().is_some());
        let totals = ops.get("totals").unwrap();
        for key in [
            "runs",
            "successes",
            "errors",
            "panics",
            "overruns",
            "quarantined_skips",
            "quarantined_operators",
        ] {
            assert!(totals.get(key).unwrap().as_u64().is_some(), "{key}");
        }
        assert!(ops.get("plugins").unwrap().as_array().is_some());
    }

    #[test]
    fn ingest_budget_bounds_one_pass_and_preserves_backlog() {
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::in_memory());
        let agent = CollectAgent::new(
            CollectAgentConfig {
                ingest_budget: 10,
                ..CollectAgentConfig::default()
            },
            &broker.handle(),
            storage,
        )
        .unwrap();
        let bus = broker.handle();
        for i in 1..=25u64 {
            bus.publish_readings(
                t("/r0/n0/power"),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        // Each pass ingests at most the budget; the rest stays queued.
        assert_eq!(agent.process_pending(), 10);
        assert_eq!(agent.ingest_backlog(), 15);
        assert_eq!(agent.stats().budget_exhausted, 1);
        assert_eq!(agent.process_pending(), 10);
        assert_eq!(agent.process_pending(), 5);
        assert_eq!(agent.ingest_backlog(), 0);
        assert_eq!(agent.stats().readings, 25);
        // No further budget exhaustion once drained.
        assert_eq!(agent.process_pending(), 0);
        assert_eq!(agent.stats().budget_exhausted, 2);
    }

    /// A node frame of `n` readings, one entry per sensor `s<k>` below
    /// `/r0/n0`, valued `base + k` at second `base + k`.
    fn node_frame(base: u64, n: u64) -> (Topic, bytes::Bytes) {
        let mut builder = dcdb_bus::FrameBuilder::default();
        for k in 0..n {
            let v = base + k;
            builder.push(
                &t(&format!("/r0/n0/s{k}")),
                SensorReading::new(v as i64, Timestamp::from_secs(v)),
            );
        }
        let frame = builder.finish().remove(0);
        (frame.topic, frame.payload)
    }

    /// A frame that turns bad after a good entry: the agent takes none
    /// of it, while the frames around it are ingested whole.
    #[test]
    fn a_malformed_node_frame_is_rejected_whole() {
        let (broker, agent) = setup();
        let bus = broker.handle();
        let (node, good) = node_frame(1, 3);
        let push_raw = |raw: &str| {
            let mut buf = good[..good.len()].to_vec();
            buf[1..5].copy_from_slice(&4u32.to_le_bytes());
            dcdb_common::batch::push_entry(&mut buf, raw, &[9], &[9]).unwrap();
            bytes::Bytes::from(buf)
        };
        bus.publish(node.clone(), good.clone()).unwrap();
        // A fourth entry whose topic is not in normal form, then one
        // under another node: both frames fail after three good entries.
        bus.publish(node.clone(), push_raw("/r0/n0//x")).unwrap();
        bus.publish(node.clone(), push_raw("/r0/n1/x")).unwrap();
        let (_, later) = node_frame(10, 3);
        bus.publish(node.clone(), later).unwrap();
        assert_eq!(agent.process_pending(), 6);
        let stats = agent.stats();
        assert_eq!(
            (stats.messages, stats.readings, stats.decode_errors),
            (4, 6, 2)
        );
        let values = agent.query_engine().query(
            &t("/r0/n0/s0"),
            QueryMode::Absolute {
                t0: Timestamp::ZERO,
                t1: Timestamp::MAX,
            },
        );
        let ts: Vec<u64> = values
            .iter()
            .map(|r| r.ts.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(ts, vec![1, 10], "nothing from the rejected frames");
        assert_eq!(agent.storage().stats().readings, 6);
        assert!(!agent.query_engine().knows(&t("/r0/n1/x")));
        assert_eq!(agent.delivery_health()[0].readings, 6);
    }

    /// The budget counts readings: a pass stops before the frame that
    /// would pass it, and a frame larger than the budget goes alone.
    /// The group the agent keeps never outgrows one pass.
    #[test]
    fn the_budget_counts_readings_and_takes_an_oversized_frame_alone() {
        let broker = Broker::new();
        let agent = CollectAgent::new(
            CollectAgentConfig {
                ingest_budget: 10,
                ..CollectAgentConfig::default()
            },
            &broker.handle(),
            Arc::new(DurableBackend::in_memory()),
        )
        .unwrap();
        let bus = broker.handle();
        for base in [100, 200, 300] {
            let (node, frame) = node_frame(base, 4);
            bus.publish(node, frame).unwrap();
        }
        let (node, big) = node_frame(400, 25);
        bus.publish(node, big).unwrap();
        assert_eq!(
            agent.process_pending(),
            8,
            "two frames of 4; a third would pass 10"
        );
        assert_eq!(
            (agent.ingest_backlog(), agent.stats().budget_exhausted),
            (2, 1)
        );
        assert_eq!(
            agent.process_pending(),
            4,
            "the big frame does not fit behind it"
        );
        assert_eq!(agent.process_pending(), 25, "alone, it is taken whole");
        assert_eq!(agent.ingest_backlog(), 0);
        let stats = agent.stats();
        assert_eq!(
            (stats.readings, stats.messages, stats.budget_exhausted),
            (37, 4, 2)
        );
        let drain = agent.drain.lock();
        assert!(drain.entries.len() <= 10);
        assert!(drain.entries.iter().all(|(_, b)| b.ts.capacity() <= 10));
    }

    #[test]
    fn source_grouping_uses_topic_prefix() {
        // Delivery-staleness grouping rides on Topic::prefix — the same
        // key the federation ring shards by (see dcdb-common tests for
        // the edge cases).
        assert_eq!(
            t("/rack00/node03/cpu00/cycles").prefix(2).as_str(),
            "/rack00/node03"
        );
        assert_eq!(t("/short").prefix(2).as_str(), "/short");
    }

    #[test]
    fn health_and_metrics_report_agent_identity_and_shard() {
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::in_memory());
        let agent = Arc::new(
            CollectAgent::new(
                CollectAgentConfig {
                    agent_id: "agent-07".into(),
                    ..CollectAgentConfig::default()
                },
                &broker.handle(),
                storage,
            )
            .unwrap(),
        );
        let mut router = Router::new();
        agent.mount_routes(&mut router);

        // Standalone: id present, shard null.
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/health"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("agent_id").unwrap().as_str(), Some("agent-07"));
        assert!(v.get("shard").unwrap().is_null());

        // Federated: the host records the assignment; both endpoints
        // serve it.
        agent.set_shard_assignment(Some(ShardAssignment {
            index: 2,
            total: 4,
            epoch: 3,
            vnodes: 64,
            role: ShardRole::Primary,
        }));
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/health"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let shard = v.get("shard").unwrap();
        assert_eq!(shard.get("index").unwrap().as_u64(), Some(2));
        assert_eq!(shard.get("total").unwrap().as_u64(), Some(4));
        assert_eq!(shard.get("epoch").unwrap().as_u64(), Some(3));
        assert_eq!(shard.get("role").unwrap().as_str(), Some("primary"));

        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/metrics"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let a = v.get("agent").unwrap();
        assert_eq!(a.get("id").unwrap().as_str(), Some("agent-07"));
        assert_eq!(
            a.get("shard").unwrap().get("vnodes").unwrap().as_u64(),
            Some(64)
        );
    }

    #[test]
    fn delivery_staleness_flags_silent_sources_and_clears_on_recovery() {
        let (broker, agent) = setup();
        let bus = broker.handle();
        let feed = |node: usize, secs: std::ops::RangeInclusive<u64>| {
            for i in secs {
                bus.publish_readings(
                    t(&format!("/r0/n{node}/power")),
                    &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
                )
                .unwrap();
            }
        };
        // Both sources publish through t=5.
        feed(0, 1..=5);
        feed(1, 1..=5);
        agent.tick(Timestamp::from_secs(5));
        let health = agent.delivery_health();
        assert_eq!(health.len(), 2);
        assert!(health.iter().all(|s| !s.stale), "{health:?}");

        // n1 goes silent; n0 keeps publishing. Threshold is 3×1000 ms,
        // so at t=9 (age 4 s) n1 is stale.
        feed(0, 6..=9);
        agent.tick(Timestamp::from_secs(9));
        let health = agent.delivery_health();
        let n0 = health.iter().find(|s| s.prefix == "/r0/n0").unwrap();
        let n1 = health.iter().find(|s| s.prefix == "/r0/n1").unwrap();
        assert!(!n0.stale);
        assert!(n1.stale, "{n1:?}");
        assert_eq!(n1.age_ms, 4000);

        // n1 recovers (e.g. its spool drains): the flag clears.
        feed(1, 6..=9);
        agent.tick(Timestamp::from_secs(9));
        let health = agent.delivery_health();
        assert!(health.iter().all(|s| !s.stale), "{health:?}");

        // The /metrics JSON carries the same picture.
        let v = agent.metrics_json();
        let d = v.get("delivery").unwrap();
        assert_eq!(d.get("stale_after_ms").unwrap().as_u64(), Some(3000));
        assert_eq!(d.get("stale_sources").unwrap().as_u64(), Some(0));
        let sources = d.get("sources").unwrap().as_array().unwrap();
        assert_eq!(sources.len(), 2);
        assert_eq!(
            sources[0].get("prefix").unwrap().as_str(),
            Some("/r0/n0"),
            "sorted by prefix"
        );
    }

    #[test]
    fn sim_job_source_exposes_running_jobs() {
        let mut sim = ClusterSimulator::new(ClusterConfig::small_manual(3));
        sim.submit_job(
            "alice",
            AppModel::Kripke,
            vec![0, 1],
            Timestamp::from_secs(10),
            Timestamp::from_secs(100),
        );
        let source = SimJobSource::new(Arc::new(Mutex::new(sim)));
        assert!(source.running_jobs(Timestamp::from_secs(5)).is_empty());
        let jobs = source.running_jobs(Timestamp::from_secs(50));
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].user, "alice");
        assert_eq!(
            jobs[0].node_paths,
            vec![t("/rack00/node00"), t("/rack00/node01")]
        );
    }

    #[test]
    fn health_endpoint_reflects_storage_state() {
        use dcdb_storage::{FaultConfig, FaultIo, HealthConfig, StdIo};

        // The in-memory engine: healthy, ok.
        let (_broker, agent) = setup();
        let mut router = Router::new();
        agent.mount_routes(&mut router);
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/health"));
        assert_eq!(resp.status.code(), 200);
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("state").unwrap().as_str(), Some("healthy"));

        // Durable engine driven ReadOnly by injected EIO: 503 with the
        // health report in the body, and the same report under
        // storage.health in /metrics.
        let mut dir = std::env::temp_dir();
        dir.push(format!("dcdb-agent-health-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let io = Arc::new(FaultIo::new(
            Arc::new(StdIo),
            FaultConfig::quiet(7),
            dcdb_common::Clock::new(),
        ));
        let storage = Arc::new(
            DurableBackend::open_with(
                Arc::clone(&io) as Arc<dyn dcdb_storage::StorageIo>,
                &dir,
                DurableConfig {
                    health: HealthConfig {
                        retry_backoff_base_ms: 0,
                        readonly_after: 2,
                        ..HealthConfig::default()
                    },
                    ..DurableConfig::default()
                },
            )
            .unwrap(),
        );
        let broker = Broker::new();
        let agent = Arc::new(
            CollectAgent::new(
                CollectAgentConfig::default(),
                &broker.handle(),
                Arc::clone(&storage) as Arc<dyn StorageEngine>,
            )
            .unwrap(),
        );
        let mut router = Router::new();
        agent.mount_routes(&mut router);

        io.set_config(FaultConfig {
            eio_prob: 1.0,
            fsync_fail_prob: 1.0,
            ..FaultConfig::quiet(7)
        });
        let _ = storage.insert(
            &t("/r0/n0/power"),
            SensorReading::new(1, Timestamp::from_secs(1)),
        );
        assert_eq!(
            storage.health().unwrap().state,
            dcdb_storage::HealthState::ReadOnly
        );
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/health"));
        assert_eq!(resp.status.code(), 503);
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("unavailable"));
        assert_eq!(v.get("state").unwrap().as_str(), Some("read_only"));
        let h = v.get("storage").unwrap();
        assert_eq!(h.get("conserved").unwrap().as_bool(), Some(true));
        assert!(h.get("write_errors").unwrap().as_u64().unwrap() > 0);

        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/metrics"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let h = v.get("storage").unwrap().get("health").unwrap();
        assert_eq!(h.get("state").unwrap().as_str(), Some("read_only"));
        assert!(h.get("recovery").unwrap().get("torn_tails").is_some());

        // Heal: clear the faults and let maintenance probe its way back.
        io.clear_faults();
        agent.tick(Timestamp::from_secs(10));
        let resp = router.dispatch(dcdb_rest::Request::new(Method::Get, "/health"));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_storage_survives_agent_restart() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("dcdb-agent-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let broker = Broker::new();
            let storage = Arc::new(DurableBackend::open(&dir, DurableConfig::default()).unwrap());
            let agent = CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage)
                .unwrap();
            let bus = broker.handle();
            for i in 1..=20u64 {
                bus.publish_readings(
                    t("/r0/n0/power"),
                    &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
                )
                .unwrap();
            }
            agent.tick(Timestamp::from_secs(21));
            assert_eq!(agent.stats().readings, 20);
            agent.storage().flush().unwrap();
        }
        // "Restart": a fresh agent over the same data directory serves
        // the old range from recovered segments/WAL on a cold cache.
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::open(&dir, DurableConfig::default()).unwrap());
        let agent =
            CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap();
        let got = agent.query_engine().query(
            &t("/r0/n0/power"),
            QueryMode::Absolute {
                t0: Timestamp::from_secs(1),
                t1: Timestamp::from_secs(20),
            },
        );
        assert_eq!(got.len(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_fallback_after_cache_eviction() {
        let broker = Broker::new();
        let storage = Arc::new(DurableBackend::in_memory());
        let agent = CollectAgent::new(
            CollectAgentConfig {
                cache_secs: 5,
                expected_interval_ms: 1000,
                ..CollectAgentConfig::default()
            },
            &broker.handle(),
            storage,
        )
        .unwrap();
        let bus = broker.handle();
        for i in 1..=50u64 {
            bus.publish_readings(
                t("/r0/n0/power"),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        agent.process_pending();
        // Old range: cache evicted it, storage still has it.
        let got = agent.query_engine().query(
            &t("/r0/n0/power"),
            QueryMode::Absolute {
                t0: Timestamp::from_secs(1),
                t1: Timestamp::from_secs(10),
            },
        );
        assert_eq!(got.len(), 10);
        assert!(agent.query_engine().stats().storage_fallbacks >= 1);
    }
}
