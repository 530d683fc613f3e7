//! The scatter-gather query router.
//!
//! The router is the federation's front door: it serves the same REST
//! surface a single Collect Agent does (`/sensors`, `/metrics`,
//! `/health`, the analytics routes) by fanning each request out across
//! the shards and merging the answers.
//!
//! **Partial results are a first-class outcome.** Every scatter runs
//! with a per-shard deadline; a shard that is killed, routed-down by
//! supervision, or misses the deadline is *accounted*, not waited for.
//! The response envelope always satisfies
//!
//! ```text
//! shards_total == shards_ok + shards_timed_out + shards_down
//! ```
//!
//! and `complete` is true only when every shard answered — the query
//! analogue of the delivery accounting the rest of the system already
//! keeps (`published == delivered + dropped`).
//!
//! **Failure detection** is the federation's, not the router's: each
//! scatter feeds every shard's one detector (the Pusher connection's
//! [`dcdb_common::Supervisor`], owned by the [`Shard`]). A dead primary
//! or a missed deadline is a failure, an answer in time a success.
//! Refused publishes and the federation's sweeps feed the same
//! detector, so three failures from any mix of inputs cross it into
//! `Down` and hand the shard to [`FederatedAgent::failover`], which
//! promotes a standby or, for a live but slow primary, refuses. A
//! `Down` shard is skipped (counted under `shards_down`) until its
//! doubling, capped backoff admits a probe; one answer in time restores
//! it. Promotion and rejoin reset the detector, so the next scatter asks
//! the new primary at once.
//!
//! **Sensor queries scatter to every live shard**, not just the ring
//! owner: after a kill/rejoin cycle a topic's history is legitimately
//! split across its original owner and the interim owner, and the
//! time-ordered merge (with timestamp dedup) stitches the two back into
//! exactly-once order. Placement governs ingest; queries trust no
//! placement history.

use crate::agent::{FederatedAgent, Shard};
use crate::ring::ShardMap;
use dcdb_collectagent::{
    agg_query_body, parse_agg_query, parse_sensors_query, sensors_body, AggQueryParams,
};
use dcdb_common::document;
use dcdb_common::reading::SensorReading;
use dcdb_common::supervisor::{ConnectionState, Supervisor};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_rest::{Method, Request, Response, Router, Status};
use parking_lot::Mutex;
use serde::Serialize;
use serde_json::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wintermute::prelude::{AggFunc, AggSeries, QueryMode};

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard scatter deadline, milliseconds. A shard that has not
    /// answered by then is reported `timed_out` and its (eventual)
    /// answer discarded.
    pub shard_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shard_timeout_ms: 250,
        }
    }
}

/// How one shard fared in one scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Answered within the deadline.
    Ok,
    /// Missed the per-shard deadline.
    TimedOut,
    /// Killed, or routed down by its detector and not yet due a probe.
    Down,
}

/// The partial-result accounting attached to every routed response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueryEnvelope {
    /// Shard-map epoch the query ran under.
    pub epoch: u64,
    /// Shards configured at scatter time.
    pub shards_total: usize,
    /// Shards that answered in time.
    pub shards_ok: usize,
    /// Shards that missed the deadline.
    pub shards_timed_out: usize,
    /// Shards killed or routed-down.
    pub shards_down: usize,
}

impl QueryEnvelope {
    /// True when every shard answered.
    pub fn complete(&self) -> bool {
        self.shards_ok == self.shards_total
    }

    /// The accounting identity every envelope must satisfy.
    pub fn accounted(&self) -> bool {
        self.shards_total == self.shards_ok + self.shards_timed_out + self.shards_down
    }

    /// The envelope as served under `"meta"` in routed responses.
    pub fn json(&self) -> serde_json::Value {
        document(self, json!({"complete": self.complete()}))
    }
}

/// A merged sensor query: envelope plus time-ordered readings.
#[derive(Debug, Clone)]
pub struct FederatedQuery {
    /// Partial-result accounting.
    pub envelope: QueryEnvelope,
    /// Exactly-once, timestamp-ordered readings from all answering
    /// shards.
    pub readings: Vec<SensorReading>,
}

impl FederatedQuery {
    /// The `GET /sensors` body: `{"meta": <envelope>, "readings": [..]}`.
    pub fn body(&self) -> String {
        sensors_body(Some(&self.envelope.json().to_string()), &self.readings)
    }
}

/// A merged aggregate query: envelope plus per-sensor bucket series
/// combined with the frame algebra (counts/sums add, min/max compare,
/// avg derived at the router).
#[derive(Debug, Clone)]
pub struct FederatedAggQuery {
    /// Partial-result accounting.
    pub envelope: QueryEnvelope,
    /// Grid bucket width, nanoseconds.
    pub step_ns: u64,
    /// One merged series per matched sensor, sorted by topic.
    pub series: Vec<(Topic, AggSeries)>,
}

impl FederatedAggQuery {
    /// The `GET /query` body for aggregate `func`:
    /// `{"agg": .., "meta": <envelope>, "series": [..], "step_ns": ..}`.
    pub fn body(&self, func: AggFunc) -> String {
        agg_query_body(
            Some(&self.envelope.json().to_string()),
            func,
            self.step_ns,
            &self.series,
        )
    }
}

/// Router counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RouterStats {
    /// Scatters issued.
    pub queries: u64,
    /// Scatters that returned partial results.
    pub partial: u64,
    /// Per-shard timeouts observed.
    pub shard_timeouts: u64,
    /// Per-shard down skips observed.
    pub shard_downs: u64,
    /// Times a shard's detector crossed into `Down`.
    pub marked_down: u64,
    /// Shards recovered by a successful probe.
    pub recovered: u64,
}

/// The scatter-gather front door over a [`FederatedAgent`].
pub struct QueryRouter {
    federation: Arc<FederatedAgent>,
    config: RouterConfig,
    /// One fully-mounted single-agent route table per shard, for the
    /// forwarded surfaces (analytics) that are owner-routed rather than
    /// scatter-merged. Cached against the shard's role epoch: a
    /// failover or rejoin-as-primary swaps the agent behind a shard,
    /// and the table is lazily rebuilt on first use after the swap.
    shard_routes: Vec<Mutex<(u64, Option<Arc<Router>>)>>,
    queries: AtomicU64,
    partial: AtomicU64,
    shard_timeouts: AtomicU64,
    shard_downs: AtomicU64,
}

impl QueryRouter {
    /// Builds a router over `federation`.
    pub fn new(federation: Arc<FederatedAgent>, config: RouterConfig) -> QueryRouter {
        let shard_routes = federation
            .shards()
            .iter()
            .map(|_| Mutex::new((u64::MAX, None)))
            .collect();
        QueryRouter {
            federation,
            config,
            shard_routes,
            queries: AtomicU64::new(0),
            partial: AtomicU64::new(0),
            shard_timeouts: AtomicU64::new(0),
            shard_downs: AtomicU64::new(0),
        }
    }

    /// The federation behind this router.
    pub fn federation(&self) -> &Arc<FederatedAgent> {
        &self.federation
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RouterStats {
        let shards = self.federation.shards().iter();
        let sum =
            |count: fn(&Supervisor) -> u64| shards.clone().map(|s| count(&s.supervision())).sum();
        RouterStats {
            queries: self.queries.load(Ordering::Relaxed),
            partial: self.partial.load(Ordering::Relaxed),
            shard_timeouts: self.shard_timeouts.load(Ordering::Relaxed),
            shard_downs: self.shard_downs.load(Ordering::Relaxed),
            marked_down: sum(Supervisor::downs),
            recovered: sum(Supervisor::reconnects),
        }
    }

    /// Router counters as served under `"router"` in `/metrics` and
    /// `/federation`.
    fn router_json(&self) -> serde_json::Value {
        let timeout = json!({"shard_timeout_ms": self.config.shard_timeout_ms});
        document(&self.stats(), timeout)
    }

    /// The shard's single-agent route table, rebuilt lazily whenever
    /// its role epoch moved (promotion, rejoin-as-primary). `None`
    /// while the shard has no live primary.
    fn shard_router(&self, i: usize) -> Option<Arc<Router>> {
        let shard = &self.federation.shards()[i];
        let agent = shard.agent()?;
        let epoch = shard.role_epoch();
        let mut cached = self.shard_routes[i].lock();
        if cached.0 != epoch || cached.1.is_none() {
            let mut r = Router::new();
            agent.mount_routes(&mut r);
            *cached = (epoch, Some(Arc::new(r)));
        }
        cached.1.clone()
    }

    /// The scatter-gather core shared by every fanned-out query: runs
    /// `job` against each live shard on its own thread, gathers within
    /// the per-shard deadline, feeds every shard's failure detector,
    /// and returns the partial-result envelope plus the in-time answers.
    /// A job returns `None` when its shard's primary vanished mid-flight
    /// — accounted down, never an empty answer.
    fn scatter_shards<T, F>(&self, job: F) -> (QueryEnvelope, Vec<T>)
    where
        T: Send + 'static,
        F: Fn(Arc<Shard>) -> Option<T> + Send + Clone + 'static,
    {
        let fed = &self.federation;
        let epoch = fed.shard_map().epoch;
        self.queries.fetch_add(1, Ordering::Relaxed);

        let shards = fed.shards();
        let now = Instant::now();
        let (tx, rx) = mpsc::channel::<(usize, Option<T>)>();
        let mut outcomes: Vec<Option<ShardOutcome>> = vec![None; shards.len()];
        let mut pending = 0usize;
        for (i, shard) in shards.iter().enumerate() {
            if !shard.is_up() {
                // A dead primary seen by a query is a failure: the
                // router's path to failover.
                outcomes[i] = Some(ShardOutcome::Down);
                fed.note_failure(i);
                continue;
            }
            if !fed.detect(i, Supervisor::attempt_due) {
                outcomes[i] = Some(ShardOutcome::Down);
                continue;
            }
            pending += 1;
            let tx = tx.clone();
            let shard = Arc::clone(shard);
            let job = job.clone();
            std::thread::spawn(move || {
                if let Some(delay) = shard.query_delay() {
                    std::thread::sleep(delay);
                }
                let answer = job(shard);
                // The receiver may have given up on us; a send error
                // just means the answer arrived past the deadline.
                let _ = tx.send((i, answer));
            });
        }
        drop(tx);

        let deadline = now + Duration::from_millis(self.config.shard_timeout_ms);
        let mut gathered: Vec<T> = Vec::with_capacity(pending);
        while pending > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok((i, Some(rows))) => {
                    outcomes[i] = Some(ShardOutcome::Ok);
                    gathered.push(rows);
                    pending -= 1;
                }
                Ok((i, None)) => {
                    // The shard died between the liveness check and the
                    // job: down, and a failure.
                    outcomes[i] = Some(ShardOutcome::Down);
                    fed.note_failure(i);
                    pending -= 1;
                }
                Err(_) => break, // deadline hit (or all senders gone)
            }
        }
        for o in outcomes.iter_mut() {
            if o.is_none() {
                *o = Some(ShardOutcome::TimedOut);
            }
        }

        let mut envelope = QueryEnvelope {
            epoch,
            shards_total: shards.len(),
            shards_ok: 0,
            shards_timed_out: 0,
            shards_down: 0,
        };
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome.expect("every shard has an outcome") {
                ShardOutcome::Ok => {
                    envelope.shards_ok += 1;
                    fed.detect(i, Supervisor::on_success);
                }
                ShardOutcome::TimedOut => {
                    envelope.shards_timed_out += 1;
                    self.shard_timeouts.fetch_add(1, Ordering::Relaxed);
                    // The failover this may trigger refuses a live
                    // primary, so a slow shard is only routed down.
                    fed.note_failure(i);
                }
                ShardOutcome::Down => {
                    envelope.shards_down += 1;
                    self.shard_downs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if !envelope.complete() {
            self.partial.fetch_add(1, Ordering::Relaxed);
        }
        debug_assert!(envelope.accounted());
        (envelope, gathered)
    }

    /// Scatter one sensor range query to every live shard, gather
    /// within the per-shard deadline, and merge time-ordered.
    pub fn query_sensors(&self, topic: &Topic, t0: Timestamp, t1: Timestamp) -> FederatedQuery {
        let topic = topic.clone();
        let (envelope, gathered) = self.scatter_shards(move |shard| {
            shard.agent().map(|a| {
                a.query_engine()
                    .query(&topic, QueryMode::Absolute { t0, t1 })
            })
        });
        FederatedQuery {
            envelope,
            readings: merge_time_ordered(gathered),
        }
    }

    /// Scatter one aggregate query to every live shard and merge the
    /// answers with the frame algebra: counts and sums add, min/max
    /// compare, and `avg` is derived at the router from the merged
    /// sums — never averaged across shard averages. Each shard plans
    /// its own tiers (tier frames where they exist, raw stitch at the
    /// recent boundary); the router only combines disjoint partials.
    ///
    /// Caveat: after a kill/rejoin cycle a topic's history can overlap
    /// across shards at the rebalance seam. `query_sensors` dedups
    /// overlapping readings by timestamp; merged aggregate frames have
    /// no per-reading identity, so seam overlap double-counts there
    /// until retention ages it out. The envelope's `epoch` lets callers
    /// detect they are querying across a rebalance.
    pub fn query_agg(&self, params: &AggQueryParams) -> FederatedAggQuery {
        let p = params.clone();
        let (envelope, gathered) = self.scatter_shards(move |shard| {
            let agent = shard.agent()?;
            let qe = agent.query_engine();
            Some(
                qe.select(&p.filter)
                    .into_iter()
                    .map(|topic| {
                        let series = qe.query_agg(&topic, p.from, p.to, p.step_ns);
                        (topic, series)
                    })
                    .collect::<Vec<(Topic, AggSeries)>>(),
            )
        });
        let mut merged: std::collections::BTreeMap<Topic, AggSeries> =
            std::collections::BTreeMap::new();
        for (topic, series) in gathered.into_iter().flatten() {
            let entry = merged.entry(topic).or_insert_with(|| AggSeries {
                step_ns: params.step_ns,
                ..AggSeries::default()
            });
            entry.plan.tier_ns = entry.plan.tier_ns.max(series.plan.tier_ns);
            entry.plan.buckets_from_tier += series.plan.buckets_from_tier;
            entry.plan.buckets_from_raw += series.plan.buckets_from_raw;
            for frame in series.frames {
                match entry
                    .frames
                    .binary_search_by_key(&frame.bucket_ns, |f| f.bucket_ns)
                {
                    Ok(i) => entry.frames[i].merge(&frame),
                    Err(i) => entry.frames.insert(i, frame),
                }
            }
        }
        FederatedAggQuery {
            envelope,
            step_ns: params.step_ns,
            series: merged.into_iter().collect(),
        }
    }

    /// Per-shard health rows for `/health` and `/federation`.
    fn shard_health_json(&self, map: &ShardMap) -> Vec<serde_json::Value> {
        self.federation
            .shards()
            .iter()
            .map(|s| {
                let sup = s.supervision();
                let routed_down = sup.state() == ConnectionState::Down;
                let agent = s.agent();
                let storage_state = match &agent {
                    Some(a) => a
                        .storage()
                        .health()
                        .map(|h| h.state.as_str())
                        .unwrap_or("healthy"),
                    None => "down",
                };
                let replication = s.replication_stats();
                json!({
                    "agent_id": s.id,
                    "up": s.is_up(),
                    "routed_down": routed_down,
                    "consecutive_timeouts": sup.consecutive_failures(),
                    "backoff_ms": routed_down.then_some(sup.backoff_ms()),
                    "in_ring": map.agents.iter().any(|m| *m == s.id),
                    "storage": storage_state,
                    "primary_node": s.primary_node_id(),
                    "standby_alive": s.standby_alive(),
                    "promotions": s.promotions(),
                    "replication_lag_entries": replication.map(|r| r.lag_entries),
                    "replication_lag_ms": replication.map(|r| r.lag_ms),
                    "shard": agent.and_then(|a| a.shard_assignment()),
                })
            })
            .collect()
    }

    fn reachable(shard: &Shard) -> bool {
        shard.is_up() && !shard.is_routed_down()
    }

    /// Forwards `req` to shard `i`'s own single-agent route table, so
    /// the federated analytics surface is the single-agent one per
    /// shard. `None` while the shard is unreachable.
    fn forward(&self, i: usize, req: &Request) -> Option<Response> {
        if !Self::reachable(&self.federation.shards()[i]) {
            return None;
        }
        Some(self.shard_router(i)?.dispatch(req.clone()))
    }

    /// [`QueryRouter::forward`] to every reachable shard: `(shard id,
    /// that shard's response)` in shard order.
    fn fan_out(&self, req: &Request) -> Vec<(String, Response)> {
        let shards = self.federation.shards().iter().enumerate();
        shards
            .filter_map(|(i, shard)| Some((shard.id.clone(), self.forward(i, req)?)))
            .collect()
    }

    /// Mounts the federated REST surface:
    ///
    /// * `GET /sensors/*topic?from_s=..&to_s=..` — scatter-gather range
    ///   query; body is `{"meta": <envelope>, "readings": [...]}`;
    /// * `GET /query?sensor=..&agg=..&step=..` — scatter-gather
    ///   aggregate query merged with the frame algebra; malformed
    ///   parameters are rejected 400 before any scatter;
    /// * `GET /metrics` — router counters, federation status, and every
    ///   shard's full single-agent metrics document;
    /// * `GET /health` — aggregate liveness: 200 while at least one
    ///   shard is reachable, 503 otherwise, with per-shard rows;
    /// * `GET /federation` — shard map, supervision, counters;
    /// * `GET /analytics/plugins` — union of every reachable shard's
    ///   plugin list, each entry tagged with its shard id;
    /// * `PUT /analytics/plugins/:name/:action`, `DELETE
    ///   /analytics/plugins/:name` — applied on every reachable shard
    ///   (each runs its own instance of the plugin); the reply carries
    ///   one row per shard;
    /// * `GET /analytics/plugins/:name/units` — union of the shards'
    ///   unit lists;
    /// * `GET /analytics/compute/:name?unit=<topic>` — forwarded to the
    ///   shard owning the unit's topic.
    pub fn mount_routes(self: &Arc<Self>, router: &mut Router) {
        let rt = Arc::clone(self);
        router.route(Method::Get, "/sensors/*topic", move |req| {
            let (topic, from, to) = match parse_sensors_query(req) {
                Ok(q) => q,
                Err(resp) => return resp,
            };
            Response::json(rt.query_sensors(&topic, from, to).body())
        });

        // GET /query — federated aggregate queries: validated at the
        // front door with the same parser the single-agent surface
        // uses (a malformed request is one 400 before any scatter),
        // then scatter-merged with the frame algebra. Body is
        // {"meta": <envelope>, "agg": .., "step_ns": .., "series": [..]}.
        let rt = Arc::clone(self);
        router.route(Method::Get, "/query", move |req| {
            let params = match parse_agg_query(req) {
                Ok(p) => p,
                Err(resp) => return resp, // 400 pass-through, pre-scatter
            };
            Response::json(rt.query_agg(&params).body(params.func))
        });

        let rt = Arc::clone(self);
        router.route(Method::Get, "/metrics", move |_req| {
            let shards: serde_json::Map<String, serde_json::Value> = rt
                .federation
                .shards()
                .iter()
                .map(|s| {
                    // A crashed shard reports null, never a stale
                    // document.
                    let doc = s
                        .agent()
                        .map(|a| a.metrics_json())
                        .unwrap_or(serde_json::Value::Null);
                    (s.id.clone(), doc)
                })
                .collect();
            let body = json!({
                "router": rt.router_json(),
                "federation": rt.federation.status_json(),
                "shards": serde_json::Value::Object(shards),
            });
            Response::json(body.to_string())
        });

        let rt = Arc::clone(self);
        router.route(Method::Get, "/health", move |_req| {
            let map = rt.federation.shard_map();
            let rows = rt.shard_health_json(&map);
            let reachable = rt
                .federation
                .shards()
                .iter()
                .filter(|s| Self::reachable(s))
                .count();
            let total = rt.federation.shards().len();
            let (status, word) = if reachable == 0 {
                (Status::ServiceUnavailable, "unavailable")
            } else if reachable < total {
                (Status::Ok, "degraded")
            } else {
                (Status::Ok, "ok")
            };
            let body = json!({
                "status": word,
                "epoch": map.epoch,
                "shards_total": total,
                "shards_reachable": reachable,
                "shards": rows,
            });
            Response::json(body.to_string()).with_status(status)
        });

        let rt = Arc::clone(self);
        router.route(Method::Get, "/federation", move |_req| {
            let map = rt.federation.shard_map();
            let body = json!({
                "federation": rt.federation.status_json(),
                "supervision": rt.shard_health_json(&map),
                "router": rt.router_json(),
            });
            Response::json(body.to_string())
        });

        let rt = Arc::clone(self);
        router.route(Method::Get, "/analytics/plugins", move |req| {
            let mut merged: Vec<serde_json::Value> = Vec::new();
            for (shard, resp) in rt.fan_out(req) {
                if let Ok(serde_json::Value::Array(list)) =
                    serde_json::from_str::<serde_json::Value>(&resp.body_str())
                {
                    for mut entry in list {
                        if let serde_json::Value::Object(obj) = &mut entry {
                            obj.insert("shard".into(), shard.clone().into());
                        }
                        merged.push(entry);
                    }
                }
            }
            Response::json(serde_json::Value::Array(merged).to_string())
        });

        for (method, pattern) in [
            (Method::Put, "/analytics/plugins/:name/:action"),
            (Method::Delete, "/analytics/plugins/:name"),
        ] {
            let rt = Arc::clone(self);
            router.route(method, pattern, move |req| {
                per_shard_reply(req.path_param("action"), rt.fan_out(req))
            });
        }

        let rt = Arc::clone(self);
        router.route(Method::Get, "/analytics/plugins/:name/units", move |req| {
            let replies = rt.fan_out(req);
            let lists = replies
                .iter()
                .filter_map(|(_, resp)| serde_json::from_str::<Vec<String>>(&resp.body_str()).ok());
            let lists: Vec<Vec<String>> = lists.collect();
            if lists.is_empty() {
                return refused(replies);
            }
            let mut units = lists.concat();
            units.sort();
            units.dedup();
            Response::json(serde_json::to_string(&units).unwrap_or_default())
        });

        let rt = Arc::clone(self);
        router.route(Method::Get, "/analytics/compute/:name", move |req| {
            let Some(unit) = req.query_param("unit") else {
                return Response::error(Status::BadRequest, "missing unit parameter");
            };
            let Ok(topic) = Topic::parse(unit) else {
                return Response::error(Status::BadRequest, "malformed unit topic");
            };
            let map = rt.federation.shard_map();
            let Some(owner) = map.assign_id(&topic) else {
                return Response::error(Status::ServiceUnavailable, "no shards in ring");
            };
            let Some(i) = rt.federation.shards().iter().position(|s| s.id == owner) else {
                return Response::error(Status::ServiceUnavailable, "owner shard unknown");
            };
            rt.forward(i, req).unwrap_or_else(|| {
                let down = format!("owner shard {owner} is down");
                Response::error(Status::ServiceUnavailable, down)
            })
        });
    }
}

/// The reply to a fanned-out plugin action: one row per reachable shard
/// (`shard`, `status`, `ok`, and the shard's `error` text if it
/// refused). 200 when at least one shard applied it; otherwise
/// [`refused`].
fn per_shard_reply(action: Option<&str>, replies: Vec<(String, Response)>) -> Response {
    let applied = |r: &Response| matches!(r.status, Status::Ok | Status::NoContent);
    if !replies.iter().any(|(_, r)| applied(r)) {
        return refused(replies);
    }
    let rows: Vec<serde_json::Value> = replies
        .iter()
        .map(|(shard, r)| {
            json!({
                "shard": shard,
                "status": r.status.code(),
                "ok": applied(r),
                "error": (!applied(r)).then(|| r.body_str().into_owned()),
            })
        })
        .collect();
    let ok = replies.iter().all(|(_, r)| applied(r));
    Response::json(json!({"action": action, "ok": ok, "shards": rows}).to_string())
}

/// No shard served a fanned-out request: the first shard's own refusal
/// (they run the same route table, so it speaks for all), or 503 when
/// no shard was reachable to ask.
fn refused(replies: Vec<(String, Response)>) -> Response {
    match replies.into_iter().next() {
        Some((_, first)) => first,
        None => Response::error(Status::ServiceUnavailable, "no reachable shard"),
    }
}

/// Merges per-shard result sets into one exactly-once, time-ordered
/// sequence. Readings for the same topic may live on two shards after a
/// kill/rejoin cycle (original owner + interim owner); equal timestamps
/// across shards are the same reading and are deduplicated.
pub fn merge_time_ordered(results: Vec<Vec<SensorReading>>) -> Vec<SensorReading> {
    let mut all: Vec<SensorReading> = results.into_iter().flatten().collect();
    all.sort_by_key(|r| r.ts);
    all.dedup_by_key(|r| r.ts);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::FederationConfig;
    use dcdb_bus::MessageBus;
    use dcdb_common::error::{DcdbError, Result as DcdbResult};
    use dcdb_common::time::Clock;
    use wintermute::prelude::{
        instantiate, ComputeContext, FaultPolicy, Operator, OperatorPlugin, Output, PluginConfig,
        SensorNavigator, Unit,
    };

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn federation(agents: usize) -> Arc<FederatedAgent> {
        federation_on(agents, Clock::new())
    }

    fn federation_on(agents: usize, clock: Arc<Clock>) -> Arc<FederatedAgent> {
        let config = FederationConfig {
            agents,
            ..FederationConfig::default()
        };
        Arc::new(FederatedAgent::new(config, clock).unwrap())
    }

    fn feed(fed: &FederatedAgent, node: usize, secs: std::ops::RangeInclusive<u64>) {
        for i in secs {
            fed.publish_readings(
                t(&format!("/rack00/node{node:02}/power")),
                &[dcdb_common::reading::SensorReading::new(
                    i as i64,
                    Timestamp::from_secs(i),
                )],
            )
            .unwrap();
        }
        fed.process_pending();
    }

    #[test]
    fn scatter_merges_time_ordered_and_complete() {
        let fed = federation(4);
        for node in 0..4 {
            feed(&fed, node, 1..=20);
        }
        let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
        let q = rt.query_sensors(
            &t("/rack00/node02/power"),
            Timestamp::from_secs(5),
            Timestamp::from_secs(15),
        );
        assert!(q.envelope.complete());
        assert!(q.envelope.accounted());
        assert_eq!(q.envelope.shards_ok, 4);
        let ts: Vec<u64> = q.readings.iter().map(|r| r.ts.as_nanos()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ts, sorted, "time-ordered, exactly-once");
        assert_eq!(q.readings.len(), 11);
    }

    #[test]
    fn killed_shard_is_accounted_down_and_results_are_partial() {
        let fed = federation(3);
        for node in 0..6 {
            feed(&fed, node, 1..=5);
        }
        let topic = t("/rack00/node00/power");
        let owner = fed.shard_map().assign_id(&topic).unwrap().to_string();
        fed.kill(&owner);
        let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
        let q = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert!(!q.envelope.complete());
        assert!(q.envelope.accounted());
        assert_eq!(q.envelope.shards_down, 1);
        assert_eq!(q.envelope.shards_ok, 2);
        // The owner held all this topic's data, so the partial answer
        // is empty — but honestly accounted.
        assert!(q.readings.is_empty());
        assert_eq!(rt.stats().partial, 1);
    }

    /// Two replica pairs with default settings, five seconds of data on
    /// four nodes.
    fn replicated_pair() -> Arc<FederatedAgent> {
        let config = FederationConfig {
            agents: 2,
            replication_factor: 2,
            ..FederationConfig::default()
        };
        let fed = Arc::new(FederatedAgent::new(config, Clock::new()).unwrap());
        for node in 0..4 {
            feed(&fed, node, 1..=5);
        }
        fed
    }

    #[test]
    fn the_scatter_that_promotes_a_standby_does_not_wait_on_itself() {
        let fed = replicated_pair();
        let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
        assert!(fed.kill("agent-01"));
        let topic = t("/rack00/node00/power");
        for _ in 0..5 {
            let started = Instant::now();
            let q = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(250),
                "{took:?}: {:?}",
                q.envelope
            );
            if fed.shards()[1].promotions() > 0 {
                break;
            }
        }
        assert_eq!(fed.stats().promotions, 1);
    }

    #[test]
    fn one_detector_fails_a_killed_shard_over_on_a_publish_a_tick_and_a_scatter() {
        let fed = replicated_pair();
        let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
        let map = fed.shard_map();
        let topic = (0..64)
            .map(|n| t(&format!("/rack00/node{n:02}/power")))
            .find(|topic| map.assign_id(topic) == Some("agent-01"))
            .expect("agent-01 owns a node");
        assert!(fed.kill("agent-01"));
        let shard = &fed.shards()[1];

        let r = SensorReading::new(1, Timestamp::from_secs(6));
        assert!(fed.publish_readings(topic.clone(), &[r]).is_err());
        fed.tick(Timestamp::from_secs(6));
        assert_eq!(shard.supervision().consecutive_failures(), 2);
        assert_eq!(shard.promotions(), 0, "two failures are not detection");

        let q = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.envelope.shards_down, 1, "this scatter saw it dead");
        assert_eq!(shard.promotions(), 1, "the third input promoted");
        assert_eq!(rt.stats().marked_down, 1);

        // Promotion reset the detector: the next scatter asks the new
        // primary at once, and nothing promotes twice.
        let q = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert!(q.envelope.complete(), "{:?}", q.envelope);
        assert!(!shard.is_routed_down());
        assert!(
            !fed.failover(1),
            "explicit failover of a live shard refuses"
        );
        assert_eq!(shard.promotions(), 1);
    }

    #[test]
    fn a_slow_shard_under_publishes_is_routed_down_and_recovers_on_the_first_probe() {
        let clock = Clock::new();
        let fed = federation_on(2, Arc::clone(&clock));
        for node in 0..4 {
            feed(&fed, node, 1..=3);
        }
        let rt = QueryRouter::new(
            Arc::clone(&fed),
            RouterConfig {
                shard_timeout_ms: 20,
            },
        );
        fed.shards()[1].set_query_delay_ms(200);
        let topic = t("/rack00/node00/power");

        // Three timeouts cross the detector into Down, though every
        // shard keeps taking publishes in between: a landed publish is
        // not a success.
        for round in 0..3u64 {
            for node in 0..4 {
                feed(&fed, node, 10 + round..=10 + round);
            }
            let q = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
            assert_eq!(q.envelope.shards_timed_out, 1, "round {round}");
            assert!(q.envelope.accounted());
        }
        assert!(fed.shards()[1].is_routed_down());
        assert_eq!(
            fed.shards()[1].promotions(),
            0,
            "a live primary is not failed over"
        );
        assert_eq!(rt.stats().marked_down, 1);

        // Before the 100 ms probe is due the shard is skipped (down, not
        // timed out): the scatter no longer pays the deadline for it.
        clock.advance_ns(99 * 1_000_000);
        let q = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(q.envelope.shards_down, 1);
        assert_eq!(q.envelope.shards_timed_out, 0);

        // The shard heals; the first probe once the backoff has run on
        // the federation's clock restores it.
        fed.shards()[1].set_query_delay_ms(0);
        clock.advance_ns(1_000_000);
        let q = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert!(q.envelope.complete(), "{:?}", q.envelope);
        assert!(!fed.shards()[1].is_routed_down());
        assert_eq!(rt.stats().recovered, 1);
    }

    #[test]
    fn rest_surface_serves_envelope_metrics_health_and_federation() {
        let fed = federation(2);
        feed(&fed, 0, 1..=4);
        let rt = Arc::new(QueryRouter::new(Arc::clone(&fed), RouterConfig::default()));
        let mut router = Router::new();
        rt.mount_routes(&mut router);

        let resp = router.dispatch(Request::new(
            Method::Get,
            "/sensors/rack00/node00/power?from_s=2&to_s=3",
        ));
        assert_eq!(resp.status.code(), 200);
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let meta = v.get("meta").unwrap();
        assert_eq!(meta.get("complete").unwrap().as_bool(), Some(true));
        assert_eq!(meta.get("shards_total").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("readings").unwrap().as_array().unwrap().len(), 2);

        // Malformed ranges are 400s, mirroring the single-agent API;
        // so are bounds past what u64 nanoseconds hold.
        for path in [
            "/sensors/rack00/node00/power?from_s=nope",
            "/sensors/rack00/node00/power?from_s=18446744074",
            "/sensors/rack00/node00/power?to_s=18446744074",
        ] {
            let resp = router.dispatch(Request::new(Method::Get, path));
            assert_eq!(resp.status.code(), 400, "{path} -> {}", resp.body_str());
        }

        let resp = router.dispatch(Request::new(Method::Get, "/metrics"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert!(v.get("router").unwrap().get("queries").is_some());
        assert!(v.get("shards").unwrap().get("agent-00").is_some());

        let resp = router.dispatch(Request::new(Method::Get, "/health"));
        assert_eq!(resp.status.code(), 200);
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 2);

        fed.kill("agent-01");
        let resp = router.dispatch(Request::new(Method::Get, "/health"));
        assert_eq!(resp.status.code(), 200);
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("degraded"));

        fed.kill("agent-00");
        let resp = router.dispatch(Request::new(Method::Get, "/health"));
        assert_eq!(resp.status.code(), 503);

        fed.rejoin("agent-00");
        let resp = router.dispatch(Request::new(Method::Get, "/federation"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(
            v.get("federation")
                .unwrap()
                .get("shards_up")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn analytics_routes_merge_and_forward() {
        let fed = federation(2);
        for node in 0..8 {
            feed(&fed, node, 1..=3);
        }
        // Load one plugin on each shard that owns sensors (with 8 nodes
        // over 2 shards both do; the assert documents it).
        for shard in fed.shards() {
            let agent = shard.agent().unwrap();
            assert!(
                agent.query_engine().sensor_count() > 0,
                "{} owns no sensors",
                shard.id
            );
            wintermute_plugins::register_all(agent.manager(), None);
            agent
                .manager()
                .load(
                    wintermute::prelude::PluginConfig::online("avg", "aggregator", 1000)
                        .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
                        .with_option("window_ms", 10_000u64),
                )
                .unwrap();
        }
        let rt = Arc::new(QueryRouter::new(Arc::clone(&fed), RouterConfig::default()));
        let mut router = Router::new();
        rt.mount_routes(&mut router);

        let resp = router.dispatch(Request::new(Method::Get, "/analytics/plugins"));
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let list = v.as_array().unwrap();
        assert_eq!(list.len(), 2, "one instance per shard");
        assert!(list
            .iter()
            .any(|e| e.get("shard").unwrap().as_str() == Some("agent-00")));
        assert!(list
            .iter()
            .any(|e| e.get("shard").unwrap().as_str() == Some("agent-01")));

        // compute is owner-routed: take a real unit from one shard's
        // manager and check the forward answers. Unit topics share the
        // shard key of the sensors they aggregate, so the ring owner is
        // the shard hosting the unit.
        let unit = fed.shards()[0]
            .agent()
            .unwrap()
            .manager()
            .units_of("avg")
            .unwrap()
            .first()
            .expect("shard 0 has units")
            .as_str()
            .to_string();
        let resp = router.dispatch(Request::new(
            Method::Get,
            &format!("/analytics/compute/avg?unit={unit}"),
        ));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());

        // Kill the owner: the forward is refused, not misrouted.
        let owner = fed.shard_map().assign_id(&t(&unit)).unwrap().to_string();
        fed.kill(&owner);
        let resp = router.dispatch(Request::new(
            Method::Get,
            &format!("/analytics/compute/avg?unit={unit}"),
        ));
        // After the rebalance the unit rehashes to a live shard, which
        // either serves it (if it hosts the unit), reports it unknown
        // (404), or the route refuses outright (503) — but the killed
        // shard never answers.
        assert!(
            matches!(resp.status.code(), 200 | 404 | 503),
            "{}",
            resp.body_str()
        );
    }

    /// Fails every computation, so one tick at threshold 1 quarantines it.
    struct FailingOperator(Vec<Unit>);

    impl Operator for FailingOperator {
        fn name(&self) -> &str {
            "failing"
        }
        fn units(&self) -> &[Unit] {
            &self.0
        }
        fn compute(&mut self, _i: usize, _ctx: &ComputeContext<'_>) -> DcdbResult<Vec<Output>> {
            Err(DcdbError::Config("injected".into()))
        }
    }

    struct FailingPlugin;

    impl OperatorPlugin for FailingPlugin {
        fn kind(&self) -> &str {
            "failing"
        }
        fn configure(
            &self,
            config: &PluginConfig,
            nav: &SensorNavigator,
        ) -> DcdbResult<Vec<Box<dyn Operator>>> {
            let units = config.resolve(nav)?.units;
            instantiate(config, units, |_, units| {
                Ok(Box::new(FailingOperator(units)) as Box<dyn Operator>)
            })
        }
    }

    #[test]
    fn plugin_actions_fan_out_and_resume_a_quarantined_operator_on_one_shard() {
        let fed = federation(3);
        for node in 0..12 {
            feed(&fed, node, 1..=3);
        }
        for shard in fed.shards() {
            let agent = shard.agent().unwrap();
            assert!(agent.query_engine().sensor_count() > 0, "{}", shard.id);
            agent.manager().set_fault_policy(FaultPolicy {
                quarantine_threshold: 1,
            });
            agent.manager().register_plugin(Box::new(FailingPlugin));
            agent
                .manager()
                .load(
                    PluginConfig::online("flaky", "failing", 1000)
                        .with_patterns(&["<bottomup>power"], &["<bottomup>power-out"]),
                )
                .unwrap();
        }
        let rt = Arc::new(QueryRouter::new(Arc::clone(&fed), RouterConfig::default()));
        let mut router = Router::new();
        rt.mount_routes(&mut router);
        let quarantined = || -> Vec<u64> {
            fed.shards()
                .iter()
                .map(|s| {
                    let totals = s.agent().unwrap().manager().metrics_totals();
                    totals.quarantined_operators
                })
                .collect()
        };

        // Only shard 1 ticks: its operator fails once and is quarantined.
        let victim = fed.shards()[1].agent().unwrap();
        let report = victim.tick(Timestamp::from_secs(4));
        assert_eq!(report.newly_quarantined.len(), 1, "{report:?}");
        assert_eq!(quarantined(), vec![0, 1, 0]);

        // The resume the daemon's log line advertises, through the router.
        let resp = router.dispatch(Request::new(Method::Put, "/analytics/plugins/flaky/start"));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("action").unwrap().as_str(), Some("start"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let rows = v.get("shards").unwrap().as_array().unwrap();
        let ids: Vec<&str> = rows
            .iter()
            .map(|r| r.get("shard").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids, vec!["agent-00", "agent-01", "agent-02"]);
        assert!(rows
            .iter()
            .all(|r| r.get("status").unwrap().as_u64() == Some(200)));
        assert_eq!(quarantined(), vec![0, 0, 0]);
        assert_eq!(
            victim.tick(Timestamp::from_secs(5)).errors.len(),
            1,
            "the resumed operator runs again"
        );

        // `units` is the union of the shards' lists.
        let resp = router.dispatch(Request::new(Method::Get, "/analytics/plugins/flaky/units"));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        let units: Vec<String> = serde_json::from_str(&resp.body_str()).unwrap();
        let expected: usize = fed
            .shards()
            .iter()
            .map(|s| {
                s.agent()
                    .unwrap()
                    .manager()
                    .units_of("flaky")
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(units.len(), expected);
        assert_eq!(expected, 12, "one unit per node");

        // An unknown plugin is the shards' own 404; an unknown action
        // their 400. A killed shard has no row.
        let resp = router.dispatch(Request::new(Method::Put, "/analytics/plugins/ghost/start"));
        assert_eq!(resp.status.code(), 404);
        let resp = router.dispatch(Request::new(
            Method::Put,
            "/analytics/plugins/flaky/explode",
        ));
        assert_eq!(resp.status.code(), 400);
        fed.kill("agent-02");
        let resp = router.dispatch(Request::new(Method::Delete, "/analytics/plugins/flaky"));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 2);
        let resp = router.dispatch(Request::new(Method::Get, "/analytics/plugins/flaky/units"));
        assert_eq!(resp.status.code(), 404);
        fed.kill("agent-00");
        fed.kill("agent-01");
        let resp = router.dispatch(Request::new(Method::Put, "/analytics/plugins/flaky/start"));
        assert_eq!(resp.status.code(), 503);
    }

    #[test]
    fn federated_aggregate_query_merges_with_frame_algebra() {
        // 4 nodes over 2 shards: the /query scatter must combine the
        // shard answers exactly — counts/sums add, min/max compare,
        // avg derived at the router from merged sums.
        let fed = federation(2);
        for node in 0..4 {
            feed(&fed, node, 1..=30);
        }
        let rt = Arc::new(QueryRouter::new(Arc::clone(&fed), RouterConfig::default()));
        let mut router = Router::new();
        rt.mount_routes(&mut router);

        let resp = router.dispatch(Request::new(
            Method::Get,
            "/query?sensor=/rack00/%2B/power&agg=avg&step=10s",
        ));
        assert_eq!(resp.status.code(), 200, "{}", resp.body_str());
        let v: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let meta = v.get("meta").unwrap();
        assert_eq!(meta.get("complete").unwrap().as_bool(), Some(true));
        assert_eq!(meta.get("shards_total").unwrap().as_u64(), Some(2));
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 4, "pattern matched all nodes: {series:?}");
        for s in series {
            let points = s.get("points").unwrap().as_array().unwrap();
            let counts: Vec<u64> = points
                .iter()
                .map(|p| p.get("count").unwrap().as_u64().unwrap())
                .collect();
            assert_eq!(counts, vec![9, 10, 10, 1], "{s}");
            // Readings are value i at second i, so the first full
            // bucket [10,20) averages (10+..+19)/10 = 14.5 for every
            // node regardless of which shard owns it.
            assert_eq!(points[1].get("value").unwrap().as_f64(), Some(14.5));
            assert_eq!(points[1].get("min").unwrap().as_i64(), Some(10));
            assert_eq!(points[1].get("max").unwrap().as_i64(), Some(19));
        }

        // Malformed parameters are a single 400 at the front door —
        // the scatter counter must not move.
        let scatters_before = rt.stats().queries;
        for path in [
            "/query",
            "/query?sensor=/rack00/%23/x",
            "/query?sensor=/rack00/node00/power&agg=median",
            "/query?sensor=/rack00/node00/power&step=0",
            "/query?sensor=/rack00/node00/power&from_s=9&to_s=1",
            "/query?sensor=/rack00/node00/power&to_s=18446744074",
            "/query?sensor=/rack00/+/power",
        ] {
            let resp = router.dispatch(Request::new(Method::Get, path));
            assert_eq!(resp.status.code(), 400, "{path} -> {}", resp.body_str());
        }
        assert_eq!(
            rt.stats().queries,
            scatters_before,
            "no scatter for rejected requests"
        );
    }

    #[test]
    fn federated_aggregate_query_reports_partial_on_shard_loss() {
        let fed = federation(3);
        for node in 0..6 {
            feed(&fed, node, 1..=10);
        }
        let topic = t("/rack00/node00/power");
        let owner = fed.shard_map().assign_id(&topic).unwrap().to_string();
        fed.kill(&owner);
        let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
        let params = dcdb_collectagent::AggQueryParams {
            filter: dcdb_bus::TopicFilter::parse(topic.as_str()).unwrap(),
            func: wintermute::prelude::AggFunc::Avg,
            step_ns: 10_000_000_000,
            from: Timestamp::ZERO,
            to: Timestamp::MAX,
        };
        let q = rt.query_agg(&params);
        assert!(!q.envelope.complete());
        assert!(q.envelope.accounted());
        assert_eq!(q.envelope.shards_down, 1);
        // The owner held this topic's data: partial means honest
        // emptiness, not an error.
        assert!(q.series.is_empty());
    }

    #[test]
    fn merge_dedups_across_shards_after_rebalance_split() {
        // Simulate a topic whose history is split across two shards
        // with one overlapping timestamp (re-delivered at the seam).
        let mk = |vals: &[(i64, u64)]| {
            vals.iter()
                .map(|&(v, s)| dcdb_common::reading::SensorReading::new(v, Timestamp::from_secs(s)))
                .collect::<Vec<_>>()
        };
        let merged = merge_time_ordered(vec![
            mk(&[(1, 1), (2, 2), (3, 3)]),
            mk(&[(3, 3), (4, 4)]),
            mk(&[]),
        ]);
        let ts: Vec<u64> = merged
            .iter()
            .map(|r| r.ts.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(ts, vec![1, 2, 3, 4]);
    }
}
