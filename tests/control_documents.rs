//! The shape of the control-plane documents.
//!
//! One Collect Agent's `/metrics` and `/health`, and the federation
//! router's `/metrics`, `/health`, `/federation` and
//! `/analytics/plugins`, rendered from a fixed virtual-time fixture. A
//! document's shape is its sorted list of key paths with their JSON
//! types, array indices folded to `[]` (and, in the router's
//! `/metrics`, shard ids folded to `*`). A renamed, dropped, added or
//! retyped key fails here with the path diff; a counter's value does
//! not.

use dcdb_wintermute::dcdb_bus::{Broker, MessageBus};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::{Clock, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_federation::{
    FederatedAgent, FederationConfig, QueryRouter, RouterConfig,
};
use dcdb_wintermute::dcdb_rest::{Method, Request, Router};
use dcdb_wintermute::dcdb_storage::{DurableBackend, DurableConfig};
use dcdb_wintermute::wintermute::prelude::*;
use serde_json::Value;
use std::collections::BTreeSet;
use std::sync::Arc;

fn topic(node: usize) -> Topic {
    Topic::parse(&format!("/rack00/node{node:02}/power")).unwrap()
}

/// Registers the in-tree plugins and loads one online aggregator over
/// the sensors ingested so far.
fn load_aggregator(manager: &OperatorManager) {
    dcdb_wintermute::wintermute_plugins::register_all(manager, None);
    manager
        .load(
            PluginConfig::online("avg", "aggregator", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
                .with_option("window_ms", 10_000u64),
        )
        .unwrap();
}

fn get(router: &Router, path: &str) -> Value {
    let resp = router.dispatch(Request::new(Method::Get, path));
    assert_eq!(resp.status.code(), 200, "{path}");
    serde_json::from_str(&resp.body_str()).unwrap()
}

/// A standalone agent on durable storage, five virtual seconds in:
/// its `(/metrics, /health)`.
fn agent_documents() -> (Value, Value) {
    let dir = std::env::temp_dir().join(format!("dcdb-control-docs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = Arc::new(DurableBackend::open(&dir, DurableConfig::default()).unwrap());
    let broker = Broker::new();
    let agent = Arc::new(
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap(),
    );
    for sec in 1..=5u64 {
        for node in 0..3 {
            let r = SensorReading::new((node * 10 + sec) as i64, Timestamp::from_secs(sec));
            broker
                .handle()
                .publish_readings(topic(node as usize), &[r])
                .unwrap();
        }
        agent.tick(Timestamp::from_secs(sec));
        if sec == 1 {
            load_aggregator(agent.manager());
        }
    }
    let mut router = Router::new();
    agent.mount_routes(&mut router);
    let docs = (get(&router, "/metrics"), get(&router, "/health"));
    drop(router);
    drop(agent);
    let _ = std::fs::remove_dir_all(&dir);
    docs
}

/// A two-shard federation of replica pairs, five virtual seconds in,
/// behind its router.
fn federation() -> (Arc<FederatedAgent>, Router) {
    let fed = Arc::new(
        FederatedAgent::new(
            FederationConfig {
                agents: 2,
                replication_factor: 2,
                ..FederationConfig::default()
            },
            Clock::new(),
        )
        .unwrap(),
    );
    for sec in 1..=5u64 {
        for node in 0..4 {
            let r = SensorReading::new((node * 10 + sec) as i64, Timestamp::from_secs(sec));
            fed.publish_readings(topic(node as usize), &[r]).unwrap();
        }
        fed.tick(Timestamp::from_secs(sec));
        if sec == 1 {
            for shard in fed.shards() {
                load_aggregator(shard.agent().unwrap().manager());
            }
        }
    }
    let rt = Arc::new(QueryRouter::new(Arc::clone(&fed), RouterConfig::default()));
    let mut router = Router::new();
    rt.mount_routes(&mut router);
    get(&router, "/sensors/rack00/node01/power");
    (fed, router)
}

fn shape(doc: &Value) -> BTreeSet<String> {
    fn walk(v: &Value, path: &str, out: &mut BTreeSet<String>) {
        let kind = match v {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(n) if n.as_u64().is_some() || n.as_i64().is_some() => "integer",
            Value::Number(_) => "float",
            Value::String(_) => "string",
            Value::Array(items) => {
                for item in items {
                    walk(item, &format!("{path}[]"), out);
                }
                "array"
            }
            Value::Object(map) => {
                for (key, item) in map {
                    let sep = if path.is_empty() { "" } else { "." };
                    walk(item, &format!("{path}{sep}{key}"), out);
                }
                "object"
            }
        };
        if !path.is_empty() {
            out.insert(format!("{path}: {kind}"));
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, "", &mut out);
    out
}

/// Fails with the path diff (`-` pinned but gone, `+` served but not
/// pinned) when `doc`'s shape is not `pinned`.
fn assert_shape(name: &str, doc: &Value, pinned: &str) {
    let want: BTreeSet<String> = pinned
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    let got = shape(doc);
    let diff: Vec<String> = want
        .difference(&got)
        .map(|p| format!("- {p}"))
        .chain(got.difference(&want).map(|p| format!("+ {p}")))
        .collect();
    assert!(
        diff.is_empty(),
        "{name} changed shape:\n{}",
        diff.join("\n")
    );
}

#[test]
fn control_documents_keep_their_shape() {
    let (metrics, health) = agent_documents();
    assert_shape("agent /metrics", &metrics, AGENT_METRICS);
    assert_shape("agent /health", &health, AGENT_HEALTH);

    let (_fed, router) = federation();
    let mut metrics = get(&router, "/metrics");
    // Shard ids are data, not schema.
    if let Some(Value::Object(shards)) = metrics.get("shards").cloned() {
        let folded = shards
            .into_values()
            .map(|doc| (String::from("*"), doc))
            .collect();
        if let Value::Object(doc) = &mut metrics {
            doc.insert("shards".into(), Value::Object(folded));
        }
    }
    assert_shape("router /metrics", &metrics, ROUTER_METRICS);
    assert_shape("router /health", &get(&router, "/health"), ROUTER_HEALTH);
    assert_shape(
        "router /federation",
        &get(&router, "/federation"),
        ROUTER_FEDERATION,
    );
    assert_shape(
        "router /analytics/plugins",
        &get(&router, "/analytics/plugins"),
        ROUTER_PLUGINS,
    );
}

/// The router's per-shard rows carry each agent's own assignment, as
/// that agent serves it.
#[test]
fn router_shard_rows_are_each_agents_own_assignment() {
    let (fed, router) = federation();
    let rows = get(&router, "/health").get("shards").unwrap().clone();
    let supervision = get(&router, "/federation")
        .get("supervision")
        .unwrap()
        .clone();
    let (rows, supervision) = (rows.as_array().unwrap(), supervision.as_array().unwrap());
    assert_eq!(rows.len(), 2);
    for (i, shard) in fed.shards().iter().enumerate() {
        let mut own = Router::new();
        shard.agent().unwrap().mount_routes(&mut own);
        let assignment = get(&own, "/health").get("shard").unwrap().clone();
        assert!(assignment.as_object().is_some(), "{assignment}");
        assert_eq!(rows[i].get("shard"), Some(&assignment), "/health row {i}");
        assert_eq!(
            supervision[i].get("shard"),
            Some(&assignment),
            "/federation row {i}"
        );
    }
}

// The pinned shapes, one `path: type` per line. A deliberate change to a
// served document updates them in the same change.

const AGENT_METRICS: &str = "
agent.budget_exhausted: integer
agent.decode_errors: integer
agent.id: string
agent.ingest_backlog: integer
agent.maintenance_errors: integer
agent.messages: integer
agent.readings: integer
agent.shard: null
agent: object
bus.delivered: integer
bus.dropped: integer
bus.published: integer
bus.subscriptions: array
bus.subscriptions[].filter: string
bus.subscriptions[].label: string
bus.subscriptions[].queue.capacity: integer
bus.subscriptions[].queue.depth: integer
bus.subscriptions[].queue.dequeued: integer
bus.subscriptions[].queue.dropped_newest: integer
bus.subscriptions[].queue.dropped_oldest: integer
bus.subscriptions[].queue.enqueued: integer
bus.subscriptions[].queue.high_water: integer
bus.subscriptions[].queue.offered: integer
bus.subscriptions[].queue.policy: string
bus.subscriptions[].queue: object
bus.subscriptions[]: object
bus: object
delivery.expected_interval_ms: integer
delivery.source_prefix_depth: integer
delivery.sources: array
delivery.sources[].age_ms: integer
delivery.sources[].last_seen_ns: integer
delivery.sources[].prefix: string
delivery.sources[].readings: integer
delivery.sources[].stale: bool
delivery.sources[]: object
delivery.stale_after_ms: integer
delivery.stale_sources: integer
delivery: object
operators.plugins: array
operators.plugins[].kind: string
operators.plugins[].name: string
operators.plugins[].operators: array
operators.plugins[].operators[].consecutive_failures: integer
operators.plugins[].operators[].errors: integer
operators.plugins[].operators[].ewma_latency_ns: integer
operators.plugins[].operators[].last_latency_ns: integer
operators.plugins[].operators[].max_latency_ns: integer
operators.plugins[].operators[].name: string
operators.plugins[].operators[].outputs: integer
operators.plugins[].operators[].overruns: integer
operators.plugins[].operators[].panics: integer
operators.plugins[].operators[].quarantined: bool
operators.plugins[].operators[].quarantined_skips: integer
operators.plugins[].operators[].runs: integer
operators.plugins[].operators[].successes: integer
operators.plugins[].operators[]: object
operators.plugins[].status: string
operators.plugins[]: object
operators.ticks: integer
operators.totals.errors: integer
operators.totals.outputs: integer
operators.totals.overruns: integer
operators.totals.panics: integer
operators.totals.quarantined_operators: integer
operators.totals.quarantined_skips: integer
operators.totals.runs: integer
operators.totals.successes: integer
operators.totals: object
operators: object
query.agg_queries: integer
query.agg_raw_buckets: integer
query.agg_tier_buckets: integer
query.cache_hits: integer
query.cache_memory_bytes: integer
query.cache_rejected: integer
query.inserts: integer
query.misses: integer
query.sensors: integer
query.storage_errors: integer
query.storage_fallbacks: integer
query: object
storage.health.buffered: integer
storage.health.cleanup_errors: integer
storage.health.conserved: bool
storage.health.drop_sync_errors: integer
storage.health.durable: integer
storage.health.fsync_poisonings: integer
storage.health.ingested: integer
storage.health.probes: integer
storage.health.quarantined: integer
storage.health.recovery.recovered_readings: integer
storage.health.recovery.torn_tails: integer
storage.health.recovery.wal_bytes_discarded: integer
storage.health.recovery: object
storage.health.seal_failures: integer
storage.health.shed: integer
storage.health.state: string
storage.health.time_in_state_ns.degraded: integer
storage.health.time_in_state_ns.healthy: integer
storage.health.time_in_state_ns.read_only: integer
storage.health.time_in_state_ns: object
storage.health.transitions: integer
storage.health.wal_rotations: integer
storage.health.write_errors: integer
storage.health.write_retries: integer
storage.health: object
storage.inserts: integer
storage.queries: integer
storage.readings: integer
storage.sensors: integer
storage: object
";
const AGENT_HEALTH: &str = "
agent_id: string
shard: null
state: string
status: string
storage.buffered: integer
storage.cleanup_errors: integer
storage.conserved: bool
storage.drop_sync_errors: integer
storage.durable: integer
storage.fsync_poisonings: integer
storage.ingested: integer
storage.probes: integer
storage.quarantined: integer
storage.recovery.recovered_readings: integer
storage.recovery.torn_tails: integer
storage.recovery.wal_bytes_discarded: integer
storage.recovery: object
storage.seal_failures: integer
storage.shed: integer
storage.state: string
storage.time_in_state_ns.degraded: integer
storage.time_in_state_ns.healthy: integer
storage.time_in_state_ns.read_only: integer
storage.time_in_state_ns: object
storage.transitions: integer
storage.wal_rotations: integer
storage.write_errors: integer
storage.write_retries: integer
storage: object
";
const ROUTER_METRICS: &str = "
federation.degraded_removals: integer
federation.epoch: integer
federation.promotions: integer
federation.publishes: integer
federation.publishes_refused: integer
federation.rebalances: integer
federation.replication_dropped: integer
federation.replication_factor: integer
federation.replication_lag_entries: integer
federation.ring: array
federation.ring[]: string
federation.shard_key_depth: integer
federation.shards: array
federation.shards[].id: string
federation.shards[].in_ring: bool
federation.shards[].ingest_backlog: integer
federation.shards[].messages: integer
federation.shards[].primary_node: string
federation.shards[].promotions: integer
federation.shards[].readings: integer
federation.shards[].replication_lag_entries: integer
federation.shards[].replication_lag_ms: integer
federation.shards[].role: string
federation.shards[].sensors: integer
federation.shards[].standby_alive: bool
federation.shards[].up: bool
federation.shards[]: object
federation.shards_total: integer
federation.shards_up: integer
federation.vnodes: integer
federation: object
router.marked_down: integer
router.partial: integer
router.queries: integer
router.recovered: integer
router.shard_downs: integer
router.shard_timeout_ms: integer
router.shard_timeouts: integer
router: object
shards.*.agent.budget_exhausted: integer
shards.*.agent.decode_errors: integer
shards.*.agent.id: string
shards.*.agent.ingest_backlog: integer
shards.*.agent.maintenance_errors: integer
shards.*.agent.messages: integer
shards.*.agent.readings: integer
shards.*.agent.shard.epoch: integer
shards.*.agent.shard.index: integer
shards.*.agent.shard.role: string
shards.*.agent.shard.total: integer
shards.*.agent.shard.vnodes: integer
shards.*.agent.shard: object
shards.*.agent: object
shards.*.bus.delivered: integer
shards.*.bus.dropped: integer
shards.*.bus.published: integer
shards.*.bus.subscriptions: array
shards.*.bus.subscriptions[].filter: string
shards.*.bus.subscriptions[].label: string
shards.*.bus.subscriptions[].queue.capacity: integer
shards.*.bus.subscriptions[].queue.depth: integer
shards.*.bus.subscriptions[].queue.dequeued: integer
shards.*.bus.subscriptions[].queue.dropped_newest: integer
shards.*.bus.subscriptions[].queue.dropped_oldest: integer
shards.*.bus.subscriptions[].queue.enqueued: integer
shards.*.bus.subscriptions[].queue.high_water: integer
shards.*.bus.subscriptions[].queue.offered: integer
shards.*.bus.subscriptions[].queue.policy: string
shards.*.bus.subscriptions[].queue: object
shards.*.bus.subscriptions[]: object
shards.*.bus: object
shards.*.delivery.expected_interval_ms: integer
shards.*.delivery.source_prefix_depth: integer
shards.*.delivery.sources: array
shards.*.delivery.sources[].age_ms: integer
shards.*.delivery.sources[].last_seen_ns: integer
shards.*.delivery.sources[].prefix: string
shards.*.delivery.sources[].readings: integer
shards.*.delivery.sources[].stale: bool
shards.*.delivery.sources[]: object
shards.*.delivery.stale_after_ms: integer
shards.*.delivery.stale_sources: integer
shards.*.delivery: object
shards.*.operators.plugins: array
shards.*.operators.plugins[].kind: string
shards.*.operators.plugins[].name: string
shards.*.operators.plugins[].operators: array
shards.*.operators.plugins[].operators[].consecutive_failures: integer
shards.*.operators.plugins[].operators[].errors: integer
shards.*.operators.plugins[].operators[].ewma_latency_ns: integer
shards.*.operators.plugins[].operators[].last_latency_ns: integer
shards.*.operators.plugins[].operators[].max_latency_ns: integer
shards.*.operators.plugins[].operators[].name: string
shards.*.operators.plugins[].operators[].outputs: integer
shards.*.operators.plugins[].operators[].overruns: integer
shards.*.operators.plugins[].operators[].panics: integer
shards.*.operators.plugins[].operators[].quarantined: bool
shards.*.operators.plugins[].operators[].quarantined_skips: integer
shards.*.operators.plugins[].operators[].runs: integer
shards.*.operators.plugins[].operators[].successes: integer
shards.*.operators.plugins[].operators[]: object
shards.*.operators.plugins[].status: string
shards.*.operators.plugins[]: object
shards.*.operators.ticks: integer
shards.*.operators.totals.errors: integer
shards.*.operators.totals.outputs: integer
shards.*.operators.totals.overruns: integer
shards.*.operators.totals.panics: integer
shards.*.operators.totals.quarantined_operators: integer
shards.*.operators.totals.quarantined_skips: integer
shards.*.operators.totals.runs: integer
shards.*.operators.totals.successes: integer
shards.*.operators.totals: object
shards.*.operators: object
shards.*.query.agg_queries: integer
shards.*.query.agg_raw_buckets: integer
shards.*.query.agg_tier_buckets: integer
shards.*.query.cache_hits: integer
shards.*.query.cache_memory_bytes: integer
shards.*.query.cache_rejected: integer
shards.*.query.inserts: integer
shards.*.query.misses: integer
shards.*.query.sensors: integer
shards.*.query.storage_errors: integer
shards.*.query.storage_fallbacks: integer
shards.*.query: object
shards.*.storage.health.buffered: integer
shards.*.storage.health.cleanup_errors: integer
shards.*.storage.health.conserved: bool
shards.*.storage.health.drop_sync_errors: integer
shards.*.storage.health.durable: integer
shards.*.storage.health.fsync_poisonings: integer
shards.*.storage.health.ingested: integer
shards.*.storage.health.probes: integer
shards.*.storage.health.quarantined: integer
shards.*.storage.health.recovery.recovered_readings: integer
shards.*.storage.health.recovery.torn_tails: integer
shards.*.storage.health.recovery.wal_bytes_discarded: integer
shards.*.storage.health.recovery: object
shards.*.storage.health.seal_failures: integer
shards.*.storage.health.shed: integer
shards.*.storage.health.state: string
shards.*.storage.health.time_in_state_ns.degraded: integer
shards.*.storage.health.time_in_state_ns.healthy: integer
shards.*.storage.health.time_in_state_ns.read_only: integer
shards.*.storage.health.time_in_state_ns: object
shards.*.storage.health.transitions: integer
shards.*.storage.health.wal_rotations: integer
shards.*.storage.health.write_errors: integer
shards.*.storage.health.write_retries: integer
shards.*.storage.health: object
shards.*.storage.inserts: integer
shards.*.storage.queries: integer
shards.*.storage.readings: integer
shards.*.storage.sensors: integer
shards.*.storage: object
shards.*: object
shards: object
";
const ROUTER_HEALTH: &str = "
epoch: integer
shards: array
shards[].agent_id: string
shards[].backoff_ms: null
shards[].consecutive_timeouts: integer
shards[].in_ring: bool
shards[].primary_node: string
shards[].promotions: integer
shards[].replication_lag_entries: integer
shards[].replication_lag_ms: integer
shards[].routed_down: bool
shards[].shard.epoch: integer
shards[].shard.index: integer
shards[].shard.role: string
shards[].shard.total: integer
shards[].shard.vnodes: integer
shards[].shard: object
shards[].standby_alive: bool
shards[].storage: string
shards[].up: bool
shards[]: object
shards_reachable: integer
shards_total: integer
status: string
";
const ROUTER_FEDERATION: &str = "
federation.degraded_removals: integer
federation.epoch: integer
federation.promotions: integer
federation.publishes: integer
federation.publishes_refused: integer
federation.rebalances: integer
federation.replication_dropped: integer
federation.replication_factor: integer
federation.replication_lag_entries: integer
federation.ring: array
federation.ring[]: string
federation.shard_key_depth: integer
federation.shards: array
federation.shards[].id: string
federation.shards[].in_ring: bool
federation.shards[].ingest_backlog: integer
federation.shards[].messages: integer
federation.shards[].primary_node: string
federation.shards[].promotions: integer
federation.shards[].readings: integer
federation.shards[].replication_lag_entries: integer
federation.shards[].replication_lag_ms: integer
federation.shards[].role: string
federation.shards[].sensors: integer
federation.shards[].standby_alive: bool
federation.shards[].up: bool
federation.shards[]: object
federation.shards_total: integer
federation.shards_up: integer
federation.vnodes: integer
federation: object
router.marked_down: integer
router.partial: integer
router.queries: integer
router.recovered: integer
router.shard_downs: integer
router.shard_timeout_ms: integer
router.shard_timeouts: integer
router: object
supervision: array
supervision[].agent_id: string
supervision[].backoff_ms: null
supervision[].consecutive_timeouts: integer
supervision[].in_ring: bool
supervision[].primary_node: string
supervision[].promotions: integer
supervision[].replication_lag_entries: integer
supervision[].replication_lag_ms: integer
supervision[].routed_down: bool
supervision[].shard.epoch: integer
supervision[].shard.index: integer
supervision[].shard.role: string
supervision[].shard.total: integer
supervision[].shard.vnodes: integer
supervision[].shard: object
supervision[].standby_alive: bool
supervision[].storage: string
supervision[].up: bool
supervision[]: object
";
const ROUTER_PLUGINS: &str = "
[].errors: integer
[].kind: string
[].name: string
[].operators: integer
[].overruns: integer
[].panics: integer
[].quarantined_operators: integer
[].shard: string
[].status: string
[].units: integer
[]: object
";
