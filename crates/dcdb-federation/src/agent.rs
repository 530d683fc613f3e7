//! The federated agent: N Collect Agents, each owning one shard of the
//! topic space.
//!
//! A [`FederatedAgent`] runs one broker + Collect Agent pair per shard
//! node and implements [`MessageBus`], so Pushers publish *through the
//! federation*: each reading is routed to the shard owning its topic
//! (per the current [`ShardMap`]) exactly as a production DCDB fans
//! pushers out across Collect Agents. A refused publish (owner down,
//! not yet failed over) surfaces as an error, which the Pusher's
//! supervised connection answers with store-and-forward spooling — the
//! PR-4 machinery applies unchanged.
//!
//! Membership changes go through an **epoch-based cutover**: a
//! join/leave builds the next [`ShardMap`] (epoch + 1), swaps it in,
//! then bounded-waits for queries pinned to the old epoch to drain
//! before declaring the rebalance complete. Queries pin an epoch with
//! [`FederatedAgent::begin_query`] so a rebalance can never pull the
//! map out from under a scatter in flight.
//!
//! With a replication factor of 2 each shard is a **primary/replica
//! pair**: the primary serves ingest and queries while its acked
//! journal stream (see [`dcdb_storage::TappedEngine`]) is pumped into a
//! journal-tailing standby ([`crate::replica::ReplicaLink`]).
//! [`FederatedAgent::kill`] is an honest crash — it *drops* the
//! victim's in-process broker, agent, and memtable; only on-disk state
//! survives. Nothing rebalances at the moment of the crash: failure is
//! *detected*, by consecutive refused publishes, supervision passes
//! ([`FederatedAgent::supervise`]), or the query router's timeout
//! supervision, and past the configured threshold the federation fails
//! over — the standby drains the in-flight stream, is promoted to
//! primary (role epoch + promotion counter bump, map epoch bump through
//! the normal cutover), and ingest for the shard's keys flows to it.
//! The crashed node can later [`FederatedAgent::rejoin`] as a fresh
//! standby that catches up from the new primary under per-sensor
//! watermarks. A shard with no standby degrades the PR-6 way: it is
//! removed from the ring and queries return partial results.

use crate::replica::{self, ReplicaLink, ReplicaLinkStats};
use crate::ring::{ShardMap, DEFAULT_VNODES};
use bytes::Bytes;
use dcdb_bus::{
    Broker, BusConfig, BusHandle, BusStatsSnapshot, FilterSegment, MessageBus, SubscribeOptions,
    Subscription, TopicFilter,
};
use dcdb_collectagent::{CollectAgent, CollectAgentConfig, ShardAssignment, ShardRole};
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_storage::{StorageBackend, StorageEngine, TappedEngine};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use wintermute::prelude::TickReport;

/// Federation sizing and behaviour.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of shards (Collect Agents) to run.
    pub agents: usize,
    /// Virtual nodes per agent on the hash ring.
    pub vnodes: usize,
    /// Template for each shard's Collect Agent (`agent_id` is replaced
    /// with the node's id).
    pub agent: CollectAgentConfig,
    /// Queue bound and overflow policy of every node's broker, first
    /// built or rebuilt by [`FederatedAgent::rejoin`].
    pub bus: BusConfig,
    /// How long a rebalance waits for queries pinned to the outgoing
    /// epoch before giving up on the drain (the cutover itself has
    /// already happened; a timeout only means an old-epoch reader was
    /// still running and is counted in the stats).
    pub drain_timeout_ms: u64,
    /// Nodes per shard: `1` runs the unreplicated tier (a shard loss
    /// degrades to partial results), `2` runs primary/replica pairs
    /// with failover. Clamped to `1..=2`.
    pub replication_factor: usize,
}

/// Leading topic segments forming the shard key: `/rack/node` — one
/// compute node's sensors stay together.
const SHARD_KEY_DEPTH: usize = 2;

/// Consecutive ingest/query/supervision failures of a shard's primary
/// before the federation fails over (promotes the standby, or removes
/// the shard from the ring when it has none).
const FAILOVER_THRESHOLD: u64 = 3;

/// Bound of a shard's journal tail queue, entries. Overflow is counted
/// and forces an anti-entropy resync — never silent loss.
const TAIL_CAPACITY: usize = 4096;

/// Max entries one replication pump applies to a standby.
const PUMP_BUDGET: usize = 512;

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            agents: 4,
            vnodes: DEFAULT_VNODES,
            agent: CollectAgentConfig::default(),
            bus: BusConfig::default(),
            drain_timeout_ms: 1_000,
            replication_factor: 1,
        }
    }
}

/// The live half of one shard node: everything [`FederatedAgent::kill`]
/// drops. Only the engine's on-disk state (if any) outlives it.
struct NodeRuntime {
    broker: Broker,
    agent: Arc<CollectAgent>,
    engine: Arc<TappedEngine>,
}

/// One node of a shard's replica pair (or the only node of an
/// unreplicated shard).
struct ShardNode {
    /// Node id: the shard id for slot 0 (`agent-00`), the shard id plus
    /// `-r` for the standby slot (`agent-00-r`). The id doubles as the
    /// storage-factory key, so each node owns its own journal
    /// directory.
    id: String,
    runtime: RwLock<Option<NodeRuntime>>,
}

impl ShardNode {
    fn alive(&self) -> bool {
        self.runtime.read().is_some()
    }
}

/// One shard: a primary (plus optional journal-tailing standby) and the
/// failure-detection state around it.
pub struct Shard {
    /// Stable shard id (`agent-00`, `agent-01`, …) — the ring member
    /// name, independent of which node is currently primary.
    pub id: String,
    index: usize,
    nodes: Vec<ShardNode>,
    /// Slot of the node currently serving as primary.
    primary: AtomicUsize,
    /// Bumped whenever the identity behind [`Shard::agent`] changes
    /// (promotion, rejoin-as-primary); the router invalidates its
    /// per-shard route tables against this.
    role_epoch: AtomicU64,
    /// The replication stream feeding the standby, when one is wired.
    link: Mutex<Option<ReplicaLink>>,
    /// Times a standby of this shard was promoted to primary.
    promotions: AtomicU64,
    /// Consecutive failures observed against the current primary
    /// (refused publishes, supervision passes); reset by any success.
    strikes: AtomicU64,
    /// Test hook: artificial per-query delay, nanoseconds. Lets tests
    /// and the chaos smoke drive a shard into scatter timeouts
    /// deterministically without touching the query path.
    query_delay_ns: AtomicU64,
}

impl Shard {
    /// The Collect Agent currently serving as primary; `None` while the
    /// primary is crashed and not yet failed over.
    pub fn agent(&self) -> Option<Arc<CollectAgent>> {
        self.nodes[self.primary.load(Ordering::Acquire)]
            .runtime
            .read()
            .as_ref()
            .map(|rt| Arc::clone(&rt.agent))
    }

    /// A publish/subscribe handle onto the primary's bus, when alive.
    pub fn bus(&self) -> Option<BusHandle> {
        self.nodes[self.primary.load(Ordering::Acquire)]
            .runtime
            .read()
            .as_ref()
            .map(|rt| rt.broker.handle())
    }

    /// Liveness: whether the node currently designated primary is
    /// actually running. False between a crash and the failover (or
    /// rejoin) that resolves it.
    pub fn is_up(&self) -> bool {
        self.nodes[self.primary.load(Ordering::Acquire)].alive()
    }

    /// Id of the node currently designated primary.
    pub fn primary_node_id(&self) -> &str {
        &self.nodes[self.primary.load(Ordering::Acquire)].id
    }

    /// Whether a standby node is alive (and would absorb a failover).
    pub fn standby_alive(&self) -> bool {
        self.standby_slot().is_some()
    }

    /// Bumped on every primary change; see [`Shard::agent`].
    pub fn role_epoch(&self) -> u64 {
        self.role_epoch.load(Ordering::Acquire)
    }

    /// Times this shard promoted its standby.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Replication stream counters, when a standby link is wired.
    pub fn replication_stats(&self) -> Option<ReplicaLinkStats> {
        self.link.lock().as_ref().map(|l| l.stats())
    }

    /// Sets the artificial query delay (test/chaos hook).
    pub fn set_query_delay_ms(&self, ms: u64) {
        self.query_delay_ns
            .store(ms.saturating_mul(1_000_000), Ordering::Release);
    }

    /// The artificial query delay, if any.
    pub fn query_delay(&self) -> Option<std::time::Duration> {
        match self.query_delay_ns.load(Ordering::Acquire) {
            0 => None,
            ns => Some(std::time::Duration::from_nanos(ns)),
        }
    }

    /// The slot of a live node other than the current primary.
    fn standby_slot(&self) -> Option<usize> {
        let primary = self.primary.load(Ordering::Acquire);
        (0..self.nodes.len()).find(|&slot| slot != primary && self.nodes[slot].alive())
    }

    fn engine_of(&self, slot: usize) -> Option<Arc<TappedEngine>> {
        self.nodes[slot]
            .runtime
            .read()
            .as_ref()
            .map(|rt| Arc::clone(&rt.engine))
    }

    fn note_ok(&self) {
        self.strikes.store(0, Ordering::Release);
    }
}

/// One epoch of the shard map plus the number of queries pinned to it.
struct EpochState {
    map: Arc<ShardMap>,
    inflight: AtomicU64,
}

/// Pins the shard map of the epoch a query started under; the rebalance
/// drain waits for these to drop.
pub struct QueryGuard {
    epoch: Arc<EpochState>,
}

impl QueryGuard {
    /// The shard map this query runs against.
    pub fn map(&self) -> &Arc<ShardMap> {
        &self.epoch.map
    }
}

impl Drop for QueryGuard {
    fn drop(&mut self) {
        self.epoch.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Federation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FederationStats {
    /// Current shard-map epoch.
    pub epoch: u64,
    /// Shards configured.
    pub shards_total: usize,
    /// Shards with a live primary.
    pub shards_up: usize,
    /// Rebalances performed (failovers + rejoins).
    pub rebalances: u64,
    /// Rebalances whose old-epoch drain hit the timeout with queries
    /// still pinned.
    pub drains_timed_out: u64,
    /// Readings routed to a shard via [`MessageBus::publish`].
    pub publishes: u64,
    /// Publishes refused (owner crashed or no shard in the ring) — the
    /// caller's spool takes over.
    pub publishes_refused: u64,
    /// Standby promotions performed across all shards.
    pub promotions: u64,
    /// Failovers that found no standby and degraded the shard out of
    /// the ring instead (the PR-6 partial-results tier).
    pub degraded_removals: u64,
    /// Journal-tail entries currently queued across all shards
    /// (federation-wide replication lag).
    pub replication_lag_entries: usize,
}

type StorageFactory = dyn Fn(usize, &str) -> Result<Arc<dyn StorageEngine>> + Send + Sync;

/// N Collect Agents behind one [`MessageBus`], sharded by topic,
/// optionally running each shard as a primary/replica pair.
pub struct FederatedAgent {
    shards: Vec<Arc<Shard>>,
    current: RwLock<Arc<EpochState>>,
    drain_timeout_ms: u64,
    replication_factor: usize,
    agent_template: CollectAgentConfig,
    bus: BusConfig,
    /// Rebuilds a node's engine on rejoin — durable engines reopen
    /// their journal directory and recover; volatile engines come back
    /// empty and refill through catch-up.
    storage_factory: Box<StorageFactory>,
    /// Serializes membership transitions (kill, rejoin, failover) so a
    /// publish-driven failover and a supervision-driven one can never
    /// promote twice.
    membership: Mutex<()>,
    /// Subscriptions with no live home shard attach here and stay
    /// silent instead of panicking.
    fallback_broker: Broker,
    rebalances: AtomicU64,
    drains_timed_out: AtomicU64,
    publishes: AtomicU64,
    publishes_refused: AtomicU64,
    degraded_removals: AtomicU64,
}

impl FederatedAgent {
    /// Builds a federation of `config.agents` shards over in-memory
    /// storage.
    pub fn new(config: FederationConfig) -> Result<FederatedAgent> {
        FederatedAgent::new_with(config, |_, _| {
            Ok(Arc::new(StorageBackend::new()) as Arc<dyn StorageEngine>)
        })
    }

    /// Builds a federation with one storage engine per shard node from
    /// `storage` — `(node ordinal, node id)` in, engine out. With a
    /// replication factor of `f`, shard `i`'s primary node has ordinal
    /// `i * f` and id `agent-0i`; its standby has ordinal `i * f + 1`
    /// and id `agent-0i-r`. This is how the bench and the durable sim
    /// give each node its own journal directory (and, for chaos runs,
    /// its own fault-injecting device).
    pub fn new_with(
        config: FederationConfig,
        storage: impl Fn(usize, &str) -> Result<Arc<dyn StorageEngine>> + Send + Sync + 'static,
    ) -> Result<FederatedAgent> {
        let n = config.agents.max(1);
        let factor = config.replication_factor.clamp(1, 2);
        let storage_factory: Box<StorageFactory> = Box::new(storage);
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let id = format!("agent-{i:02}");
            let mut nodes = Vec::with_capacity(factor);
            for slot in 0..factor {
                let node_id = if slot == 0 {
                    id.clone()
                } else {
                    format!("{id}-r")
                };
                let runtime = build_node(
                    &config.agent,
                    config.bus,
                    storage_factory.as_ref(),
                    i * factor + slot,
                    &node_id,
                )?;
                nodes.push(ShardNode {
                    id: node_id,
                    runtime: RwLock::new(Some(runtime)),
                });
            }
            let link = if factor > 1 {
                // The standby tails the primary from the first acked
                // write; both start empty, so no catch-up is needed.
                let primary_engine = nodes[0]
                    .runtime
                    .read()
                    .as_ref()
                    .map(|rt| Arc::clone(&rt.engine))
                    .expect("just built");
                Some(ReplicaLink::attach(&primary_engine, TAIL_CAPACITY))
            } else {
                None
            };
            shards.push(Arc::new(Shard {
                id,
                index: i,
                nodes,
                primary: AtomicUsize::new(0),
                role_epoch: AtomicU64::new(0),
                link: Mutex::new(link),
                promotions: AtomicU64::new(0),
                strikes: AtomicU64::new(0),
                query_delay_ns: AtomicU64::new(0),
            }));
        }
        let ids: Vec<String> = shards.iter().map(|s| s.id.clone()).collect();
        let map = Arc::new(ShardMap::build(&ids, config.vnodes, SHARD_KEY_DEPTH));
        let fed = FederatedAgent {
            shards,
            current: RwLock::new(Arc::new(EpochState {
                map: Arc::clone(&map),
                inflight: AtomicU64::new(0),
            })),
            drain_timeout_ms: config.drain_timeout_ms,
            replication_factor: factor,
            agent_template: config.agent,
            bus: config.bus,
            storage_factory,
            membership: Mutex::new(()),
            fallback_broker: Broker::new(),
            rebalances: AtomicU64::new(0),
            drains_timed_out: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            publishes_refused: AtomicU64::new(0),
            degraded_removals: AtomicU64::new(0),
        };
        fed.apply_assignments(&map);
        Ok(fed)
    }

    /// All shards, up or down, in creation order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The shard with `id`, if configured.
    pub fn shard(&self, id: &str) -> Option<&Arc<Shard>> {
        self.shards.iter().find(|s| s.id == id)
    }

    /// The current shard map.
    pub fn shard_map(&self) -> Arc<ShardMap> {
        Arc::clone(&self.current.read().map)
    }

    /// Pins the current epoch for the duration of one query. The
    /// returned guard carries the map the query must use; a rebalance
    /// started after this call waits (bounded) for the guard to drop.
    pub fn begin_query(&self) -> QueryGuard {
        // Increment under the read lock: a rebalance swaps the epoch
        // under the write lock, so the drain can never miss a query
        // that pinned the old epoch.
        let current = self.current.read();
        current.inflight.fetch_add(1, Ordering::AcqRel);
        let epoch = Arc::clone(&current);
        drop(current);
        QueryGuard { epoch }
    }

    /// Crashes shard `id`'s current primary: its broker, agent, and
    /// memtable are dropped on the spot — only on-disk state survives.
    /// Nothing rebalances here; the ring still routes to the shard
    /// until failure *detection* (refused publishes, supervision, or
    /// router timeouts) crosses the threshold and triggers
    /// [`FederatedAgent::failover`]. Returns false if the shard is
    /// unknown or its primary is already down.
    pub fn kill(&self, id: &str) -> bool {
        let _membership = self.membership.lock();
        let Some(shard) = self.shard(id) else {
            return false;
        };
        let slot = shard.primary.load(Ordering::Acquire);
        let crashed = shard.nodes[slot].runtime.write().take();
        if crashed.is_none() {
            return false;
        }
        shard.strikes.store(0, Ordering::Release);
        // `crashed` drops here: broker gone, agent gone, memtable gone.
        true
    }

    /// Fails over shard `index` after detection: if a standby is alive,
    /// the in-flight replication stream is drained into it (bounded by
    /// the tail capacity — the stream cannot grow while its primary is
    /// dead), the standby is promoted (role epoch + promotion counters
    /// bump) and the map epoch advances through the normal cutover. A
    /// shard with no standby is removed from the ring instead — the
    /// PR-6 degraded tier, where its keys rehash to the surviving
    /// shards and queries report partial results. A shard whose primary
    /// is alive, or that already left the ring, is left untouched (so a
    /// probe that triggers on a recovered shard can never
    /// double-promote). Returns true when a standby was promoted.
    pub fn failover(&self, index: usize) -> bool {
        let _membership = self.membership.lock();
        let Some(shard) = self.shards.get(index) else {
            return false;
        };
        if shard.is_up() {
            return false;
        }
        if !self.shard_map().agents.iter().any(|a| *a == shard.id) {
            return false;
        }
        match shard.standby_slot() {
            Some(slot) => {
                self.promote_locked(shard, slot);
                true
            }
            None => {
                self.degraded_removals.fetch_add(1, Ordering::Relaxed);
                shard.strikes.store(0, Ordering::Release);
                self.rebalance();
                false
            }
        }
    }

    /// Promotes the live node in `slot` to primary. Caller holds the
    /// membership lock.
    fn promote_locked(&self, shard: &Arc<Shard>, slot: usize) {
        if let Some(link) = shard.link.lock().take() {
            if let Some(engine) = shard.engine_of(slot) {
                // The drain applies the `replicating` term of the
                // conservation identity before the standby serves its
                // first query.
                let _ = link.drain(engine.as_ref());
            }
        }
        shard.primary.store(slot, Ordering::Release);
        shard.role_epoch.fetch_add(1, Ordering::AcqRel);
        shard.promotions.fetch_add(1, Ordering::Relaxed);
        shard.strikes.store(0, Ordering::Release);
        self.rebalance();
    }

    /// One failure-detection pass: every shard whose designated primary
    /// is dead but still in the ring accrues one strike; a shard at the
    /// failover threshold is failed over. Called from
    /// [`FederatedAgent::tick`]; tests and harnesses can call it
    /// directly to advance detection deterministically. Returns the
    /// number of shards acted on (promoted or degraded).
    pub fn supervise(&self) -> usize {
        let map = self.shard_map();
        let mut acted = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.is_up() {
                continue;
            }
            if !map.agents.iter().any(|a| *a == shard.id) {
                continue; // already degraded out; waiting for rejoin
            }
            let strikes = shard.strikes.fetch_add(1, Ordering::AcqRel) + 1;
            if strikes >= FAILOVER_THRESHOLD {
                let promoted = self.failover(i);
                if promoted || !self.shard_map().agents.iter().any(|a| *a == shard.id) {
                    acted += 1;
                }
            }
        }
        acted
    }

    /// Restarts the dead node of shard `id` from its storage factory.
    /// If the shard has a live primary (it failed over), the restarted
    /// node becomes the journal-tailing standby: the stream is attached
    /// *first*, then an anti-entropy catch-up copies everything past
    /// the node's per-sensor watermarks (the overlap dedups, so the
    /// node can never double-apply an acked reading). If the whole
    /// shard was down, the node resumes as primary and the shard
    /// re-enters the ring. Returns false if the shard is unknown or
    /// fully up.
    pub fn rejoin(&self, id: &str) -> bool {
        let _membership = self.membership.lock();
        let Some(shard) = self.shard(id) else {
            return false;
        };
        let Some(slot) = (0..shard.nodes.len()).find(|&s| !shard.nodes[s].alive()) else {
            return false;
        };
        let factor = self.replication_factor;
        let Ok(runtime) = build_node(
            &self.agent_template,
            self.bus,
            self.storage_factory.as_ref(),
            shard.index * factor + slot,
            &shard.nodes[slot].id,
        ) else {
            return false;
        };
        // A restarted node never outranks a live standby: if the shard
        // is down but its standby still holds the acked data (detection
        // has not fired yet), promote the standby first and let the
        // restarted node come back as the new standby — reviving an
        // empty node as primary would strand the acked readings.
        if !shard.is_up() {
            if let Some(live) = shard.standby_slot() {
                self.promote_locked(shard, live);
            }
        }
        if shard.is_up() {
            // Standby path: tail first, catch up second (idempotent
            // overlap); the pump resyncs again if catch-up failed.
            let primary_slot = shard.primary.load(Ordering::Acquire);
            let primary_engine = shard.engine_of(primary_slot).expect("primary is up");
            let link = ReplicaLink::attach(&primary_engine, TAIL_CAPACITY);
            link.mark_dirty();
            if replica::catch_up(primary_engine.as_ref(), runtime.engine.as_ref()).is_ok() {
                link.note_resynced();
            }
            *shard.nodes[slot].runtime.write() = Some(runtime);
            *shard.link.lock() = Some(link);
            self.apply_assignments(&self.shard_map());
        } else {
            *shard.nodes[slot].runtime.write() = Some(runtime);
            shard.primary.store(slot, Ordering::Release);
            shard.role_epoch.fetch_add(1, Ordering::AcqRel);
            shard.strikes.store(0, Ordering::Release);
            self.rebalance();
        }
        true
    }

    /// Ids of the shards with a live primary.
    pub fn up_ids(&self) -> Vec<String> {
        self.shards
            .iter()
            .filter(|s| s.is_up())
            .map(|s| s.id.clone())
            .collect()
    }

    /// Rebuilds the map over the live shard set, swaps it in, and
    /// drains the outgoing epoch: new queries immediately see the new
    /// map; queries pinned to the old one get up to `drain_timeout_ms`
    /// to finish. Returns the new epoch.
    fn rebalance(&self) -> u64 {
        let live = self.up_ids();
        let old = {
            let mut current = self.current.write();
            let next = Arc::new(EpochState {
                map: Arc::new(current.map.rebalanced(&live)),
                inflight: AtomicU64::new(0),
            });
            let old = Arc::clone(&current);
            *current = next;
            old
        };
        let map = self.shard_map();
        self.apply_assignments(&map);
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        // Bounded drain: wait for old-epoch queries to finish so callers
        // can treat "rebalance returned" as "no query still reads the
        // retired map" (barring the counted timeout case).
        let deadline =
            std::time::Instant::now() + std::time::Duration::from_millis(self.drain_timeout_ms);
        while old.inflight.load(Ordering::Acquire) > 0 {
            if std::time::Instant::now() >= deadline {
                self.drains_timed_out.fetch_add(1, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        map.epoch
    }

    /// Pushes each node's position in `map` (and its role within the
    /// pair) down into its agent so `/health` and `/metrics` report the
    /// assignment.
    fn apply_assignments(&self, map: &ShardMap) {
        for shard in &self.shards {
            let position = map.agents.iter().position(|a| *a == shard.id);
            let primary_slot = shard.primary.load(Ordering::Acquire);
            for (slot, node) in shard.nodes.iter().enumerate() {
                let rt = node.runtime.read();
                let Some(rt) = rt.as_ref() else { continue };
                let assignment = position.map(|index| ShardAssignment {
                    index,
                    total: map.len(),
                    epoch: map.epoch,
                    vnodes: map.vnodes,
                    role: if slot == primary_slot {
                        ShardRole::Primary
                    } else {
                        ShardRole::Replica
                    },
                });
                rt.agent.set_shard_assignment(assignment);
            }
        }
    }

    /// One replication pass: for every shard with a wired standby, the
    /// pump applies queued journal-tail entries (bounded by the
    /// configured budget) and, if the stream gapped (tail overflow or a
    /// failed join-time catch-up), re-runs the watermark-bounded
    /// anti-entropy scan first. Returns entries applied.
    pub fn pump_replication(&self) -> usize {
        let mut applied = 0;
        for shard in &self.shards {
            let link_guard = shard.link.lock();
            let Some(link) = link_guard.as_ref() else {
                continue;
            };
            let Some(slot) = shard.standby_slot() else {
                continue;
            };
            let Some(standby) = shard.engine_of(slot) else {
                continue;
            };
            if link.needs_resync() {
                let primary_slot = shard.primary.load(Ordering::Acquire);
                if let Some(primary) = shard.engine_of(primary_slot) {
                    if replica::catch_up(primary.as_ref(), standby.as_ref()).is_ok() {
                        link.note_resynced();
                    }
                }
            }
            applied += link.pump(standby.as_ref(), PUMP_BUDGET).unwrap_or(0);
        }
        applied
    }

    /// Drains pending bus messages on every live shard, then pumps
    /// replication. Returns total readings ingested by primaries.
    pub fn process_pending(&self) -> usize {
        let ingested = self
            .shards
            .iter()
            .filter_map(|s| s.agent())
            .map(|a| a.process_pending())
            .sum();
        self.pump_replication();
        ingested
    }

    /// Ticks every live node (ingest + operators + storage maintenance
    /// — standbys tick too, so replica engines seal and roll up), pumps
    /// replication, and runs one failure-detection pass. Returns
    /// `(shard index, report)` per live primary.
    pub fn tick(&self, now: Timestamp) -> Vec<(usize, TickReport)> {
        let mut reports = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(agent) = shard.agent() {
                reports.push((i, agent.tick(now)));
            }
            if let Some(slot) = shard.standby_slot() {
                if let Some(rt) = shard.nodes[slot].runtime.read().as_ref() {
                    let _ = rt.agent.tick(now);
                }
            }
        }
        self.pump_replication();
        self.supervise();
        reports
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FederationStats {
        let map = self.shard_map();
        FederationStats {
            epoch: map.epoch,
            shards_total: self.shards.len(),
            shards_up: self.shards.iter().filter(|s| s.is_up()).count(),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            drains_timed_out: self.drains_timed_out.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            publishes_refused: self.publishes_refused.load(Ordering::Relaxed),
            promotions: self.shards.iter().map(|s| s.promotions()).sum(),
            degraded_removals: self.degraded_removals.load(Ordering::Relaxed),
            replication_lag_entries: self
                .shards
                .iter()
                .filter_map(|s| s.replication_stats())
                .map(|r| r.lag_entries)
                .sum(),
        }
    }

    /// Federation status as JSON: the shard map, per-shard liveness,
    /// role, replication lag and ingest counters, and the
    /// rebalance/drain counters. Served by the router's
    /// `GET /federation` and the sim's status line.
    pub fn status_json(&self) -> serde_json::Value {
        let map = self.shard_map();
        let shards: Vec<serde_json::Value> = self
            .shards
            .iter()
            .map(|s| {
                let agent = s.agent();
                let (readings, messages, backlog, sensors) = agent
                    .map(|a| {
                        let st = a.stats();
                        (
                            st.readings,
                            st.messages,
                            a.ingest_backlog(),
                            a.query_engine().sensor_count(),
                        )
                    })
                    .unwrap_or((0, 0, 0, 0));
                let replication = s.replication_stats();
                serde_json::json!({
                    "id": s.id,
                    "up": s.is_up(),
                    "in_ring": map.agents.iter().any(|m| *m == s.id),
                    "role": "primary",
                    "primary_node": s.primary_node_id(),
                    "standby_alive": s.standby_alive(),
                    "promotions": s.promotions(),
                    "replication_lag_entries": replication.map(|r| r.lag_entries),
                    "replication_lag_ms": replication.map(|r| r.lag_ms),
                    "readings": readings,
                    "messages": messages,
                    "ingest_backlog": backlog,
                    "sensors": sensors,
                })
            })
            .collect();
        let ring = serde_json::json!({
            "vnodes": map.vnodes,
            "shard_key_depth": map.shard_key_depth,
            "ring": map.agents,
            "replication_factor": self.replication_factor,
            "shards": shards,
        });
        dcdb_common::document(&self.stats(), ring)
    }

    /// The shard the ring assigns `topic` to, regardless of liveness.
    fn ring_owner(&self, topic: &Topic) -> Option<Arc<Shard>> {
        let map = self.shard_map();
        let id = map.assign_id(topic)?;
        self.shard(id).map(Arc::clone)
    }
}

/// Builds one node's runtime: broker, tapped engine, Collect Agent.
fn build_node(
    template: &CollectAgentConfig,
    bus: BusConfig,
    storage: &StorageFactory,
    ordinal: usize,
    node_id: &str,
) -> Result<NodeRuntime> {
    let broker = Broker::with_config(bus);
    let engine = TappedEngine::wrap(storage(ordinal, node_id)?);
    let agent = Arc::new(CollectAgent::new(
        CollectAgentConfig {
            agent_id: node_id.to_string(),
            ..template.clone()
        },
        &broker.handle(),
        Arc::clone(&engine) as Arc<dyn StorageEngine>,
    )?);
    Ok(NodeRuntime {
        broker,
        agent,
        engine,
    })
}

impl MessageBus for FederatedAgent {
    fn publish(&self, topic: Topic, payload: Bytes) -> std::result::Result<(), DcdbError> {
        match self.ring_owner(&topic) {
            Some(shard) => match shard.bus() {
                Some(bus) => {
                    self.publishes.fetch_add(1, Ordering::Relaxed);
                    shard.note_ok();
                    bus.publish(topic, payload)
                }
                None => {
                    // The owner's primary is crashed: refuse (the
                    // caller's spool takes over) and let the failure
                    // feed detection — enough consecutive refusals
                    // trigger the failover that re-routes these keys.
                    self.publishes_refused.fetch_add(1, Ordering::Relaxed);
                    let strikes = shard.strikes.fetch_add(1, Ordering::AcqRel) + 1;
                    if strikes >= FAILOVER_THRESHOLD {
                        self.failover(shard.index);
                    }
                    Err(DcdbError::Disconnected(format!(
                        "shard {} owning {topic} is down",
                        shard.id
                    )))
                }
            },
            None => {
                self.publishes_refused.fetch_add(1, Ordering::Relaxed);
                Err(DcdbError::Disconnected(format!(
                    "no live shard owns {topic}"
                )))
            }
        }
    }

    /// Attaches the subscription to the shard owning the filter's
    /// literal prefix (so `/rack00/node03/#` lands where that node's
    /// data is ingested), falling back to the first live shard for
    /// filters with no literal prefix. Limitation: a cross-shard filter
    /// (`/#` on a multi-agent federation) only sees its home shard's
    /// traffic — fan-in subscribers should query through the router
    /// instead.
    fn subscribe_with(&self, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        let prefix: String = filter
            .segments()
            .iter()
            .map_while(|s| match s {
                FilterSegment::Literal(l) => Some(format!("/{l}")),
                _ => None,
            })
            .collect();
        let bus = Topic::parse(&prefix)
            .ok()
            .and_then(|t| self.ring_owner(&t))
            .and_then(|s| s.bus())
            .or_else(|| self.shards.iter().find_map(|s| s.bus()))
            .unwrap_or_else(|| self.fallback_broker.handle());
        bus.subscribe_with(filter, opts)
    }

    fn stats(&self) -> BusStatsSnapshot {
        let mut total = BusStatsSnapshot::default();
        for shard in &self.shards {
            for node in &shard.nodes {
                if let Some(rt) = node.runtime.read().as_ref() {
                    let s = rt.broker.handle().stats();
                    total.published += s.published;
                    total.delivered += s.delivered;
                    total.dropped += s.dropped;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::reading::SensorReading;
    use wintermute::prelude::QueryMode;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn publish_node(fed: &FederatedAgent, node: usize, secs: std::ops::RangeInclusive<u64>) {
        for i in secs {
            fed.publish_readings(
                t(&format!("/rack00/node{node:02}/power")),
                &[SensorReading::new(
                    (node * 1000) as i64 + i as i64,
                    Timestamp::from_secs(i),
                )],
            )
            .unwrap();
        }
    }

    fn replicated(agents: usize) -> FederatedAgent {
        FederatedAgent::new(FederationConfig {
            agents,
            replication_factor: 2,
            ..FederationConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn readings_route_to_the_owning_shard() {
        let fed = FederatedAgent::new(FederationConfig {
            agents: 4,
            ..FederationConfig::default()
        })
        .unwrap();
        for node in 0..8 {
            publish_node(&fed, node, 1..=10);
        }
        assert_eq!(fed.process_pending(), 80);
        let map = fed.shard_map();
        // Every shard's sensors are exactly the topics the ring assigns
        // to it.
        for shard in fed.shards() {
            for node in 0..8 {
                let topic = t(&format!("/rack00/node{node:02}/power"));
                let here = shard.agent().unwrap().query_engine().knows(&topic);
                let owns = map.assign_id(&topic) == Some(shard.id.as_str());
                assert_eq!(here, owns, "{topic} on {}", shard.id);
            }
        }
        assert_eq!(fed.stats().publishes, 80);
    }

    #[test]
    fn kill_is_an_honest_crash_detection_degrades_and_rejoin_restores_routing() {
        // Unreplicated tier: a crash must degrade to the PR-6 partial
        // tier (ring removal) — and because the memtable really died,
        // the in-memory shard's pre-kill readings are genuinely gone.
        let fed = FederatedAgent::new(FederationConfig {
            agents: 3,
            ..FederationConfig::default()
        })
        .unwrap();
        let topic = t("/rack00/node00/power");
        let owner = fed.shard_map().assign_id(&topic).unwrap().to_string();

        publish_node(&fed, 0, 1..=5);
        fed.process_pending();

        assert!(fed.kill(&owner));
        assert!(!fed.kill(&owner), "double kill is a no-op");
        // The crash itself does not rebalance: the ring still routes to
        // the dead shard and publishes are refused (spool territory).
        assert_eq!(fed.shard_map().epoch, 0);
        assert!(fed.publish(topic.clone(), Bytes::new()).is_err());
        assert!(fed.stats().publishes_refused >= 1);

        // Detection: supervision strikes accumulate to the threshold,
        // then the shard (no standby) degrades out of the ring.
        for _ in 0..FAILOVER_THRESHOLD {
            fed.supervise();
        }
        let map = fed.shard_map();
        assert_eq!(map.epoch, 1);
        assert_ne!(map.assign_id(&topic), Some(owner.as_str()));
        assert_eq!(fed.stats().degraded_removals, 1);
        assert_eq!(fed.stats().shards_up, 2);

        // Interim publishes land on the new owner.
        publish_node(&fed, 0, 6..=8);
        fed.process_pending();
        let interim = map.assign_id(&topic).unwrap();
        assert!(fed
            .shard(interim)
            .unwrap()
            .agent()
            .unwrap()
            .query_engine()
            .knows(&topic));

        // Rejoin: placement returns to the original owner. The crash
        // dropped its memtable, so (volatile storage) its history is
        // empty — honest loss the replicated tier exists to prevent.
        assert!(fed.rejoin(&owner));
        let map = fed.shard_map();
        assert_eq!(map.epoch, 2);
        assert_eq!(map.assign_id(&topic), Some(owner.as_str()));
        let back = fed
            .shard(&owner)
            .unwrap()
            .agent()
            .unwrap()
            .query_engine()
            .query(
                &topic,
                QueryMode::Absolute {
                    t0: Timestamp::from_secs(1),
                    t1: Timestamp::from_secs(5),
                },
            );
        assert!(back.is_empty(), "volatile state really died with the kill");
    }

    #[test]
    fn replicated_shard_promotes_standby_with_zero_acked_loss() {
        let fed = replicated(3);
        let topic = t("/rack00/node00/power");
        let owner = fed.shard_map().assign_id(&topic).unwrap().to_string();

        publish_node(&fed, 0, 1..=20);
        fed.process_pending(); // acks + pumps the stream to the standby

        // More acked writes that are still in flight on the tail when
        // the primary dies: publish, ingest, but do not pump.
        for i in 21..=25u64 {
            fed.publish_readings(
                topic.clone(),
                &[SensorReading::new(i as i64, Timestamp::from_secs(i))],
            )
            .unwrap();
        }
        let shard = Arc::clone(fed.shard(&owner).unwrap());
        shard.agent().unwrap().process_pending();
        assert!(
            shard.replication_stats().unwrap().lag_entries > 0,
            "in-flight entries exist at crash time"
        );

        assert!(fed.kill(&owner));
        for _ in 0..FAILOVER_THRESHOLD {
            fed.supervise();
        }
        // Promotion: same ring membership, bumped epochs, counted.
        let map = fed.shard_map();
        assert_eq!(map.epoch, 1);
        assert_eq!(map.assign_id(&topic), Some(owner.as_str()));
        assert_eq!(shard.promotions(), 1);
        assert_eq!(shard.role_epoch(), 1);
        assert_eq!(fed.stats().promotions, 1);
        assert!(shard.is_up());
        assert_eq!(shard.primary_node_id(), format!("{owner}-r"));

        // Zero acked-durable loss: every acked reading — including the
        // in-flight tail entries drained at promotion — answers on the
        // promoted primary, exactly once.
        let back = shard.agent().unwrap().query_engine().query(
            &topic,
            QueryMode::Absolute {
                t0: Timestamp::from_secs(1),
                t1: Timestamp::from_secs(25),
            },
        );
        assert_eq!(back.len(), 25, "all acked readings, no duplicates");

        // Ingest for the shard's keys flows to the promoted node.
        publish_node(&fed, 0, 26..=30);
        fed.process_pending();
        let back = shard.agent().unwrap().query_engine().query(
            &topic,
            QueryMode::Absolute {
                t0: Timestamp::from_secs(1),
                t1: Timestamp::from_secs(30),
            },
        );
        assert_eq!(back.len(), 30);

        // The crashed node rejoins as a fresh standby and catches up.
        assert!(fed.rejoin(&owner));
        fed.pump_replication();
        let stats = shard.replication_stats().unwrap();
        assert_eq!(stats.lag_entries, 0, "standby caught up");
        let standby_engine = shard.engine_of(0).unwrap();
        assert_eq!(
            standby_engine
                .query(&topic, Timestamp::ZERO, Timestamp::MAX)
                .len(),
            30,
            "catch-up replayed history without duplicates"
        );
    }

    #[test]
    fn refused_publishes_drive_detection_to_failover() {
        let fed = replicated(2);
        let topic = t("/rack00/node00/power");
        let owner = fed.shard_map().assign_id(&topic).unwrap().to_string();
        publish_node(&fed, 0, 1..=5);
        fed.process_pending();
        fed.kill(&owner);

        // Each refused publish is a strike; the pusher's spool rides
        // the refusals until the threshold promotes the standby.
        let threshold = FAILOVER_THRESHOLD;
        let mut refusals = 0;
        for i in 0..threshold + 2 {
            let r = fed.publish_readings(
                topic.clone(),
                &[SensorReading::new(
                    100 + i as i64,
                    Timestamp::from_secs(100 + i),
                )],
            );
            if r.is_err() {
                refusals += 1;
            } else {
                break;
            }
        }
        assert_eq!(refusals, threshold, "failover fired at the threshold");
        assert!(fed.shard(&owner).unwrap().is_up(), "standby promoted");
        assert!(fed
            .publish_readings(topic, &[SensorReading::new(7, Timestamp::from_secs(200))])
            .is_ok());
    }

    #[test]
    fn publish_with_all_shards_down_is_refused_not_lost_silently() {
        let fed = FederatedAgent::new(FederationConfig {
            agents: 2,
            ..FederationConfig::default()
        })
        .unwrap();
        fed.kill("agent-00");
        fed.kill("agent-01");
        let err = fed.publish(t("/rack00/node00/power"), Bytes::new());
        assert!(err.is_err());
        assert_eq!(fed.stats().publishes_refused, 1);
        // Rejoin: the node restarts as primary and publishes flow again.
        fed.rejoin("agent-00");
        assert!(fed.publish(t("/rack00/node00/power"), Bytes::new()).is_ok());
    }

    #[test]
    fn rebalance_waits_for_pinned_queries_then_counts_timeouts() {
        let fed = Arc::new(
            FederatedAgent::new(FederationConfig {
                agents: 2,
                drain_timeout_ms: 50,
                ..FederationConfig::default()
            })
            .unwrap(),
        );
        let threshold = FAILOVER_THRESHOLD;
        // A query pinned to epoch 0 that outlives the drain budget: the
        // cutover still happens, and the timeout is counted.
        let guard = fed.begin_query();
        assert_eq!(guard.map().epoch, 0);
        fed.kill("agent-01");
        for _ in 0..threshold {
            fed.supervise();
        }
        assert_eq!(fed.shard_map().epoch, 1);
        assert_eq!(fed.stats().drains_timed_out, 1);
        drop(guard);

        // A query that finishes promptly lets the drain complete
        // without a timeout.
        let fed2 = Arc::clone(&fed);
        let guard = fed.begin_query();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            drop(guard);
        });
        fed2.rejoin("agent-01");
        h.join().unwrap();
        assert_eq!(fed.stats().drains_timed_out, 1, "no new drain timeout");
        assert_eq!(fed.shard_map().epoch, 2);
    }

    #[test]
    fn assignments_and_roles_are_visible_in_shard_health() {
        let fed = replicated(2);
        let a = fed.shard("agent-00").unwrap().agent().unwrap();
        let assignment = a.shard_assignment().expect("assigned at construction");
        assert_eq!(assignment.total, 2);
        assert_eq!(assignment.epoch, 0);
        assert_eq!(assignment.role, ShardRole::Primary);

        fed.kill("agent-00");
        for _ in 0..FAILOVER_THRESHOLD {
            fed.supervise();
        }
        // Promoted standby reports primary at the bumped epoch.
        let promoted = fed.shard("agent-00").unwrap().agent().unwrap();
        let assignment = promoted.shard_assignment().unwrap();
        assert_eq!(assignment.role, ShardRole::Primary);
        assert_eq!(assignment.epoch, 1);
        assert_eq!(assignment.total, 2, "promotion keeps the ring membership");

        // The rejoined old primary reports replica.
        fed.rejoin("agent-00");
        let shard = fed.shard("agent-00").unwrap();
        let standby_slot = shard.standby_slot().unwrap();
        let standby = shard.nodes[standby_slot]
            .runtime
            .read()
            .as_ref()
            .map(|rt| Arc::clone(&rt.agent))
            .unwrap();
        assert_eq!(standby.shard_assignment().unwrap().role, ShardRole::Replica);
    }

    #[test]
    fn a_rejoined_node_runs_the_configured_bus() {
        let fed = FederatedAgent::new(FederationConfig {
            agents: 2,
            bus: BusConfig {
                sub_depth: 8,
                sub_policy: dcdb_bus::OverflowPolicy::DropNewest,
            },
            ..FederationConfig::default()
        })
        .unwrap();
        let ingest_queue = |id: &str| {
            let bus = fed.shard(id).unwrap().bus().unwrap().metrics();
            let sub = bus
                .subscriptions
                .iter()
                .find(|s| s.label == "collect-agent");
            let queue = &sub.expect("the agent's subscription").queue;
            (queue.capacity, queue.policy)
        };
        let configured = (8, dcdb_bus::OverflowPolicy::DropNewest);
        assert_eq!(ingest_queue("agent-00"), configured);
        assert_eq!(ingest_queue("agent-01"), configured);
        assert!(fed.kill("agent-01"));
        assert!(fed.rejoin("agent-01"));
        assert_eq!(ingest_queue("agent-01"), configured, "rebuilt by rejoin");
    }

    #[test]
    fn subscriptions_attach_to_the_owning_shard() {
        let fed = FederatedAgent::new(FederationConfig {
            agents: 4,
            ..FederationConfig::default()
        })
        .unwrap();
        let topic = t("/rack00/node05/power");
        let sub = fed.subscribe_with(
            TopicFilter::parse("/rack00/node05/#").unwrap(),
            SubscribeOptions::default(),
        );
        fed.publish_readings(topic, &[SensorReading::new(7, Timestamp::from_secs(1))])
            .unwrap();
        let msg = sub.try_recv().unwrap().expect("delivered on home shard");
        assert_eq!(msg.topic.as_str(), "/rack00/node05/power");
    }
}
