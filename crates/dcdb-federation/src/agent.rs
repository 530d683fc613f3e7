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
//! A membership change builds the next [`ShardMap`] (epoch + 1) and
//! swaps it in. Nothing pins the old map: ingest routes by the current
//! one, and queries scatter to every live shard whatever the map says.
//!
//! With a replication factor of 2 each shard is a **primary/replica
//! pair**: the primary serves ingest and queries while its
//! [`NodeEngine`] streams every acked write onto a
//! [`ReplicaStream`] that [`FederatedAgent::pump_replication`] applies
//! to the standby (see [`crate::replica`]).
//! [`FederatedAgent::kill`] is an honest crash — it *drops* the
//! victim's in-process broker, agent, and memtable; only on-disk state
//! survives. Nothing rebalances at the moment of the crash: failure is
//! *detected*. Each shard owns one [`Supervisor`] — the state machine a
//! Pusher's connection runs — fed by three inputs: refused publishes,
//! [`FederatedAgent::supervise`] sweeps that find the primary dead, and
//! the query router's scatters (a dead primary or a missed deadline is
//! a failure, an answer in time a success). When it crosses into `Down`
//! the federation fails over — the standby drains the in-flight stream,
//! is promoted to primary (role epoch + promotion counter bump, map
//! epoch bump), and ingest for the shard's keys flows to it. A failover
//! refuses a live primary, so a merely slow shard is only routed down:
//! the router skips it until the supervisor's backoff admits a probe.
//! The crashed node can later [`FederatedAgent::rejoin`] as a fresh
//! standby that catches up from the new primary under per-sensor
//! watermarks. A shard with no standby degrades the PR-6 way: it is
//! removed from the ring and queries return partial results.

use crate::replica::{NodeEngine, ReplicaStats, ReplicaStream, PUMP_BUDGET, TAIL_CAPACITY};
use crate::ring::{ShardMap, DEFAULT_VNODES};
use bytes::Bytes;
use dcdb_bus::{
    Broker, BusConfig, BusHandle, BusStatsSnapshot, FilterSegment, MessageBus, SubscribeOptions,
    Subscription, TopicFilter,
};
use dcdb_collectagent::{CollectAgent, CollectAgentConfig, ShardAssignment, ShardRole};
use dcdb_common::error::{DcdbError, Result};
use dcdb_common::sim::{EventTrace, SimClock};
use dcdb_common::supervisor::{ConnectionState, ReconnectConfig, Supervisor};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_storage::{DurableBackend, StorageEngine};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
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
    /// Nodes per shard: `1` runs the unreplicated tier (a shard loss
    /// degrades to partial results), `2` runs primary/replica pairs
    /// with failover. Clamped to `1..=2`.
    pub replication_factor: usize,
}

/// Leading topic segments forming the shard key: `/rack/node` — one
/// compute node's sensors stay together.
const SHARD_KEY_DEPTH: usize = 2;

/// Every shard's failure detector: three consecutive failures cross
/// into `Down` and fail the shard over; a routed-down shard is probed
/// after 100 ms, doubling to 5 s. No jitter, so replays match.
const SHARD_SUPERVISION: ReconnectConfig = ReconnectConfig {
    base_ms: 100,
    cap_ms: 5_000,
    jitter: 0.0,
    down_threshold: 3,
    seed: 0,
};

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            agents: 4,
            vnodes: DEFAULT_VNODES,
            agent: CollectAgentConfig::default(),
            bus: BusConfig::default(),
            replication_factor: 1,
        }
    }
}

/// The live half of one shard node: everything [`FederatedAgent::kill`]
/// drops. Only the engine's on-disk state (if any) outlives it.
struct NodeRuntime {
    broker: Broker,
    agent: Arc<CollectAgent>,
    engine: Arc<NodeEngine>,
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

/// One shard: a primary (plus optional standby) and the
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
    stream: Mutex<Option<Arc<ReplicaStream>>>,
    /// Times a standby of this shard was promoted to primary.
    promotions: AtomicU64,
    /// The shard's one failure detector; see the module docs.
    supervisor: Mutex<Supervisor>,
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

    /// Replication stream counters, when a stream is wired.
    pub fn replication_stats(&self) -> Option<ReplicaStats> {
        self.stream.lock().as_ref().map(|s| s.stats())
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

    fn engine_of(&self, slot: usize) -> Option<Arc<NodeEngine>> {
        self.nodes[slot]
            .runtime
            .read()
            .as_ref()
            .map(|rt| Arc::clone(&rt.engine))
    }

    /// One [`ReplicaStream::pump`] when a live primary, a live standby
    /// and a stream between them are wired. Returns entries applied.
    fn pump(&self) -> usize {
        let stream = self.stream.lock();
        let Some(stream) = stream.as_ref() else {
            return 0;
        };
        let primary = self.engine_of(self.primary.load(Ordering::Acquire));
        let standby = self.standby_slot().and_then(|slot| self.engine_of(slot));
        let (Some(primary), Some(standby)) = (primary, standby) else {
            return 0;
        };
        let pumped = stream.pump(primary.as_ref(), standby.as_ref(), PUMP_BUDGET);
        pumped.unwrap_or(0)
    }

    /// A snapshot of the shard's failure detector.
    pub(crate) fn supervision(&self) -> Supervisor {
        self.supervisor.lock().clone()
    }

    /// Whether the failure detector is `Down`: the router skips the
    /// shard until a probe is due.
    pub(crate) fn is_routed_down(&self) -> bool {
        self.supervisor.lock().state() == ConnectionState::Down
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
    /// Replication-stream entries currently queued across all shards
    /// (federation-wide replication lag).
    pub replication_lag_entries: usize,
    /// Readings a promotion drain offered the standby and it refused:
    /// acknowledged, and lost with the stream.
    pub replication_dropped: u64,
}

type StorageFactory = dyn Fn(usize, &str) -> Result<Arc<dyn StorageEngine>> + Send + Sync;

/// N Collect Agents behind one [`MessageBus`], sharded by topic,
/// optionally running each shard as a primary/replica pair.
pub struct FederatedAgent {
    shards: Vec<Arc<Shard>>,
    current: RwLock<Arc<ShardMap>>,
    replication_factor: usize,
    agent_template: CollectAgentConfig,
    bus: BusConfig,
    /// Rebuilds a node's engine on rejoin — one over a disk that outlived
    /// the kill recovers from it; one over a fresh in-memory disk comes
    /// back empty and refills through catch-up.
    storage_factory: Box<StorageFactory>,
    /// Serializes membership transitions (kill, rejoin, failover) so a
    /// publish-driven failover and a supervision-driven one can never
    /// promote twice.
    membership: Mutex<()>,
    /// Subscriptions with no live home shard attach here and stay
    /// silent instead of panicking.
    fallback_broker: Broker,
    /// The failure detectors' clock: virtual time when a [`SimClock`]
    /// is installed, wall time since `origin` otherwise.
    sim_clock: OnceLock<Arc<SimClock>>,
    origin: Instant,
    trace: OnceLock<EventTrace>,
    rebalances: AtomicU64,
    publishes: AtomicU64,
    publishes_refused: AtomicU64,
    degraded_removals: AtomicU64,
    replication_dropped: AtomicU64,
}

impl FederatedAgent {
    /// Builds a federation of `config.agents` shards, each node (and each
    /// rejoin) on a fresh [`DurableBackend::in_memory`].
    pub fn new(config: FederationConfig) -> Result<FederatedAgent> {
        FederatedAgent::new_with(config, |_, _| {
            Ok(Arc::new(DurableBackend::in_memory()) as Arc<dyn StorageEngine>)
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
            // The standby is streamed the primary's first acked write
            // on; both start empty, so no resync is needed.
            let stream = (factor > 1).then(|| {
                let primary = nodes[0].runtime.read();
                let engine = &primary.as_ref().expect("just built").engine;
                engine.attach(TAIL_CAPACITY, false)
            });
            shards.push(Arc::new(Shard {
                id,
                index: i,
                nodes,
                primary: AtomicUsize::new(0),
                role_epoch: AtomicU64::new(0),
                stream: Mutex::new(stream),
                promotions: AtomicU64::new(0),
                supervisor: Mutex::new(Supervisor::new(SHARD_SUPERVISION)),
                query_delay_ns: AtomicU64::new(0),
            }));
        }
        let ids: Vec<String> = shards.iter().map(|s| s.id.clone()).collect();
        let map = Arc::new(ShardMap::build(&ids, config.vnodes, SHARD_KEY_DEPTH));
        let fed = FederatedAgent {
            shards,
            current: RwLock::new(Arc::clone(&map)),
            replication_factor: factor,
            agent_template: config.agent,
            bus: config.bus,
            storage_factory,
            membership: Mutex::new(()),
            fallback_broker: Broker::new(),
            sim_clock: OnceLock::new(),
            origin: Instant::now(),
            trace: OnceLock::new(),
            rebalances: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            publishes_refused: AtomicU64::new(0),
            degraded_removals: AtomicU64::new(0),
            replication_dropped: AtomicU64::new(0),
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
        Arc::clone(&self.current.read())
    }

    /// Moves the failure detectors' probe clock from wall time onto a
    /// shared virtual [`SimClock`] (once), so backoff replays
    /// bit-identically. The router's gather deadline stays wall-clock
    /// (it bounds real thread work).
    pub fn use_sim_clock(&self, clock: Arc<SimClock>) {
        let _ = self.sim_clock.set(clock);
    }

    /// Attaches the canonical event trace (once): every shard's detector
    /// transitions are appended as `shard-<i> <from>-><to>` under the
    /// `router` lane, and a promotion that dropped a pending resync as
    /// `shard-<i> resync-dropped` under `replica`.
    pub fn set_trace(&self, trace: EventTrace) {
        for (i, shard) in self.shards.iter().enumerate() {
            let mut sup = shard.supervisor.lock();
            sup.set_trace(trace.clone(), "router", &format!("shard-{i}"));
        }
        let _ = self.trace.set(trace);
    }

    /// A promotion found a resync pending: the new primary lacks acked
    /// history only the crashed one held, and no count of it exists.
    fn report_resync_dropped(&self, shard: &Shard) {
        let id = &shard.id;
        eprintln!("dcdb-federation: {id} promoted a standby never caught up; acked readings lost");
        if let Some(trace) = self.trace.get() {
            let detail = format!("shard-{} resync-dropped", shard.index);
            trace.record(Timestamp(self.now_ns()), "replica", &detail);
        }
    }

    fn now_ns(&self) -> u64 {
        let wall = || self.origin.elapsed().as_nanos() as u64;
        self.sim_clock
            .get()
            .map_or_else(wall, |clock| clock.now_ns())
    }

    /// Runs `input` (a [`Supervisor`] method) on shard `index`'s
    /// detector at the federation's now. The router asks
    /// `attempt_due` before a scatter and reports `on_success` for an
    /// answer in time; a landed publish reports nothing, since it says
    /// nothing about query latency.
    pub(crate) fn detect<R>(&self, index: usize, input: fn(&mut Supervisor, u64) -> R) -> R {
        let now_ns = self.now_ns();
        input(&mut self.shards[index].supervisor.lock(), now_ns)
    }

    /// Feeds one failure of shard `index` to its detector: the primary
    /// was seen dead (a refused publish, a sweep, a scatter) or missed
    /// a scatter deadline. Crossing into `Down` fails the shard over.
    /// Returns true when it crossed.
    pub(crate) fn note_failure(&self, index: usize) -> bool {
        let crossed = self.detect(index, Supervisor::on_failure);
        if crossed {
            self.failover(index);
        }
        crossed
    }

    /// Crashes shard `id`'s current primary: its broker, agent, and
    /// memtable are dropped on the spot — only on-disk state survives.
    /// Nothing rebalances here; the ring still routes to the shard
    /// until its detector (refused publishes, sweeps, scatters) crosses
    /// into `Down` and triggers [`FederatedAgent::failover`]; the crash
    /// starts that detector afresh. Returns false if the shard is
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
        shard.supervisor.lock().reset();
        // `crashed` drops here: broker gone, agent gone, memtable gone.
        true
    }

    /// Fails over shard `index` after detection: if a standby is alive,
    /// the in-flight replication stream is drained into it (bounded by
    /// the stream's capacity — it cannot grow while its primary is
    /// dead), the standby is promoted (role epoch + promotion counters
    /// bump) and the map epoch advances. A shard with no standby is
    /// removed from the ring instead — the degraded tier, where its keys
    /// rehash to the surviving shards and queries report partial
    /// results. A shard whose primary
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
                self.rebalance();
                false
            }
        }
    }

    /// Promotes the live node in `slot` to primary. Caller holds the
    /// membership lock.
    fn promote_locked(&self, shard: &Arc<Shard>, slot: usize) {
        if let Some(stream) = shard.stream.lock().take() {
            if let Some(engine) = shard.engine_of(slot) {
                // The drain applies the `replicating` term of the
                // conservation identity before the standby serves its
                // first query; what the standby refuses is counted.
                let loss = stream.drain(engine.as_ref());
                self.replication_dropped
                    .fetch_add(loss.refused, Ordering::Relaxed);
                if loss.resync_dropped {
                    self.report_resync_dropped(shard);
                }
            }
        }
        shard.primary.store(slot, Ordering::Release);
        shard.role_epoch.fetch_add(1, Ordering::AcqRel);
        shard.promotions.fetch_add(1, Ordering::Relaxed);
        shard.supervisor.lock().reset();
        self.rebalance();
    }

    /// One failure-detection sweep: every shard whose designated
    /// primary is dead but still in the ring feeds its detector one
    /// failure. Called from [`FederatedAgent::tick`]; tests and
    /// harnesses can call it directly to advance detection
    /// deterministically. Returns the number of shards whose detector
    /// crossed into `Down` (and so failed over).
    pub fn supervise(&self) -> usize {
        let map = self.shard_map();
        let mut crossed = 0;
        for shard in self.shards.iter().filter(|s| !s.is_up()) {
            if map.agents.contains(&shard.id) && self.note_failure(shard.index) {
                crossed += 1;
            }
        }
        crossed
    }

    /// Restarts the dead node of shard `id` from its storage factory.
    /// If the shard has a live primary (it failed over), the restarted
    /// node becomes the standby: a stream is attached to the primary
    /// with a resync pending and the shard pumps at once, so the node
    /// holds the primary's history past its per-sensor watermarks before
    /// the rejoin returns (the overlap dedups; a refused catch-up stays
    /// pending). If the whole shard was down, the node resumes as
    /// primary and the shard re-enters the ring. Returns false if the
    /// shard is unknown or fully up.
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
        let as_standby = shard.is_up();
        *shard.nodes[slot].runtime.write() = Some(runtime);
        if as_standby {
            let primary = shard.engine_of(shard.primary.load(Ordering::Acquire));
            let primary = primary.expect("primary is up");
            *shard.stream.lock() = Some(primary.attach(TAIL_CAPACITY, true));
            shard.pump();
            self.apply_assignments(&self.shard_map());
        } else {
            shard.primary.store(slot, Ordering::Release);
            shard.role_epoch.fetch_add(1, Ordering::AcqRel);
            shard.supervisor.lock().reset();
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

    /// Rebuilds the map over the live shard set and swaps it in.
    /// Returns the new epoch.
    fn rebalance(&self) -> u64 {
        let live = self.up_ids();
        let map = {
            let mut current = self.current.write();
            *current = Arc::new(current.rebalanced(&live));
            Arc::clone(&current)
        };
        self.apply_assignments(&map);
        self.rebalances.fetch_add(1, Ordering::Relaxed);
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

    /// One replication pass: every shard with a live primary, a live
    /// standby and a stream between them runs one
    /// [`ReplicaStream::pump`] — the catch-up a rejoin or an overflow
    /// asked for, then up to the budget of queued entries as one group.
    /// Returns entries applied.
    pub fn pump_replication(&self) -> usize {
        self.shards.iter().map(|shard| shard.pump()).sum()
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
            replication_dropped: self.replication_dropped.load(Ordering::Relaxed),
        }
    }

    /// Federation status as JSON: the shard map, per-shard liveness,
    /// role, replication lag and ingest counters, and the rebalance
    /// counters. Served by the router's
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

/// Builds one node's runtime: broker, node engine, Collect Agent.
fn build_node(
    template: &CollectAgentConfig,
    bus: BusConfig,
    storage: &StorageFactory,
    ordinal: usize,
    node_id: &str,
) -> Result<NodeRuntime> {
    let broker = Broker::with_config(bus);
    let engine = NodeEngine::wrap(storage(ordinal, node_id)?);
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
                    bus.publish(topic, payload)
                }
                None => {
                    // The owner's primary is crashed: refuse (the
                    // caller's spool takes over) and feed the shard's
                    // detector — crossing into `Down` triggers the
                    // failover that re-routes these keys.
                    self.publishes_refused.fetch_add(1, Ordering::Relaxed);
                    self.note_failure(shard.index);
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
    use dcdb_storage::{DurableConfig, FaultConfig, FaultIo, HealthConfig, StdIo};
    use std::path::PathBuf;
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

        // Detection: sweeps feed the detector until it crosses into
        // Down, then the shard (no standby) degrades out of the ring.
        for _ in 0..SHARD_SUPERVISION.down_threshold {
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
        for _ in 0..SHARD_SUPERVISION.down_threshold {
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

    /// One replica pair (shard `agent-00` owns every topic) whose
    /// standby journals through a `FaultIo` the test arms. The standby
    /// never retries or demotes, so a failing disk refuses at once.
    fn pair_with_faulty_standby(name: &str) -> (FederatedAgent, Arc<FaultIo>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("dcdb-fed-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let io = Arc::new(FaultIo::new(Arc::new(StdIo), FaultConfig::quiet(1)));
        let (standby_io, standby_dir) = (Arc::clone(&io), dir.clone());
        let config = FederationConfig {
            agents: 1,
            replication_factor: 2,
            ..FederationConfig::default()
        };
        let fed = FederatedAgent::new_with(config, move |ordinal, _| {
            if ordinal == 0 {
                return Ok(Arc::new(DurableBackend::in_memory()) as Arc<dyn StorageEngine>);
            }
            let health = HealthConfig {
                max_retries: 0,
                retry_backoff_base_ms: 0,
                readonly_after: u32::MAX,
                ..HealthConfig::default()
            };
            let config = DurableConfig {
                health,
                ..DurableConfig::default()
            };
            let io = Arc::clone(&standby_io) as _;
            Ok(Arc::new(DurableBackend::open_with(io, &standby_dir, config)?) as _)
        })
        .unwrap();
        io.set_config(FaultConfig {
            eio_prob: 1.0,
            ..FaultConfig::quiet(1)
        });
        (fed, io, dir)
    }

    #[test]
    fn replication_lag_keeps_its_age_while_the_standby_refuses() {
        let (fed, _io, dir) = pair_with_faulty_standby("lag");
        publish_node(&fed, 0, 1..=5);
        fed.process_pending(); // acked on the primary, the pump refused
        let refusing = Instant::now();
        let shard = &fed.shards()[0];
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(fed.pump_replication(), 0);
            let floor = refusing.elapsed().as_millis() as u64;
            let s = shard.replication_stats().unwrap();
            assert!(s.lag_entries > 0);
            assert!(s.lag_ms >= floor, "{s:?} after {floor} ms of refusals");
        }
        drop(fed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_refused_promotion_drain_is_counted() {
        let (fed, _io, dir) = pair_with_faulty_standby("drain");
        publish_node(&fed, 0, 1..=5);
        fed.process_pending();
        assert!(fed.kill("agent-00"));
        for _ in 0..SHARD_SUPERVISION.down_threshold {
            fed.supervise();
        }
        assert_eq!(fed.stats().promotions, 1);
        assert_eq!(
            fed.stats().replication_dropped,
            5,
            "every acked reading the standby refused at promotion"
        );
        drop(fed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_node_rejoined_while_its_stream_overflowed_converges_through_one_catch_up() {
        let fed = replicated(1);
        publish_node(&fed, 0, 1..=20);
        fed.process_pending();
        assert!(fed.kill("agent-00"));
        for _ in 0..SHARD_SUPERVISION.down_threshold {
            fed.supervise();
        }
        // The rejoin's own pump catches the node up on the history.
        assert!(fed.rejoin("agent-00"));
        let shard = Arc::clone(&fed.shards()[0]);
        let (standby, primary) = (shard.engine_of(0).unwrap(), shard.engine_of(1).unwrap());
        let topic = t("/rack00/node00/power");
        let values = || -> Vec<i64> {
            let got = standby.query(&topic, Timestamp::ZERO, Timestamp::MAX);
            got.iter().map(|r| r.value).collect()
        };
        assert_eq!(values(), (1..=20).collect::<Vec<i64>>());
        // More acked writes than the stream holds, before any pump.
        let last = 20 + TAIL_CAPACITY as u64 + 10;
        for i in 21..=last {
            let reading = SensorReading::new(i as i64, Timestamp::from_secs(i));
            primary.insert(&topic, reading).unwrap();
        }
        assert_eq!(shard.replication_stats().unwrap().overflowed, 10);
        // One pass: its one catch-up covers the gap.
        let expected: Vec<i64> = (1..=last as i64).collect();
        assert_eq!(fed.pump_replication(), PUMP_BUDGET);
        assert_eq!(values(), expected);
        // What is left on the stream re-applies as no-ops.
        while fed.pump_replication() > 0 {}
        assert_eq!(shard.replication_stats().unwrap().lag_entries, 0);
        assert_eq!(values(), expected, "every acked reading exactly once");
    }

    /// Regression: a rejoin once left the catch-up to the next pump, so
    /// a primary that crashed first promoted a node missing every
    /// reading acknowledged while it was down, and counted nothing.
    #[test]
    fn a_node_promoted_right_after_its_rejoin_holds_every_acked_reading() {
        let fed = replicated(1);
        publish_node(&fed, 0, 1..=10);
        fed.process_pending();
        assert!(fed.kill("agent-00"));
        for _ in 0..SHARD_SUPERVISION.down_threshold {
            fed.supervise();
        }
        publish_node(&fed, 0, 11..=20); // acked while agent-00 is down
        fed.process_pending();
        assert!(fed.rejoin("agent-00"));
        // The new primary crashes before any pump or tick.
        assert!(fed.kill("agent-00"));
        for _ in 0..SHARD_SUPERVISION.down_threshold {
            fed.supervise();
        }
        let shard = &fed.shards()[0];
        assert_eq!(
            (shard.promotions(), shard.primary_node_id()),
            (2, "agent-00")
        );
        let topic = t("/rack00/node00/power");
        let back = shard.engine_of(0).unwrap();
        let back = back.query(&topic, Timestamp::ZERO, Timestamp::MAX);
        let values: Vec<i64> = back.iter().map(|r| r.value).collect();
        assert_eq!(values, (1..=20).collect::<Vec<i64>>());
        assert_eq!(fed.stats().replication_dropped, 0);
    }

    #[test]
    fn a_promotion_that_drops_a_pending_resync_is_traced() {
        let fed = replicated(1);
        let trace = EventTrace::new();
        fed.set_trace(trace.clone());
        let shard = Arc::clone(&fed.shards()[0]);
        let primary = shard.engine_of(0).unwrap();
        let topic = t("/rack00/node00/power");
        let last = TAIL_CAPACITY as u64 + 3;
        for i in 1..=last {
            let reading = SensorReading::new(i as i64, Timestamp::from_secs(i));
            primary.insert(&topic, reading).unwrap();
        }
        assert!(fed.kill("agent-00"));
        for _ in 0..SHARD_SUPERVISION.down_threshold {
            fed.supervise();
        }
        // The queued entries land; the three turned away are lost.
        let standby = shard.engine_of(1).unwrap();
        let back = standby.query(&topic, Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(back.len(), TAIL_CAPACITY);
        let dropped = |line: &String| line.ends_with("replica shard-0 resync-dropped\n");
        assert_eq!(trace.tail().iter().filter(|l| dropped(l)).count(), 1);
    }

    #[test]
    fn refused_publishes_drive_detection_to_failover() {
        let fed = replicated(2);
        let topic = t("/rack00/node00/power");
        let owner = fed.shard_map().assign_id(&topic).unwrap().to_string();
        publish_node(&fed, 0, 1..=5);
        fed.process_pending();
        fed.kill(&owner);

        // Each refused publish is a failure; the pusher's spool rides
        // the refusals until the detector crosses into Down and the
        // standby is promoted.
        let threshold = SHARD_SUPERVISION.down_threshold;
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
    fn assignments_and_roles_are_visible_in_shard_health() {
        let fed = replicated(2);
        let a = fed.shard("agent-00").unwrap().agent().unwrap();
        let assignment = a.shard_assignment().expect("assigned at construction");
        assert_eq!(assignment.total, 2);
        assert_eq!(assignment.epoch, 0);
        assert_eq!(assignment.role, ShardRole::Primary);

        fed.kill("agent-00");
        for _ in 0..SHARD_SUPERVISION.down_threshold {
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
