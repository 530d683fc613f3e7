//! Failover resilience: replica-pair promotion under a seeded primary
//! crash (the robustness dimension of the paper's §V operational
//! story).
//!
//! A 4-shard federation runs with [`ReplicationConfig::pair`]: every
//! shard is a primary/standby pair whose journal tail streams acked
//! readings to the standby between rounds. Mid-run the harness kills
//! one primary — an honest crash that drops the broker and memtable —
//! and measures, in *virtual* time, how long the refused-publish
//! detector takes to notice (`detection_ms`), how long until the
//! standby is promoted (`promotion_ms`), how wide the ingest
//! unavailability window was, and how fast replication lag reconverges
//! after the crashed node rejoins as the new standby.
//!
//! All three fault layers derive from **one** `--fault-seed` via
//! splitmix64 sub-seeds ([`derive_seed`]):
//!
//! | lane | layer |
//! |---|---|
//! | 0 | [`ChaosBus`] outage windows gating a flaky synthetic collector |
//! | 1 | [`FaultIo`] device seeds under every node's durable journal |
//! | 2 | victim shard choice and kill-round jitter |
//!
//! A second cell runs the same schedule with replication *disabled*
//! (factor 1) and checks the kill degrades gracefully to the
//! partial-result envelope tier: the shard is detected, removed from
//! the ring, queries stay accounted with exactly one shard down, and
//! nothing acked on the surviving shards is lost or duplicated.

use dcdb_bus::{Broker, ChaosBus, ChaosConfig, MessageBus};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_federation::{
    derive_seed, FederatedAgent, FederationConfig, QueryRouter, ReplicationConfig, RouterConfig,
};
use dcdb_storage::{DurableBackend, DurableConfig, FaultConfig, FaultIo, StorageEngine, StorageIo};
use serde::Serialize;
use sim_cluster::Topology;
use std::path::Path;
use std::sync::Arc;

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct FailoverResilienceConfig {
    /// Shards in the federation (each a replica pair in the main cell).
    pub agents: usize,
    /// Ingest rounds; each round publishes one reading per node topic.
    pub rounds: u64,
    /// Virtual milliseconds one round represents.
    pub round_ms: u64,
    /// Round at which the victim primary is killed (lane 2 jitters it).
    pub kill_round: u64,
    /// Round at which the crashed node rejoins as the new standby.
    pub rejoin_round: u64,
    /// Collector outage windows the chaos bus schedules from lane 0.
    pub collector_outages: usize,
    /// The single fault seed split into the three lanes.
    pub fault_seed: u64,
}

impl FailoverResilienceConfig {
    /// Full run: 4 replica pairs, 48 rounds at 250 virtual ms.
    pub fn paper() -> FailoverResilienceConfig {
        FailoverResilienceConfig {
            agents: 4,
            rounds: 48,
            round_ms: 250,
            kill_round: 12,
            rejoin_round: 28,
            collector_outages: 3,
            fault_seed: 0xFA11,
        }
    }

    /// CI-sized run: same shape, fewer rounds.
    pub fn quick() -> FailoverResilienceConfig {
        FailoverResilienceConfig {
            rounds: 32,
            kill_round: 8,
            rejoin_round: 18,
            collector_outages: 2,
            ..FailoverResilienceConfig::paper()
        }
    }
}

/// Outcome of the replicated (factor-2) cell.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverCell {
    /// Shard whose primary was killed.
    pub victim: String,
    /// Round the kill landed on (kill_round + lane-2 jitter).
    pub killed_at_round: u64,
    /// Kill → first refused publish, virtual ms.
    pub detection_ms: u64,
    /// Kill → standby promoted, virtual ms.
    pub promotion_ms: u64,
    /// Virtual span during which ingest to the victim's keys refused.
    pub unavailability_ms: u64,
    /// Publishes refused during the detection window.
    pub refused_publishes: u64,
    /// Collector samples the lane-0 chaos bus refused (never acked).
    pub collector_outage_skips: u64,
    /// Readings whose publish was acknowledged.
    pub published: usize,
    /// Readings the final scatter-gather returned.
    pub returned: usize,
    /// Acked readings missing from the final query.
    pub lost_acked: usize,
    /// Readings returned more than once across the epoch change.
    pub duplicates: usize,
    /// Standby promotions observed (must be exactly 1).
    pub promotions: u64,
    /// Rounds after the rejoin until lag fell to ≤ one round's batch.
    pub lag_rounds_to_converge: Option<u64>,
    /// Victim-shard replication lag at the end of the run, entries.
    pub final_lag_entries: usize,
    /// Final lag was within one publish batch of zero.
    pub lag_converged: bool,
    /// Every envelope satisfied `total == ok + timed_out + down`.
    pub envelopes_accounted: bool,
    /// Queries after promotion + rejoin were complete again.
    pub complete_after_recovery: bool,
    /// All gates held: promotion ≤ 2 s virtual, zero loss, zero
    /// duplicates, lag reconverged.
    pub ok: bool,
}

/// Outcome of the replication-disabled (factor-1) cell.
#[derive(Debug, Clone, Serialize)]
pub struct DegradedCell {
    /// Shard killed (never rejoined).
    pub victim: String,
    /// Failovers that found no standby and degraded the shard away.
    pub degraded_removals: u64,
    /// Every envelope stayed accounted through the outage.
    pub envelopes_accounted: bool,
    /// At least one post-kill query showed the partial-result envelope
    /// (one shard down, not complete).
    pub partial_envelope_visible: bool,
    /// Readings acked on surviving shards missing from final queries.
    pub lost_on_survivors: usize,
    /// Readings acked on the victim before the kill — unavailable (not
    /// lost durably; the journal survives) until an operator rejoins it.
    pub unavailable_acked: usize,
    /// Readings returned more than once.
    pub duplicates: usize,
    /// Degraded tier held: detection fired, envelopes partial but
    /// accounted, survivors exactly-once.
    pub ok: bool,
}

/// The full report written to `bench-results/failover_resilience.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverResilienceResult {
    /// The single fault seed the run used.
    pub fault_seed: u64,
    /// The three lane sub-seeds split from it.
    pub sub_seeds: [u64; 3],
    /// Replicated (factor-2) kill/promote/rejoin cell.
    pub replicated: FailoverCell,
    /// Replication-disabled (factor-1) degradation cell.
    pub degraded: DegradedCell,
    /// Both cells held their gates.
    pub ok: bool,
}

fn topic_of(topology: &Topology, node: usize) -> Topic {
    topology.node_topic(node).child("power").expect("valid")
}

/// Builds a federation whose nodes journal to `dir/<cell>/<node id>`
/// through lane-1-seeded fault devices (replica nodes get their own
/// journal directories — `agent-0i` vs `agent-0i-r`).
fn federation(
    config: &FailoverResilienceConfig,
    replication: ReplicationConfig,
    dir: &Path,
    cell: &str,
) -> Arc<FederatedAgent> {
    let disk_lane = derive_seed(config.fault_seed, 1);
    let base = dir.join(cell);
    Arc::new(
        FederatedAgent::new_with(
            FederationConfig {
                agents: config.agents,
                replication,
                ..FederationConfig::default()
            },
            move |ordinal, id| {
                let io: Arc<dyn StorageIo> = Arc::new(FaultIo::std(FaultConfig::quiet(
                    disk_lane.wrapping_add(ordinal as u64),
                )));
                let db = DurableBackend::open_with(io, &base.join(id), DurableConfig::default())?;
                Ok(Arc::new(db) as Arc<dyn StorageEngine>)
            },
        )
        .expect("federation"),
    )
}

/// The replicated cell: kill a primary mid-ingest, measure detection,
/// promotion, the unavailability window, and post-rejoin lag
/// convergence — all in virtual time.
fn run_replicated(config: &FailoverResilienceConfig, dir: &Path) -> FailoverCell {
    let topology = Topology::federated(config.agents);
    let fed = federation(config, ReplicationConfig::pair(), dir, "replicated");
    let router = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());

    // Lane 2: which shard dies, and exactly when.
    let lane2 = derive_seed(config.fault_seed, 2);
    let victim = fed.shards()[(lane2 % config.agents as u64) as usize]
        .id
        .clone();
    let kill_round = config.kill_round + (lane2 >> 8) % 3;
    let victim_shard = Arc::clone(fed.shard(&victim).expect("victim exists"));
    let victim_batch = topology
        .nodes()
        .filter(|&n| fed.shard_map().assign_id(&topic_of(&topology, n)) == Some(victim.as_str()))
        .count()
        .max(1);

    // Lane 0: a flaky collector whose samples ride a chaos bus with
    // seeded outage windows; refused samples never reach the federation
    // and are never acked, so the accounting identity still closes.
    let lane0 = derive_seed(config.fault_seed, 0);
    let horizon_ns = config.rounds * config.round_ms * 1_000_000;
    let scratch = Broker::new();
    let chaos = ChaosBus::new(
        scratch.handle(),
        ChaosConfig {
            outages: ChaosConfig::seeded_outages(
                lane0,
                horizon_ns,
                config.collector_outages,
                config.round_ms * 1_000_000,
                3 * config.round_ms * 1_000_000,
            ),
            ..ChaosConfig::quiet(lane0)
        },
    );
    let flaky_node = (lane0 % topology.total_nodes as u64) as usize;

    let sub_ns = (config.round_ms * 1_000_000 / topology.total_nodes as u64).max(1);
    let mut vns: u64 = 0;
    let mut v_kill: Option<u64> = None;
    let mut v_first_refusal: Option<u64> = None;
    let mut v_promoted: Option<u64> = None;
    let mut refused = 0u64;
    let mut collector_skips = 0u64;
    let mut acked: Vec<(Topic, u64)> = Vec::new();
    let mut envelopes_accounted = true;
    let mut lag_rounds_to_converge: Option<u64> = None;

    for sec in 1..=config.rounds {
        if sec == kill_round {
            // Round boundary: pending ingest is drained and the tail
            // pumped, so everything acked so far is on the primary's
            // engine, the standby's engine, or the in-flight link the
            // promotion will drain.
            fed.process_pending();
            v_kill = Some(vns);
            assert!(fed.kill(&victim), "kill {victim}");
        }
        if sec == config.rejoin_round {
            assert!(fed.rejoin(&victim), "rejoin {victim}");
        }
        for node in topology.nodes() {
            vns += sub_ns;
            let reading = SensorReading::new(sec as i64, Timestamp::from_secs(sec));
            if node == flaky_node {
                chaos.advance(Timestamp::from_millis(vns / 1_000_000));
                if chaos
                    .publish_readings(topic_of(&topology, node), &[reading])
                    .is_err()
                {
                    collector_skips += 1;
                    continue;
                }
            }
            let topic = topic_of(&topology, node);
            if fed.publish_readings(topic.clone(), &[reading]).is_ok() {
                acked.push((topic, sec));
            } else {
                refused += 1;
                v_first_refusal.get_or_insert(vns);
            }
            if v_promoted.is_none() && victim_shard.promotions() > 0 {
                v_promoted = Some(vns);
            }
        }
        fed.process_pending();
        if sec >= config.rejoin_round && lag_rounds_to_converge.is_none() {
            let lag = victim_shard
                .replication_stats()
                .map(|s| s.lag_entries)
                .unwrap_or(usize::MAX);
            if lag <= victim_batch {
                lag_rounds_to_converge = Some(sec - config.rejoin_round);
            }
        }
        let q = router.query_sensors(&topic_of(&topology, 0), Timestamp::ZERO, Timestamp::MAX);
        envelopes_accounted &= q.envelope.accounted();
    }
    fed.tick(Timestamp::from_secs(config.rounds + 1));
    while fed.process_pending() > 0 {}

    let v_kill = v_kill.expect("kill happened");
    let detection_ms = v_first_refusal.map_or(0, |v| (v - v_kill) / 1_000_000);
    let promotion_ms = v_promoted.map_or(u64::MAX, |v| (v - v_kill) / 1_000_000);
    let unavailability_ms = match (v_first_refusal, v_promoted) {
        (Some(a), Some(b)) => (b.saturating_sub(a)) / 1_000_000,
        _ => 0,
    };
    let final_lag = victim_shard
        .replication_stats()
        .map(|s| s.lag_entries)
        .unwrap_or(usize::MAX);
    let lag_converged = final_lag <= victim_batch;

    // Final accounting: everything acked comes back exactly once,
    // across promotion, epoch bump and rejoin.
    let mut returned = 0usize;
    let mut lost = 0usize;
    let mut duplicates = 0usize;
    let mut complete_after_recovery = true;
    for node in topology.nodes() {
        let topic = topic_of(&topology, node);
        let q = router.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        envelopes_accounted &= q.envelope.accounted();
        complete_after_recovery &= q.envelope.complete();
        let got: Vec<u64> = q
            .readings
            .iter()
            .map(|r| r.ts.as_nanos() / 1_000_000_000)
            .collect();
        returned += got.len();
        let expected: Vec<u64> = acked
            .iter()
            .filter(|(t, _)| *t == topic)
            .map(|(_, sec)| *sec)
            .collect();
        lost += expected.iter().filter(|s| !got.contains(s)).count();
        let mut dedup = got.clone();
        dedup.sort_unstable();
        dedup.dedup();
        duplicates += got.len() - dedup.len();
    }

    let promotions = victim_shard.promotions();
    // `promotion_ms` is measured from the kill, so it already contains
    // the detection window — the ≤ 2 s gate covers detection+promotion.
    let ok = promotions == 1
        && promotion_ms != u64::MAX
        && promotion_ms <= 2_000
        && lost == 0
        && duplicates == 0
        && lag_converged
        && envelopes_accounted
        && complete_after_recovery;
    FailoverCell {
        victim,
        killed_at_round: kill_round,
        detection_ms,
        promotion_ms,
        unavailability_ms,
        refused_publishes: refused,
        collector_outage_skips: collector_skips,
        published: acked.len(),
        returned,
        lost_acked: lost,
        duplicates,
        promotions,
        lag_rounds_to_converge,
        final_lag_entries: if final_lag == usize::MAX {
            0
        } else {
            final_lag
        },
        lag_converged,
        envelopes_accounted,
        complete_after_recovery,
        ok,
    }
}

/// The replication-disabled cell: the same kill schedule against a
/// factor-1 federation must degrade to the partial-result tier, not
/// fail the identity.
fn run_degraded(config: &FailoverResilienceConfig, dir: &Path) -> DegradedCell {
    let topology = Topology::federated(config.agents);
    let fed = federation(config, ReplicationConfig::default(), dir, "degraded");
    let router = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());

    let lane2 = derive_seed(config.fault_seed, 2);
    let victim = fed.shards()[(lane2 % config.agents as u64) as usize]
        .id
        .clone();
    let kill_round = config.kill_round + (lane2 >> 8) % 3;

    let mut acked: Vec<(Topic, u64, String)> = Vec::new();
    let mut envelopes_accounted = true;
    let mut partial_visible = false;

    for sec in 1..=config.rounds {
        if sec == kill_round {
            fed.process_pending();
            assert!(fed.kill(&victim), "kill {victim}");
        }
        for node in topology.nodes() {
            let topic = topic_of(&topology, node);
            let reading = SensorReading::new(sec as i64, Timestamp::from_secs(sec));
            if fed.publish_readings(topic.clone(), &[reading]).is_ok() {
                let owner = fed
                    .shard_map()
                    .assign_id(&topic)
                    .unwrap_or_default()
                    .to_string();
                acked.push((topic, sec, owner));
            }
        }
        fed.process_pending();
        let q = router.query_sensors(&topic_of(&topology, 0), Timestamp::ZERO, Timestamp::MAX);
        envelopes_accounted &= q.envelope.accounted();
        if sec >= kill_round {
            partial_visible |= q.envelope.shards_down == 1 && !q.envelope.complete();
        }
    }
    while fed.process_pending() > 0 {}

    // Survivor accounting: readings acked on shards other than the
    // victim must come back exactly once; readings the victim acked
    // before its crash are *unavailable* (their journal survives on
    // disk) and reported separately.
    let mut lost_on_survivors = 0usize;
    let mut duplicates = 0usize;
    let unavailable = acked.iter().filter(|(_, _, o)| *o == victim).count();
    for node in topology.nodes() {
        let topic = topic_of(&topology, node);
        let q = router.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        envelopes_accounted &= q.envelope.accounted();
        let got: Vec<u64> = q
            .readings
            .iter()
            .map(|r| r.ts.as_nanos() / 1_000_000_000)
            .collect();
        let expected: Vec<u64> = acked
            .iter()
            .filter(|(t, _, o)| *t == topic && *o != victim)
            .map(|(_, sec, _)| *sec)
            .collect();
        lost_on_survivors += expected.iter().filter(|s| !got.contains(s)).count();
        let mut dedup = got.clone();
        dedup.sort_unstable();
        dedup.dedup();
        duplicates += got.len() - dedup.len();
    }

    let degraded_removals = fed.stats().degraded_removals;
    let ok = degraded_removals == 1
        && envelopes_accounted
        && partial_visible
        && lost_on_survivors == 0
        && duplicates == 0;
    DegradedCell {
        victim,
        degraded_removals,
        envelopes_accounted,
        partial_envelope_visible: partial_visible,
        lost_on_survivors,
        unavailable_acked: unavailable,
        duplicates,
        ok,
    }
}

/// Runs both cells. `dir` holds the per-node journals (removing it is
/// the caller's business).
pub fn run(config: &FailoverResilienceConfig, dir: &Path) -> FailoverResilienceResult {
    let replicated = run_replicated(config, dir);
    let degraded = run_degraded(config, dir);
    let ok = replicated.ok && degraded.ok;
    FailoverResilienceResult {
        fault_seed: config.fault_seed,
        sub_seeds: [
            derive_seed(config.fault_seed, 0),
            derive_seed(config.fault_seed, 1),
            derive_seed(config.fault_seed, 2),
        ],
        replicated,
        degraded,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oda-bench-failover-{name}-{}", std::process::id()));
        dir
    }

    #[test]
    fn replicated_cell_promotes_within_budget_and_loses_nothing() {
        let dir = tmp("replicated");
        let config = FailoverResilienceConfig::quick();
        let cell = run_replicated(&config, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(cell.ok, "{cell:?}");
        assert_eq!(cell.promotions, 1);
        assert!(cell.promotion_ms <= 2_000, "{cell:?}");
        assert_eq!(cell.lost_acked, 0);
        assert_eq!(cell.duplicates, 0);
        assert!(cell.lag_converged, "{cell:?}");
    }

    #[test]
    fn degraded_cell_serves_partial_but_accounted() {
        let dir = tmp("degraded");
        let config = FailoverResilienceConfig::quick();
        let cell = run_degraded(&config, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(cell.ok, "{cell:?}");
        assert_eq!(cell.degraded_removals, 1);
        assert_eq!(cell.lost_on_survivors, 0);
        assert!(cell.unavailable_acked > 0, "{cell:?}");
    }

    #[test]
    fn lanes_are_independent_and_deterministic() {
        let s = 0xFA11u64;
        assert_ne!(derive_seed(s, 0), derive_seed(s, 1));
        assert_ne!(derive_seed(s, 1), derive_seed(s, 2));
        assert_eq!(derive_seed(s, 2), derive_seed(s, 2));
    }
}
