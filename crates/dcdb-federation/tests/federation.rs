//! Federation equivalence and resilience tests.
//!
//! The central property: a federated range query over K shards returns
//! *exactly* the readings a single-agent deployment returns for the
//! same published data — same values, same time order, exactly once —
//! including ranges that straddle each shard's cache/storage stitch
//! boundary and topic histories split across shards by a kill/rejoin
//! cycle.

use dcdb_bus::MessageBus;
use dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_federation::{FederatedAgent, FederationConfig, QueryRouter, RouterConfig};
use dcdb_storage::{DurableBackend, DurableConfig, StorageEngine};
use proptest::prelude::*;
use std::sync::Arc;
use wintermute::prelude::QueryMode;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

/// A tiny cache (4 s) so any range wider than a few seconds must
/// stitch cache + storage — the boundary the property exercises.
fn agent_config() -> CollectAgentConfig {
    CollectAgentConfig {
        cache_secs: 4,
        expected_interval_ms: 1000,
        ..CollectAgentConfig::default()
    }
}

fn federation(agents: usize) -> Arc<FederatedAgent> {
    federation_with(agents, 1)
}

fn federation_with(agents: usize, replication_factor: usize) -> Arc<FederatedAgent> {
    Arc::new(
        FederatedAgent::new(FederationConfig {
            agents,
            agent: agent_config(),
            replication_factor,
            ..FederationConfig::default()
        })
        .unwrap(),
    )
}

/// Reference: one Collect Agent ingesting everything.
fn single_agent() -> (dcdb_bus::Broker, Arc<CollectAgent>) {
    let broker = dcdb_bus::Broker::new();
    let storage = Arc::new(DurableBackend::in_memory());
    let agent = Arc::new(CollectAgent::new(agent_config(), &broker.handle(), storage).unwrap());
    (broker, agent)
}

/// One published batch: (node, sensor, second, value).
#[derive(Debug, Clone)]
struct Pub {
    node: usize,
    sensor: usize,
    sec: u64,
    value: i64,
}

fn pubs() -> impl Strategy<Value = Vec<Pub>> {
    prop::collection::vec((0usize..6, 0usize..2, 1u64..40, -1000i64..1000), 1..120).prop_map(
        |raw| {
            // One value per (topic, timestamp): duplicate-timestamp
            // semantics are an engine property, not what this test pins.
            let mut unique = std::collections::BTreeMap::new();
            for (node, sensor, sec, value) in raw {
                unique.insert((node, sensor, sec), value);
            }
            unique
                .into_iter()
                .map(|((node, sensor, sec), value)| Pub {
                    node,
                    sensor,
                    sec,
                    value,
                })
                .collect()
        },
    )
}

/// The whole-second timestamps of a query answer, in answer order.
fn secs_of(readings: &[SensorReading]) -> Vec<u64> {
    readings
        .iter()
        .map(|r| r.ts.as_nanos() / 1_000_000_000)
        .collect()
}

fn topic_of(p: &Pub) -> Topic {
    let sensor = if p.sensor == 0 { "power" } else { "temp" };
    t(&format!("/rack00/node{:02}/{sensor}", p.node))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Federated scatter-gather over K shards == single-agent run, for
    /// every topic and for sub-ranges crossing the cache/storage seam.
    #[test]
    fn federated_query_equals_single_agent(
        batch in pubs(),
        agents in 1usize..5,
        from in 0u64..20,
        span in 0u64..40,
    ) {
        let fed = federation(agents);
        let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
        let (_broker, single) = single_agent();

        for p in &batch {
            let topic = topic_of(p);
            let reading = SensorReading::new(p.value, Timestamp::from_secs(p.sec));
            fed.publish_readings(topic.clone(), &[reading]).unwrap();
            single.query_engine().insert(&topic, reading);
        }
        // Tick past the newest data so small caches evict and the
        // query engines must stitch cache + storage.
        let horizon = Timestamp::from_secs(45);
        fed.tick(horizon);
        single.tick(horizon);

        let t0 = Timestamp::from_secs(from);
        let t1 = Timestamp::from_secs(from + span);
        let mut topics: Vec<Topic> = batch.iter().map(topic_of).collect();
        topics.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        topics.dedup();

        for topic in &topics {
            let expected = single
                .query_engine()
                .query(topic, QueryMode::Absolute { t0, t1 });
            let got = rt.query_sensors(topic, t0, t1);
            prop_assert!(got.envelope.complete(), "{:?}", got.envelope);
            prop_assert!(got.envelope.accounted());
            // Same multiset, same order, exactly once. The reference
            // engine dedups per timestamp the same way (last write to a
            // timestamp wins in both), so compare timestamps and count.
            let got_ts: Vec<u64> = got.readings.iter().map(|r| r.ts.as_nanos()).collect();
            let exp_ts: Vec<u64> = expected.iter().map(|r| r.ts.as_nanos()).collect();
            prop_assert_eq!(&got_ts, &exp_ts, "topic {}", topic);
            let mut sorted = got_ts.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(got_ts, sorted, "time-ordered exactly-once for {}", topic);
        }
    }

    /// With replica pairs, a kill mid-stream loses nothing that was
    /// acked: refused publishes during the detection window ride the
    /// spool (accounted by `is_ok`), the standby promotes with the
    /// in-flight stream drained, and after the crashed node rejoins as
    /// the new standby every routed reading is returned exactly once.
    #[test]
    fn kill_failover_rejoin_preserves_every_acked_reading(
        agents in 2usize..5,
        node in 0usize..6,
        kill_at in 5u64..15,
        rejoin_at in 16u64..25,
    ) {
        let fed = federation_with(agents, 2);
        let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
        let topic = t(&format!("/rack00/node{node:02}/power"));
        let owner = fed.shard_map().assign_id(&topic).unwrap().to_string();

        let mut published = Vec::new();
        for sec in 1..=30u64 {
            if sec == kill_at {
                prop_assert!(fed.kill(&owner));
            }
            if sec == rejoin_at {
                prop_assert!(fed.rejoin(&owner));
            }
            let reading = SensorReading::new(sec as i64, Timestamp::from_secs(sec));
            if fed
                .publish_readings(topic.clone(), &[reading])
                .is_ok()
            {
                published.push(sec);
            }
            fed.process_pending();
        }
        fed.tick(Timestamp::from_secs(31));

        // Detection promoted the standby at the failover threshold (or
        // the rejoin promoted it first); either way the shard serves
        // again and nothing acked was lost or duplicated.
        prop_assert!(fed.shard(&owner).unwrap().is_up());
        let got = rt.query_sensors(&topic, Timestamp::ZERO, Timestamp::MAX);
        prop_assert!(got.envelope.complete(), "{:?}", got.envelope);
        prop_assert_eq!(secs_of(&got.readings), published);
    }
}

/// Deterministic end-to-end check of the envelope identity under a
/// mixed outage: one shard killed, one shard slow.
#[test]
fn envelope_identity_under_mixed_outage() {
    let fed = federation(4);
    for node in 0..8 {
        for sec in 1..=5u64 {
            fed.publish_readings(
                t(&format!("/rack00/node{node:02}/power")),
                &[SensorReading::new(sec as i64, Timestamp::from_secs(sec))],
            )
            .unwrap();
        }
    }
    fed.process_pending();
    let rt = QueryRouter::new(
        Arc::clone(&fed),
        RouterConfig {
            shard_timeout_ms: 30,
        },
    );
    fed.kill("agent-02");
    fed.shards()[0].set_query_delay_ms(200);

    let q = rt.query_sensors(&t("/rack00/node00/power"), Timestamp::ZERO, Timestamp::MAX);
    assert!(q.envelope.accounted(), "{:?}", q.envelope);
    assert_eq!(q.envelope.shards_down, 1);
    assert_eq!(q.envelope.shards_timed_out, 1);
    assert_eq!(q.envelope.shards_ok, 2);
    assert!(!q.envelope.complete());
}

/// The durable counterpart of the replica-pair property above: an
/// *unreplicated* shard whose engine is a `DurableBackend` on its own
/// directory is killed and rejoined mid-stream. Nothing holds its
/// pre-kill readings but its disk, so the rejoin must reopen that
/// directory — the map cuts over both ways, every envelope during the
/// outage stays accounted, and the final scatter returns every acked
/// publish exactly once, histories split across shards included.
#[test]
fn durable_unreplicated_shard_kill_and_rejoin_returns_every_acked_reading_once() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dcdb-federation-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let base = dir.clone();
    let fed = Arc::new(
        FederatedAgent::new_with(
            FederationConfig {
                agents: 4,
                agent: agent_config(),
                ..FederationConfig::default()
            },
            move |_, id| {
                let db = DurableBackend::open(&base.join(id), DurableConfig::default())?;
                Ok(Arc::new(db) as Arc<dyn StorageEngine>)
            },
        )
        .unwrap(),
    );
    let rt = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
    let topics: Vec<Topic> = (0..16)
        .map(|n| t(&format!("/rack00/node{n:02}/power")))
        .collect();
    let probe = &topics[0];
    let victim = fed.shard_map().assign_id(probe).unwrap().to_string();
    assert_eq!(fed.shard_map().epoch, 0);

    let (kill_at, rejoin_at) = (10u64, 20u64);
    let mut acked: Vec<Vec<u64>> = vec![Vec::new(); topics.len()];
    for sec in 1..=30u64 {
        if sec == kill_at {
            // Ingest first, so everything acked so far is in the
            // victim's journal before its memtable and cache die.
            fed.process_pending();
            assert!(fed.kill(&victim));
        }
        if sec == rejoin_at {
            // Refused publishes fed detection: the shard left the ring.
            let degraded = fed.shard_map();
            assert_eq!(degraded.epoch, 1);
            assert_ne!(degraded.assign_id(probe), Some(victim.as_str()));
            fed.process_pending();
            assert!(fed.rejoin(&victim));
            let restored = fed.shard_map();
            assert_eq!(restored.epoch, 2);
            assert_eq!(restored.assign_id(probe), Some(victim.as_str()));
        }
        for (topic, secs) in topics.iter().zip(acked.iter_mut()) {
            let reading = SensorReading::new(sec as i64, Timestamp::from_secs(sec));
            if fed.publish_readings(topic.clone(), &[reading]).is_ok() {
                secs.push(sec);
            }
        }
        let q = rt.query_sensors(probe, Timestamp::ZERO, Timestamp::MAX);
        assert!(q.envelope.accounted(), "sec {sec}: {:?}", q.envelope);
        let down = usize::from((kill_at..rejoin_at).contains(&sec));
        assert_eq!(q.envelope.shards_down, down, "sec {sec}: {:?}", q.envelope);
    }
    fed.process_pending();
    // Past the 4 s caches: every answer below stitches cache + storage.
    fed.tick(Timestamp::from_secs(45));

    assert!(
        acked[0].len() < 30,
        "the outage refused no publish: {acked:?}"
    );
    for (topic, secs) in topics.iter().zip(&acked) {
        let got = rt.query_sensors(topic, Timestamp::ZERO, Timestamp::MAX);
        assert!(got.envelope.complete(), "{topic}: {:?}", got.envelope);
        assert_eq!(&secs_of(&got.readings), secs, "{topic}");
    }
    drop(rt);
    drop(fed);
    std::fs::remove_dir_all(&dir).ok();
}
