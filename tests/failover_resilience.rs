//! Seeded failover-resilience property: kill a replicated shard's
//! primary at a seed-chosen point mid-ingest, let detection promote the
//! standby (or the rejoin promote it first), rejoin the crashed node as
//! the new standby — and every acknowledged reading comes back from the
//! scatter-gather exactly once. 32 deterministic seeds, each driving
//! the shard count, the victim, and the kill/rejoin schedule through
//! splitmix64 lanes (`dcdb_common::sim::derive_seed`), so a failure
//! reproduces from one number.

use dcdb_wintermute::dcdb_bus::MessageBus;
use dcdb_wintermute::dcdb_common::sim::derive_seed;
use dcdb_wintermute::dcdb_common::{Clock, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_federation::{
    FederatedAgent, FederationConfig, QueryRouter, RouterConfig,
};
use std::sync::Arc;

const NODES: usize = 6;
const ROUNDS: u64 = 24;

fn topic_of(node: usize) -> Topic {
    Topic::parse(&format!("/rack00/node{node:02}/power")).unwrap()
}

/// One kill/promote/rejoin cycle, fully determined by `seed`.
fn scenario(seed: u64) {
    let agents = 2 + (derive_seed(seed, 0) % 3) as usize;
    let kill_at = 4 + derive_seed(seed, 1) % 10;
    let rejoin_at = kill_at + 3 + derive_seed(seed, 2) % 8;
    let victim_node = (derive_seed(seed, 3) % NODES as u64) as usize;

    let fed = Arc::new(
        FederatedAgent::new(
            FederationConfig {
                agents,
                replication_factor: 2,
                ..FederationConfig::default()
            },
            Clock::new(),
        )
        .unwrap(),
    );
    let router = QueryRouter::new(Arc::clone(&fed), RouterConfig::default());
    let victim = fed
        .shard_map()
        .assign_id(&topic_of(victim_node))
        .expect("assigned")
        .to_string();

    // Rounds are atomic publish→drain→pump units; the kill lands on a
    // round boundary, so "acked" always means "on an engine or on the
    // replication link the promotion drains".
    let mut acked: Vec<(usize, u64)> = Vec::new();
    for sec in 1..=ROUNDS {
        if sec == kill_at {
            assert!(fed.kill(&victim), "seed {seed:#x}: kill {victim}");
        }
        if sec == rejoin_at {
            assert!(fed.rejoin(&victim), "seed {seed:#x}: rejoin {victim}");
        }
        for node in 0..NODES {
            let reading = SensorReading::new(sec as i64, Timestamp::from_secs(sec));
            if fed.publish_readings(topic_of(node), &[reading]).is_ok() {
                acked.push((node, sec));
            }
        }
        fed.process_pending();
    }
    fed.tick(Timestamp::from_secs(ROUNDS + 1));

    let shard = fed.shard(&victim).expect("victim shard exists");
    assert!(shard.is_up(), "seed {seed:#x}: {victim} still down");
    assert!(
        shard.promotions() >= 1,
        "seed {seed:#x}: standby never promoted"
    );
    assert!(
        shard.standby_alive(),
        "seed {seed:#x}: rejoined node not standing by"
    );

    for node in 0..NODES {
        let q = router.query_sensors(&topic_of(node), Timestamp::ZERO, Timestamp::MAX);
        assert!(
            q.envelope.complete(),
            "seed {seed:#x} node {node}: {:?}",
            q.envelope
        );
        let got: Vec<u64> = q
            .readings
            .iter()
            .map(|r| r.ts.as_nanos() / 1_000_000_000)
            .collect();
        let expected: Vec<u64> = acked
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, sec)| *sec)
            .collect();
        assert_eq!(
            got, expected,
            "seed {seed:#x} node {node}: acked readings must return exactly once"
        );
    }
}

#[test]
fn kill_promote_rejoin_is_lossless_across_32_seeds() {
    for lane in 0..32u64 {
        scenario(derive_seed(0x0DA_F417, lane));
    }
}
