//! Integration tests for the resilient pusher→agent delivery layer:
//! supervised connections, store-and-forward spooling, and the
//! deterministic chaos schedules that exercise them.
//!
//! Everything runs on virtual time with seeded fault schedules, so
//! every failure here replays bit-for-bit.

use dcdb_wintermute::dcdb_bus::{decode_batch, Broker, ChaosBus, ChaosConfig, MessageBus};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::{ConnectionState, ReconnectConfig, Timestamp, Topic};
use dcdb_wintermute::dcdb_pusher::{
    DeliveryConfig, Pusher, PusherConfig, SpoolConfig, TesterMonitoringPlugin,
};
use dcdb_wintermute::dcdb_storage::DurableBackend;
use dcdb_wintermute::wintermute::prelude::PluginConfig;
use dcdb_wintermute::wintermute_plugins;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

/// A pusher with `sensors` tester topics routed through `chaos`,
/// spooling up to `depth` ticks, with deterministic reconnects.
fn chaos_pusher(chaos: &ChaosBus, sensors: usize, depth: usize, interval_ms: u64) -> Pusher {
    let mut pusher = Pusher::with_bus(
        PusherConfig {
            sampling_interval_ms: interval_ms,
            cache_secs: 60,
            publish: true,
            delivery: DeliveryConfig {
                reconnect: ReconnectConfig {
                    base_ms: interval_ms / 2,
                    jitter: 0.0,
                    ..ReconnectConfig::default()
                },
                spool: SpoolConfig { depth },
            },
            ..PusherConfig::default()
        },
        Some(Arc::new(chaos.clone()) as Arc<dyn MessageBus>),
    );
    pusher.add_monitoring_plugin(Box::new(
        TesterMonitoringPlugin::new(&t("/host/tester"), sensors).unwrap(),
    ));
    pusher.refresh_sensor_tree();
    pusher
}

/// An outage must not reorder anything: once the connection recovers,
/// the spool drains oldest-first ahead of fresh samples, so every topic
/// sees its tester counter strictly sequential with no duplicates.
#[test]
fn spool_drains_oldest_first_with_no_duplicates() {
    let broker = Broker::new();
    let chaos = ChaosBus::new(
        broker.handle(),
        ChaosConfig::quiet(7).with_outage_ms(3_200, 9_400),
    );
    let pusher = chaos_pusher(&chaos, 4, 64, 1000);
    let sub = broker.handle().subscribe_str("/host/#").unwrap();

    let ticks = 20u64;
    for s in 1..=ticks {
        let now = Timestamp::from_secs(s);
        chaos.advance(now);
        pusher.tick(now).unwrap();
    }
    let stats = pusher.stats();
    assert_eq!(stats.sampled, 4 * ticks);
    assert_eq!(stats.published, 4 * ticks, "everything drained: {stats:?}");
    assert!(stats.delivery_conserved(), "{stats:?}");

    // Per topic: values are exactly 1..=ticks in order — oldest first,
    // nothing lost, nothing duplicated, nothing reordered.
    let mut per_topic: HashMap<String, Vec<i64>> = HashMap::new();
    for msg in sub.drain() {
        let batch = dcdb_wintermute::dcdb_bus::decode_batch(msg.payload).unwrap();
        per_topic
            .entry(msg.topic.as_str().to_string())
            .or_default()
            .extend(batch.values);
    }
    assert_eq!(per_topic.len(), 4);
    let expect: Vec<i64> = (1..=ticks as i64).collect();
    for (topic, values) in &per_topic {
        assert_eq!(values, &expect, "{topic}");
    }
}

/// A Pusher's operator outputs leave through its supervised connection
/// with the samples: across the same outage, the aggregate over the
/// tester sensors reaches the broker once per tick, in order, and is
/// counted in the delivery identity.
#[test]
fn operator_outputs_survive_an_outage() {
    let broker = Broker::new();
    let chaos = ChaosBus::new(
        broker.handle(),
        ChaosConfig::quiet(7).with_outage_ms(3_200, 9_400),
    );
    let pusher = chaos_pusher(&chaos, 4, 64, 1000);
    wintermute_plugins::register_all(pusher.manager(), None);
    pusher
        .manager()
        .load(
            PluginConfig::online("avg", "aggregator", 1000).with_patterns(
                &["<bottomup, filter ^t[0-9]+$>value"],
                &["<bottomup-1>tester-avg"],
            ),
        )
        .unwrap();
    let sub = broker
        .handle()
        .subscribe_str("/host/tester/tester-avg")
        .unwrap();

    let ticks = 20u64;
    for s in 1..=ticks {
        let now = Timestamp::from_secs(s);
        chaos.advance(now);
        let report = pusher.tick(now).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }
    let stats = pusher.stats();
    assert_eq!((stats.sampled, stats.derived), (4 * ticks, ticks));
    assert_eq!(stats.published, stats.sampled + stats.derived, "{stats:?}");
    assert!(stats.delivery_conserved(), "{stats:?}");

    // One output per tick, oldest first: every tick's stamp once.
    let stamps: Vec<u64> = sub
        .drain()
        .into_iter()
        .flat_map(|m| decode_batch(m.payload).unwrap().ts)
        .collect();
    let want: Vec<u64> = (1..=ticks)
        .map(|s| Timestamp::from_secs(s).as_nanos())
        .collect();
    assert_eq!(stamps, want);
}

/// Property-style sweep: under arbitrary seeded outage schedules and
/// spool depths, the delivery accounting identity `sampled ==
/// published + spooled_pending + spool_dropped + final_errors` holds
/// exactly, and the broker receives precisely what was published.
#[test]
fn accounting_identity_holds_over_seeded_chaos_schedules() {
    let horizon_ticks = 60u64;
    let interval_ms = 500u64;
    for seed in 0..10u64 {
        let broker = Broker::new();
        let mut cfg = ChaosConfig::quiet(seed);
        cfg.outages = ChaosConfig::seeded_outages(
            seed,
            horizon_ticks * interval_ms * 1_000_000,
            3,
            1_500_000_000,
            5_000_000_000,
        );
        let chaos = ChaosBus::new(broker.handle(), cfg);
        // Depth varies with the seed: some runs shed, some don't.
        let depth = 2 + (seed as usize * 7) % 40;
        let pusher = chaos_pusher(&chaos, 3, depth, interval_ms);
        let sub = broker.handle().subscribe_str("/host/#").unwrap();

        for tick in 1..=horizon_ticks {
            let now = Timestamp::from_millis(tick * interval_ms);
            chaos.advance(now);
            pusher.tick(now).unwrap();
        }
        let stats = pusher.stats();
        assert!(
            stats.delivery_conserved(),
            "seed {seed} depth {depth}: identity broken: {stats:?}"
        );
        assert_eq!(stats.sampled, 3 * horizon_ticks);
        // End-to-end: the broker delivered every published reading.
        let received: u64 = sub
            .drain()
            .iter()
            .map(|m| decode_batch(m.payload.clone()).unwrap().len() as u64)
            .sum();
        assert_eq!(
            received, stats.published,
            "seed {seed}: bus receipt mismatch"
        );
    }
}

/// The Collect Agent flags a pusher stale while its data is stuck
/// behind an outage and clears the flag once the spool drains.
#[test]
fn staleness_raised_during_outage_and_cleared_after_recovery() {
    let broker = Broker::new();
    let chaos = ChaosBus::new(
        broker.handle(),
        ChaosConfig::quiet(21).with_outage_ms(4_500, 11_500),
    );
    let pusher = chaos_pusher(&chaos, 2, 64, 1000);
    let agent = Arc::new(
        CollectAgent::new(
            CollectAgentConfig {
                expected_interval_ms: 1000,
                ..CollectAgentConfig::default()
            },
            &broker.handle(),
            Arc::new(DurableBackend::in_memory()),
        )
        .unwrap(),
    );

    let mut was_stale_during_outage = false;
    for s in 1..=25u64 {
        let now = Timestamp::from_secs(s);
        chaos.advance(now);
        pusher.tick(now).unwrap();
        agent.tick(now);
        let stale = agent.delivery_health().iter().any(|h| h.stale);
        if (8..=11).contains(&s) {
            // Deep in the outage: no data for > 3 x 1000 ms.
            was_stale_during_outage |= stale;
        }
    }
    assert!(was_stale_during_outage, "outage never raised staleness");
    let health = agent.delivery_health();
    assert_eq!(health.len(), 1, "{health:?}");
    assert!(!health[0].stale, "flag must clear after the spool drains");
    assert_eq!(health[0].prefix, "/host/tester");

    // The /metrics JSON exposes the same section.
    let metrics = agent.metrics_json();
    let delivery = metrics.get("delivery").unwrap();
    assert_eq!(delivery.get("stale_sources").unwrap().as_u64(), Some(0));
    assert_eq!(delivery.get("stale_after_ms").unwrap().as_u64(), Some(3000));
}

/// Connection supervision: an outage degrades then downs the
/// connection, probes are paced by exponential backoff instead of
/// hammering the dead broker, and recovery is counted as a reconnect.
#[test]
fn connection_is_supervised_with_backoff_and_reconnect() {
    let broker = Broker::new();
    let chaos = ChaosBus::new(
        broker.handle(),
        ChaosConfig::quiet(3).with_outage_ms(2_500, 14_500),
    );
    let pusher = chaos_pusher(&chaos, 1, 64, 1000);

    let mut saw_down = false;
    // The first tick starts the supervisor's clock: tick from t=0.
    for s in 0..=25u64 {
        let now = Timestamp::from_secs(s);
        chaos.advance(now);
        pusher.tick(now).unwrap();
        saw_down |= pusher.connection_state() == Some(ConnectionState::Down);
    }
    assert!(saw_down, "a 12 s outage must down the connection");
    assert_eq!(pusher.connection_state(), Some(ConnectionState::Up));

    let m = pusher.delivery_metrics().unwrap();
    assert_eq!(m.reconnects, 1);
    assert!(m.failed_probes >= 1, "{m:?}");
    assert_eq!(m.consecutive_failures, 0);
    // Backoff paced the probes: the chaos layer saw far fewer refused
    // attempts than the 12 outage ticks x 1 topic would produce
    // unsupervised.
    let refused = chaos.metrics().refused_total();
    assert!(
        refused < 12,
        "probes were not paced: {refused} refusals, {m:?}"
    );
    // Time-in-state accounting covers the whole observed window.
    let total_ms: u64 = m.time_in_state_ms.iter().sum();
    assert_eq!(total_ms, 25_000, "clocked from t=0 to the last tick: {m:?}");
}

/// Graceful degradation: with the bus hard-partitioned for the whole
/// run and a bounded spool, sampling and the local cache keep working,
/// the oldest ticks are shed, and the identity still holds.
#[test]
fn local_cache_keeps_working_while_partitioned() {
    let broker = Broker::new();
    let chaos = ChaosBus::new(broker.handle(), ChaosConfig::quiet(5));
    chaos.partition("/host");
    let pusher = chaos_pusher(&chaos, 2, 8, 1000);

    for s in 1..=30u64 {
        let now = Timestamp::from_secs(s);
        chaos.advance(now);
        pusher.tick(now).unwrap();
    }
    let stats = pusher.stats();
    assert_eq!(stats.sampled, 60);
    assert_eq!(stats.published, 0);
    assert_eq!(stats.spooled_pending, 2 * 8, "spool pinned at capacity");
    assert_eq!(stats.spool_dropped, 60 - 16);
    assert!(stats.delivery_conserved(), "{stats:?}");
    // The local cache still serves the newest reading.
    let got = pusher.query_engine().query(
        &t("/host/tester/t000/value"),
        dcdb_wintermute::wintermute::prelude::QueryMode::Latest,
    );
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].value, 30);
}

/// Shared simulator state across pushers (sanity that the delivery
/// layer composes with the production plugin set path used by
/// wintermute-sim).
#[test]
fn fleet_of_pushers_shares_one_chaos_bus() {
    let broker = Broker::new();
    let chaos = ChaosBus::new(
        broker.handle(),
        ChaosConfig::quiet(9).with_outage_ms(2_200, 5_800),
    );
    let bus: Arc<dyn MessageBus> = Arc::new(chaos.clone());
    let sim = Arc::new(Mutex::new(
        dcdb_wintermute::sim_cluster::ClusterSimulator::new(
            dcdb_wintermute::sim_cluster::ClusterConfig::small_manual(13),
        ),
    ));
    let mut pushers = Vec::new();
    for node in 0..3usize {
        let mut pusher = Pusher::with_bus(
            PusherConfig {
                sampling_interval_ms: 1000,
                cache_secs: 60,
                publish: true,
                delivery: DeliveryConfig {
                    reconnect: ReconnectConfig {
                        base_ms: 500,
                        jitter: 0.0,
                        ..ReconnectConfig::default()
                    },
                    spool: SpoolConfig { depth: 32 },
                },
                ..PusherConfig::default()
            },
            Some(Arc::clone(&bus)),
        );
        pusher.add_monitoring_plugin(Box::new(
            dcdb_wintermute::dcdb_pusher::SimMonitoringPlugin::new(Arc::clone(&sim), node),
        ));
        pusher.refresh_sensor_tree();
        pushers.push(pusher);
    }
    let agent = CollectAgent::new(
        CollectAgentConfig::default(),
        &broker.handle(),
        Arc::new(DurableBackend::in_memory()),
    )
    .unwrap();

    for s in 1..=12u64 {
        let now = Timestamp::from_secs(s);
        chaos.advance(now);
        for pusher in &pushers {
            pusher.tick(now).unwrap();
        }
        agent.tick(now);
    }
    let mut sampled = 0;
    let mut published = 0;
    for pusher in &pushers {
        let s = pusher.stats();
        assert!(s.delivery_conserved(), "{s:?}");
        assert_eq!(s.spool_dropped, 0);
        assert_eq!(s.spooled_pending, 0);
        sampled += s.sampled;
        published += s.published;
    }
    assert_eq!(sampled, published, "outage fully absorbed by the spools");
    assert_eq!(agent.stats().readings, published);
    // Every node is a distinct healthy source.
    assert_eq!(agent.delivery_health().len(), 3);
}
