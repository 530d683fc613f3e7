//! Delivery-resilience benchmark: pusher→agent delivery through broker
//! outages.
//!
//! Not a figure of the paper — §IV-A's push architecture assumes the
//! MQTT hop is reliable — but the property an operational-data pipeline
//! is judged by when it is not: a 30 s simulated (virtual-time) run
//! injects two broker outages on the pusher→agent path via the
//! deterministic [`ChaosBus`] and measures, for each spool overflow
//! policy and spool sizing:
//!
//! * **recovery time** — how long after each outage lifts until the
//!   pusher's store-and-forward spool is fully drained and the
//!   connection is back [`ConnectionState::Up`];
//! * **spool high-water** — the deepest the spool got;
//! * **end-to-end loss** — readings sampled but never ingested by the
//!   Collect Agent, split into spool evictions and final errors;
//! * the exact delivery accounting identity and the Collect Agent's
//!   staleness flag (raised during the outage, cleared after recovery).
//!
//! Everything is clocked on virtual time with a seeded chaos schedule,
//! so runs are bit-for-bit reproducible. Results land in
//! `bench-results/delivery_resilience.json`.

use dcdb_bus::{Broker, ChaosBus, ChaosConfig, MessageBus, OverflowPolicy};
use dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_common::sim::derive_seed;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_pusher::{
    ConnectionState, DeliveryConfig, Pusher, PusherConfig, ReconnectConfig, SpoolConfig,
    TesterMonitoringPlugin,
};
use dcdb_storage::StorageBackend;
use serde::Serialize;
use std::sync::Arc;

/// Workload shape.
#[derive(Debug, Clone)]
pub struct DeliveryResilienceConfig {
    /// Simulated run length, seconds.
    pub duration_s: u64,
    /// Sampling interval, milliseconds (also the virtual tick).
    pub interval_ms: u64,
    /// Pushers (each its own supervised connection + spool).
    pub pushers: usize,
    /// Tester sensors per pusher (one topic each).
    pub sensors_per_pusher: usize,
    /// The two injected outages, `(from_ms, until_ms)` into the run.
    pub outages_ms: [(u64, u64); 2],
    /// Spool overflow policies under test.
    pub policies: Vec<OverflowPolicy>,
    /// Per-topic spool depths under test, in readings. A depth covering
    /// the longest outage gives zero loss; a tighter one forces the
    /// policy to shed.
    pub spool_depths: Vec<usize>,
    /// Reconnect backoff base, milliseconds (jitter is disabled for
    /// reproducibility).
    pub reconnect_base_ms: u64,
    /// Chaos seed (drop probability is zero here; outages carry the
    /// fault load).
    pub seed: u64,
}

impl DeliveryResilienceConfig {
    /// Full run: the ISSUE's 30 s scenario with two outages.
    pub fn paper() -> DeliveryResilienceConfig {
        DeliveryResilienceConfig {
            duration_s: 30,
            interval_ms: 500,
            pushers: 4,
            sensors_per_pusher: 8,
            // Outage 1: 6s–10s (8 backlogged ticks); outage 2: 18s–23s.
            outages_ms: [(6_000, 10_000), (18_000, 23_000)],
            policies: vec![
                OverflowPolicy::DropOldest,
                OverflowPolicy::DropNewest,
                OverflowPolicy::Block,
            ],
            // 32 ticks cover the 10-tick worst outage plus the
            // reconnect-backoff lag after it lifts; 4 do not.
            spool_depths: vec![32, 4],
            reconnect_base_ms: 500,
            seed: 0x0DA5EED,
        }
    }

    /// Smoke run for CI: same shape, smaller fleet.
    pub fn quick() -> DeliveryResilienceConfig {
        DeliveryResilienceConfig {
            pushers: 2,
            sensors_per_pusher: 3,
            ..DeliveryResilienceConfig::paper()
        }
    }
}

/// One (policy, spool depth) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceCell {
    /// Spool overflow policy (`block` is normalized to `drop-newest`
    /// inside the spool and reported as configured here).
    pub policy: String,
    /// Per-topic spool depth, readings.
    pub spool_depth: usize,
    /// Readings sampled across all pushers.
    pub sampled: u64,
    /// Readings published onto the bus (fresh + spool-drained).
    pub published: u64,
    /// Readings the Collect Agent ingested end to end.
    pub received: u64,
    /// Readings evicted or refused at the spools.
    pub spool_dropped: u64,
    /// Readings lost outright (refused with no spool room — zero while
    /// the spool is enabled).
    pub final_errors: u64,
    /// Readings still spooled when the run ended.
    pub spooled_at_end: u64,
    /// Deepest any single pusher's spool got.
    pub spool_high_water: usize,
    /// Successful reconnects per pusher summed over the fleet.
    pub reconnects: u64,
    /// Time from each outage lifting until every spool drained and
    /// every connection was Up again, milliseconds.
    pub recovery_ms: [u64; 2],
    /// Most sources the agent flagged stale at once (raised during the
    /// outages).
    pub max_stale_sources: usize,
    /// Sources still stale at the end of the run (should be 0).
    pub stale_at_end: usize,
    /// End-to-end loss: sampled but never ingested.
    pub lost: u64,
    /// `lost / sampled`.
    pub loss_ratio: f64,
    /// The exact identity `sampled == published + spooled + dropped +
    /// final_errors` held on every pusher, and end-to-end receipt
    /// matched the published count.
    pub conserved: bool,
}

/// Full result grid.
#[derive(Debug, Clone, Serialize)]
pub struct DeliveryResilienceResult {
    /// Simulated run length, seconds.
    pub duration_s: u64,
    /// Virtual tick / sampling interval, milliseconds.
    pub interval_ms: u64,
    /// Fleet size.
    pub pushers: usize,
    /// Sensors (topics) per pusher.
    pub sensors_per_pusher: usize,
    /// The injected outage windows, milliseconds into the run.
    pub outages_ms: [(u64, u64); 2],
    /// Chaos seed.
    pub seed: u64,
    /// One entry per (policy, spool depth) pair.
    pub cells: Vec<ResilienceCell>,
}

fn run_cell(
    config: &DeliveryResilienceConfig,
    policy: OverflowPolicy,
    spool_depth: usize,
) -> ResilienceCell {
    let broker = Broker::new();
    let mut chaos_cfg = ChaosConfig::quiet(config.seed);
    chaos_cfg.outages = config
        .outages_ms
        .iter()
        .map(|&(from, until)| (from * 1_000_000, until * 1_000_000))
        .collect();
    let chaos = ChaosBus::new(broker.handle(), chaos_cfg);
    let bus: Arc<dyn MessageBus> = Arc::new(chaos.clone());

    let mut pushers = Vec::with_capacity(config.pushers);
    for p in 0..config.pushers {
        let mut pusher = Pusher::with_bus(
            PusherConfig {
                sampling_interval_ms: config.interval_ms,
                cache_secs: 60,
                publish: true,
                delivery: DeliveryConfig {
                    reconnect: ReconnectConfig {
                        base_ms: config.reconnect_base_ms,
                        jitter: 0.0,
                        seed: derive_seed(config.seed, p as u64),
                        ..ReconnectConfig::default()
                    },
                    spool: SpoolConfig {
                        per_topic_depth: spool_depth,
                        policy,
                    },
                },
                ..PusherConfig::default()
            },
            Some(Arc::clone(&bus)),
        );
        let prefix = Topic::parse(&format!("/bench/pusher{p:02}")).expect("prefix");
        pusher.add_monitoring_plugin(Box::new(
            TesterMonitoringPlugin::new(&prefix, config.sensors_per_pusher).expect("plugin"),
        ));
        pusher.refresh_sensor_tree();
        pushers.push(pusher);
    }

    let storage = Arc::new(StorageBackend::new());
    let agent = CollectAgent::new(
        CollectAgentConfig {
            expected_interval_ms: config.interval_ms,
            ..CollectAgentConfig::default()
        },
        &broker.handle(),
        storage,
    )
    .expect("collect agent");

    let total_ticks = config.duration_s * 1000 / config.interval_ms;
    let mut recovery_ms = [0u64; 2];
    let mut recovered = [false; 2];
    let mut spool_high_water = 0usize;
    let mut max_stale = 0usize;
    for tick in 1..=total_ticks {
        let now = Timestamp::from_millis(tick * config.interval_ms);
        let now_ns = now.as_nanos();
        chaos.advance(now);
        for pusher in &pushers {
            pusher.tick(now).expect("pusher tick");
            if let Some(m) = pusher.delivery_metrics() {
                spool_high_water = spool_high_water.max(m.spool.high_water);
            }
        }
        agent.tick(now);
        max_stale = max_stale.max(agent.delivery_health().iter().filter(|s| s.stale).count());
        // Recovery bookkeeping: after each outage window, the first
        // tick where every spool is empty and every connection Up.
        for (i, &(_, until_ms)) in config.outages_ms.iter().enumerate() {
            let until_ns = until_ms * 1_000_000;
            if now_ns <= until_ns || recovered[i] {
                continue;
            }
            let all_clear = pushers.iter().all(|p| {
                p.stats().spooled_pending == 0 && p.connection_state() == Some(ConnectionState::Up)
            });
            if all_clear {
                recovered[i] = true;
                recovery_ms[i] = (now_ns - until_ns) / 1_000_000;
            }
        }
    }

    let mut sampled = 0u64;
    let mut published = 0u64;
    let mut spool_dropped = 0u64;
    let mut final_errors = 0u64;
    let mut spooled_at_end = 0u64;
    let mut reconnects = 0u64;
    let mut conserved = true;
    for pusher in &pushers {
        let s = pusher.stats();
        sampled += s.sampled;
        published += s.published;
        spool_dropped += s.spool_dropped;
        final_errors += s.publish_errors_final;
        spooled_at_end += s.spooled_pending;
        reconnects += s.reconnects;
        conserved &= s.delivery_conserved();
    }
    let received = agent.stats().readings;
    // End-to-end: the broker delivers every published reading, so
    // receipt must match publication exactly.
    conserved &= received == published;
    let lost = sampled - received - spooled_at_end;
    let stale_at_end = agent.delivery_health().iter().filter(|s| s.stale).count();

    ResilienceCell {
        policy: policy.as_str().to_string(),
        spool_depth,
        sampled,
        published,
        received,
        spool_dropped,
        final_errors,
        spooled_at_end,
        spool_high_water,
        reconnects,
        recovery_ms,
        max_stale_sources: max_stale,
        stale_at_end,
        lost,
        loss_ratio: lost as f64 / sampled.max(1) as f64,
        conserved,
    }
}

/// Runs the full (policy × spool depth) grid.
pub fn run(config: &DeliveryResilienceConfig) -> DeliveryResilienceResult {
    let mut cells = Vec::new();
    for &policy in &config.policies {
        for &depth in &config.spool_depths {
            cells.push(run_cell(config, policy, depth));
        }
    }
    DeliveryResilienceResult {
        duration_s: config.duration_s,
        interval_ms: config.interval_ms,
        pushers: config.pushers,
        sensors_per_pusher: config.sensors_per_pusher,
        outages_ms: config.outages_ms,
        seed: config.seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capped CI run (virtual time, so wall-clock cheap): zero loss
    /// below spool capacity, losses only from tight spools, exact
    /// accounting everywhere, staleness raised and cleared.
    #[test]
    fn resilience_invariants_hold_on_quick_grid() {
        let config = DeliveryResilienceConfig::quick();
        let result = run(&config);
        assert_eq!(result.cells.len(), 6);
        for cell in &result.cells {
            assert!(
                cell.conserved,
                "{} depth {}: accounting leak: {cell:?}",
                cell.policy, cell.spool_depth
            );
            assert_eq!(
                cell.final_errors, 0,
                "spool enabled: nothing may be lost outright"
            );
            assert_eq!(cell.spooled_at_end, 0, "spools drain after recovery");
            assert!(
                cell.reconnects >= config.pushers as u64,
                "every pusher reconnected at least once: {cell:?}"
            );
            assert!(
                cell.recovery_ms.iter().all(|&ms| ms > 0),
                "{} depth {}: recovery after both outages: {cell:?}",
                cell.policy,
                cell.spool_depth
            );
            assert!(cell.max_stale_sources > 0, "outage raised staleness");
            assert_eq!(cell.stale_at_end, 0, "staleness cleared after recovery");
            if cell.spool_depth >= 32 {
                assert_eq!(
                    cell.lost, 0,
                    "{} depth {}: ample spool must be lossless: {cell:?}",
                    cell.policy, cell.spool_depth
                );
            } else {
                assert!(
                    cell.lost > 0 && cell.spool_dropped > 0,
                    "{} depth {}: tight spool must shed: {cell:?}",
                    cell.policy,
                    cell.spool_depth
                );
            }
        }
    }
}
