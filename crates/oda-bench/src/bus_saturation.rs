//! Bus saturation benchmark: bounded memory under sustained overload.
//!
//! Not a figure of the paper — §V argues the MQTT push architecture
//! scales by *never letting consumers apply backpressure to samplers* —
//! but the property every production broker is judged by: when a fast
//! publisher outruns a slow subscriber by 1×/4×/16×, queue depth must
//! stay at the configured bound (bounded memory), losses must follow
//! the configured [`OverflowPolicy`], and every published message must
//! be accounted as delivered or dropped.
//!
//! The harness drives the real [`Broker`] under two threads: the
//! publisher routes into the one bound the bus has, the subscriber
//! queue, and the consumer drains a fixed number of messages per tick;
//! the publisher offers `factor` times that volume. For the shedding
//! policies the surplus is dropped at the bounded queue; for `Block`
//! the publisher is paced to the consumer's rate and nothing is lost.
//!
//! Results land in `bench-results/bus_saturation.json`.

use dcdb_bus::{
    decode_batch, Broker, BusConfig, MessageBus, OverflowPolicy, SubscribeOptions, TopicFilter,
};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload shape.
#[derive(Debug, Clone)]
pub struct BusSaturationConfig {
    /// Subscriber queue bound.
    pub bound: usize,
    /// Messages the consumer drains per tick (its nominal capacity).
    pub drain_per_tick: usize,
    /// Ticks the publisher runs for.
    pub ticks: usize,
    /// Tick length, microseconds.
    pub tick_us: u64,
    /// Overload factors: the publisher offers `factor * drain_per_tick`
    /// messages per tick.
    pub factors: Vec<u64>,
    /// Overflow policies under test.
    pub policies: Vec<OverflowPolicy>,
}

impl BusSaturationConfig {
    /// Full run.
    pub fn paper() -> BusSaturationConfig {
        BusSaturationConfig {
            bound: 1024,
            drain_per_tick: 200,
            ticks: 200,
            tick_us: 1000,
            factors: vec![1, 4, 16],
            policies: vec![
                OverflowPolicy::DropOldest,
                OverflowPolicy::DropNewest,
                OverflowPolicy::Block,
            ],
        }
    }

    /// Smoke run for CI.
    pub fn quick() -> BusSaturationConfig {
        BusSaturationConfig {
            bound: 128,
            drain_per_tick: 50,
            ticks: 40,
            tick_us: 500,
            factors: vec![1, 4, 16],
            policies: vec![
                OverflowPolicy::DropOldest,
                OverflowPolicy::DropNewest,
                OverflowPolicy::Block,
            ],
        }
    }
}

/// One (policy, overload factor) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct SaturationCell {
    /// Overflow policy (`block` / `drop-newest` / `drop-oldest`).
    pub policy: String,
    /// Publisher-to-consumer overload ratio.
    pub factor: u64,
    /// Messages published.
    pub published: u64,
    /// Copies that reached the subscriber queue and were consumed.
    pub delivered: u64,
    /// Messages the consumer actually decoded.
    pub consumed: u64,
    /// Copies shed at the subscriber queue.
    pub dropped: u64,
    /// Deepest the subscriber queue ever got.
    pub high_water: usize,
    /// The high-water mark stayed at or below the configured bound.
    pub bound_respected: bool,
    /// `published == delivered + dropped` held.
    pub conserved: bool,
    /// The consumed stream was in publication (timestamp) order.
    pub ordered: bool,
    /// Fraction of published messages that were consumed.
    pub delivery_ratio: f64,
    /// Fraction of published messages lost.
    pub drop_ratio: f64,
    /// Wall-clock time for the cell, milliseconds.
    pub elapsed_ms: f64,
}

/// Full result: the grid of cells plus the workload shape.
#[derive(Debug, Clone, Serialize)]
pub struct BusSaturationResult {
    /// Subscriber queue bound.
    pub bound: usize,
    /// Consumer capacity, messages per tick.
    pub drain_per_tick: usize,
    /// Publisher ticks per cell.
    pub ticks: usize,
    /// Tick length, microseconds.
    pub tick_us: u64,
    /// One entry per (policy, factor) pair.
    pub cells: Vec<SaturationCell>,
}

fn reading(seq: u64) -> SensorReading {
    SensorReading {
        value: seq as i64,
        ts: Timestamp::from_micros(seq + 1),
    }
}

fn run_cell(config: &BusSaturationConfig, policy: OverflowPolicy, factor: u64) -> SaturationCell {
    let broker = Broker::with_config(BusConfig {
        sub_depth: config.bound,
        sub_policy: policy,
    });
    let sub = broker.handle().subscribe_with(
        TopicFilter::parse("/bench/#").expect("filter"),
        SubscribeOptions::default().label("slow-consumer"),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let tick = Duration::from_micros(config.tick_us);
    let drain_per_tick = config.drain_per_tick;
    let consumer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut consumed = 0u64;
            let mut last_ts = 0u64;
            let mut ordered = true;
            loop {
                for _ in 0..drain_per_tick {
                    match sub.try_recv() {
                        Ok(Some(msg)) => {
                            for ts in decode_batch(msg.payload).expect("decode").ts {
                                if ts <= last_ts {
                                    ordered = false;
                                }
                                last_ts = ts;
                            }
                            consumed += 1;
                        }
                        Ok(None) => break,
                        Err(_) => return (sub, consumed, ordered),
                    }
                }
                if stop.load(Ordering::Acquire) && sub.queued() == 0 {
                    return (sub, consumed, ordered);
                }
                std::thread::sleep(tick);
            }
        })
    };

    let topic = Topic::parse("/bench/node00/power").expect("topic");
    let handle = broker.handle();
    let start = Instant::now();
    let mut seq = 0u64;
    for _ in 0..config.ticks {
        for _ in 0..(config.drain_per_tick as u64 * factor) {
            handle
                .publish_readings(topic.clone(), &[reading(seq)])
                .expect("publish");
            seq += 1;
        }
        std::thread::sleep(tick);
    }
    stop.store(true, Ordering::Release);
    let (sub, consumed, ordered) = consumer.join().expect("consumer");
    let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;

    let stats = broker.stats();
    let sub_m = sub.metrics();
    SaturationCell {
        policy: policy.as_str().to_string(),
        factor,
        published: stats.published,
        delivered: stats.delivered,
        consumed,
        dropped: stats.dropped,
        high_water: sub_m.high_water,
        bound_respected: sub_m.high_water <= config.bound,
        conserved: stats.published == stats.delivered + stats.dropped && sub_m.conserved(),
        ordered,
        delivery_ratio: consumed as f64 / stats.published.max(1) as f64,
        drop_ratio: stats.dropped as f64 / stats.published.max(1) as f64,
        elapsed_ms,
    }
}

/// Runs the full (policy × factor) grid.
pub fn run(config: &BusSaturationConfig) -> BusSaturationResult {
    let mut cells = Vec::new();
    for &policy in &config.policies {
        for &factor in &config.factors {
            cells.push(run_cell(config, policy, factor));
        }
    }
    BusSaturationResult {
        bound: config.bound,
        drain_per_tick: config.drain_per_tick,
        ticks: config.ticks,
        tick_us: config.tick_us,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capped CI run: bounded memory, conservation and ordering hold in
    /// every cell; the shedding policies really shed at 16× overload.
    #[test]
    fn saturation_invariants_hold_on_quick_grid() {
        let mut config = BusSaturationConfig::quick();
        config.ticks = 10; // keep the test well under a second
        let result = run(&config);
        assert_eq!(result.cells.len(), 9);
        for cell in &result.cells {
            assert!(
                cell.bound_respected,
                "{} x{}: queue exceeded bound: {cell:?}",
                cell.policy, cell.factor
            );
            assert!(
                cell.conserved,
                "{} x{}: accounting leak: {cell:?}",
                cell.policy, cell.factor
            );
            assert!(
                cell.ordered,
                "{} x{}: out-of-order delivery",
                cell.policy, cell.factor
            );
            if cell.policy == "block" {
                assert_eq!(cell.dropped, 0, "block policy must be lossless");
                assert_eq!(cell.consumed, cell.published);
            }
            if cell.policy != "block" && cell.factor >= 16 {
                assert!(
                    cell.dropped > 0,
                    "{} x{}: 16x overload produced no drops",
                    cell.policy,
                    cell.factor
                );
            }
        }
    }
}
