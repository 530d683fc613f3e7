//! Sustained-overload integration tests for the bounded bus.
//!
//! The broker is QoS 0: under overload it may shed messages, but the
//! shedding must be bounded (queue depth never exceeds the configured
//! capacity), policy-driven, and fully accounted (`published ==
//! delivered + dropped`). These tests drive the broker under real
//! threads — publishers routing into subscriber queues that consumer
//! threads drain — not the queue in isolation.

use dcdb_bus::{
    decode_batch, Broker, BusConfig, MessageBus, OverflowPolicy, SubscribeOptions, TopicFilter,
};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn topic(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn filter(s: &str) -> TopicFilter {
    TopicFilter::parse(s).unwrap()
}

fn reading(seq: u64) -> SensorReading {
    SensorReading {
        value: seq as i64,
        ts: Timestamp::from_micros(seq + 1),
    }
}

/// A deliberately slow consumer under sustained overload never sees its
/// queue grow past the configured bound, for any overflow policy; what
/// it does see is in publication order, every message is accounted for
/// and the policy really sheds. The publisher is unpaced, so the
/// overload is whatever the consumer's 20 µs a message makes it — far
/// past the 16× at which a bounded bus must shed.
#[test]
fn bounded_subscription_never_exceeds_depth_under_overload() {
    for policy in [OverflowPolicy::DropOldest, OverflowPolicy::DropNewest] {
        let depth = 64usize;
        let total = 10_000u64;
        let broker = Broker::with_config(BusConfig {
            sub_depth: depth,
            sub_policy: policy,
        });
        let sub = broker
            .handle()
            .subscribe_with(filter("/bench/#"), SubscribeOptions::default());

        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut consumed = 0u64;
                let mut last_ts = 0u64;
                loop {
                    match sub.try_recv() {
                        Some(msg) => {
                            let ts = decode_batch(msg.payload).unwrap().ts[0];
                            assert!(ts > last_ts, "{policy:?}: {last_ts} then {ts}");
                            last_ts = ts;
                            consumed += 1;
                            // Slower than the publisher: force overload.
                            std::thread::sleep(Duration::from_micros(20));
                        }
                        None if stop.load(Ordering::Acquire) && sub.queued() == 0 => {
                            return (sub, consumed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            })
        };

        let handle = broker.handle();
        let t = topic("/bench/node00/power");
        for seq in 0..total {
            handle.publish_readings(t.clone(), &[reading(seq)]).unwrap();
        }
        stop.store(true, Ordering::Release);
        let (sub, consumed) = consumer.join().unwrap();

        let m = sub.metrics();
        assert!(
            m.high_water <= depth,
            "{policy:?}: high-water {} exceeded configured depth {depth}",
            m.high_water
        );
        assert!(
            m.conserved(),
            "{policy:?}: queue counters not conserved: {m:?}"
        );
        let stats = broker.stats();
        assert_eq!(stats.published, total, "{policy:?}");
        assert_eq!(stats.published, stats.delivered + stats.dropped);
        assert_eq!(consumed + m.dropped_total(), total, "{policy:?}: {m:?}");
        assert!(m.dropped_total() > 0, "{policy:?}: overload shed nothing");
    }
}

/// With `DropOldest`, the messages that survive overload are the
/// freshest ones, and they arrive in publication (timestamp) order.
#[test]
fn drop_oldest_survivors_preserve_timestamp_order() {
    let broker = Broker::with_config(BusConfig {
        sub_depth: 32,
        sub_policy: OverflowPolicy::DropOldest,
    });
    let sub = broker
        .handle()
        .subscribe_with(filter("/bench/#"), SubscribeOptions::default());

    let t = topic("/bench/node00/power");
    let total = 5_000u64;
    for seq in 0..total {
        broker
            .handle()
            .publish_readings(t.clone(), &[reading(seq)])
            .unwrap();
    }

    let mut timestamps = Vec::new();
    for msg in sub.drain() {
        timestamps.extend(decode_batch(msg.payload).unwrap().ts);
    }
    assert!(!timestamps.is_empty(), "no survivors after overload");
    assert!(
        timestamps.len() <= 32,
        "more survivors than the queue bound"
    );
    assert!(
        timestamps.windows(2).all(|w| w[0] < w[1]),
        "survivors out of order: {timestamps:?}"
    );
    // Survivors are the freshest data: the last published reading is
    // among them.
    assert_eq!(
        *timestamps.last().unwrap(),
        Timestamp::from_micros(total).as_nanos(),
        "freshest reading lost"
    );
}

/// Every published message is accounted as delivered or dropped for the
/// shedding policies, even with multiple subscribers on different
/// filters and nobody consuming.
#[test]
fn published_equals_delivered_plus_dropped_for_shedding_policies() {
    for policy in [OverflowPolicy::DropOldest, OverflowPolicy::DropNewest] {
        let broker = Broker::with_config(BusConfig {
            sub_depth: 16,
            sub_policy: policy,
        });
        let wide = broker
            .handle()
            .subscribe_with(filter("/#"), SubscribeOptions::default().label("wide"));
        let narrow = broker.handle().subscribe_with(
            filter("/bench/+/power"),
            SubscribeOptions::default().label("narrow"),
        );

        let total = 3_000u64;
        for seq in 0..total {
            let t = topic(if seq % 2 == 0 {
                "/bench/node00/power"
            } else {
                "/bench/node00/temp"
            });
            broker
                .handle()
                .publish_readings(t, &[reading(seq)])
                .unwrap();
        }

        let stats = broker.stats();
        assert_eq!(stats.published, total, "{policy:?}");
        // Each message matched `wide`; every second one also matched
        // `narrow` — three copies per two messages.
        let copies = total + total / 2;
        assert_eq!(
            stats.delivered + stats.dropped,
            copies,
            "{policy:?}: accounting leak (delivered {} + dropped {} != copies {copies})",
            stats.delivered,
            stats.dropped
        );
        // The bounded queues really did shed (the test is meaningless
        // if nothing overflowed)...
        assert!(
            stats.dropped > 0,
            "{policy:?}: no overload reached the queues"
        );
        // ...and what remains queued matches what was never dropped.
        assert_eq!(
            wide.queued() as u64 + narrow.queued() as u64,
            stats.delivered,
            "{policy:?}"
        );
        for sm in [wide.metrics(), narrow.metrics()] {
            assert!(sm.conserved(), "{policy:?}: {sm:?}");
        }
    }
}

/// The one routing path under real threads: four publishers route
/// concurrently into one consumer's queue, for every overflow policy,
/// while a second subscriber dies mid-run.
#[test]
fn concurrent_publishers_keep_order_and_accounting_while_a_subscriber_dies() {
    const PUBLISHERS: u64 = 4;
    const PER_PUBLISHER: u64 = 2_000;
    const VICTIM_LIFETIME: u64 = 32;
    for policy in [OverflowPolicy::DropOldest, OverflowPolicy::DropNewest] {
        let broker = Broker::with_config(BusConfig {
            sub_depth: 64,
            sub_policy: policy,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let survivor = {
            let sub = broker.handle().subscribe(filter("/#"));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_seq: HashMap<String, i64> = HashMap::new();
                let mut consumed = 0u64;
                loop {
                    match sub.try_recv() {
                        Some(msg) => {
                            let seq = decode_batch(msg.payload).unwrap().values[0];
                            let last = last_seq.entry(msg.topic.as_str().to_string()).or_insert(-1);
                            assert!(
                                seq > *last,
                                "{policy:?}: {} went {last} -> {seq}",
                                msg.topic
                            );
                            *last = seq;
                            consumed += 1;
                        }
                        None if stop.load(Ordering::Acquire) && sub.queued() == 0 => {
                            return (sub, consumed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            })
        };
        // Consumes less than one queue's worth (so it cannot starve),
        // then goes away with publishers mid-push.
        let victim = {
            let sub = broker.handle().subscribe(filter("/#"));
            std::thread::spawn(move || {
                let mut consumed = 0;
                while consumed < VICTIM_LIFETIME {
                    match sub.try_recv() {
                        Some(_) => consumed += 1,
                        None => std::thread::yield_now(),
                    }
                }
            })
        };
        let publishers: Vec<_> = (0..PUBLISHERS)
            .map(|p| {
                let handle = broker.handle();
                std::thread::spawn(move || {
                    let t = topic(&format!("/p{p}/power"));
                    for seq in 0..PER_PUBLISHER {
                        handle.publish_readings(t.clone(), &[reading(seq)]).unwrap();
                    }
                })
            })
            .collect();
        for h in publishers {
            h.join().unwrap();
        }
        victim.join().unwrap();
        stop.store(true, Ordering::Release);
        let (sub, consumed) = survivor.join().unwrap();

        // Every message reached the survivor's queue and is accounted
        // there as consumed or dropped by policy.
        let published = PUBLISHERS * PER_PUBLISHER;
        let stats = broker.stats();
        let m = sub.metrics();
        assert_eq!(stats.published, published, "{policy:?}");
        assert_eq!(m.offered, published, "{policy:?}: {m:?}");
        assert_eq!(consumed + m.dropped_total(), published, "{policy:?}: {m:?}");
        assert!(m.high_water <= 64, "{policy:?}: {m:?}");
        // The rest of the bus-level copies are the victim's: at least
        // what it consumed, at most one per message.
        let victim_copies = stats.delivered + stats.dropped - published;
        assert!(
            (VICTIM_LIFETIME..=published).contains(&victim_copies),
            "{policy:?}: {stats:?}"
        );
        // The victim left both indexes: one more publish makes exactly
        // one copy.
        assert_eq!(broker.subscriber_count(), 1, "{policy:?}");
        broker
            .handle()
            .publish_readings(topic("/p0/power"), &[reading(PER_PUBLISHER)])
            .unwrap();
        let after = broker.stats();
        assert_eq!(
            after.delivered + after.dropped,
            stats.delivered + stats.dropped + 1,
            "{policy:?}"
        );
    }
}
