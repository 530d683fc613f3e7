//! Sustained-overload integration tests for the bounded bus.
//!
//! The broker is QoS 0: under overload it may shed messages, but the
//! shedding must be bounded (queue depth never exceeds the configured
//! capacity), policy-driven, and fully accounted (`published ==
//! delivered + dropped` once the router settles). These tests drive the
//! full async broker — publisher, router thread, consumer thread — not
//! the queue in isolation.

use dcdb_bus::{
    decode_batch, Broker, BusConfig, MessageBus, OverflowPolicy, SubscribeOptions, TopicFilter,
};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
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
/// queue grow past the configured bound, for any overflow policy.
#[test]
fn bounded_subscription_never_exceeds_depth_under_overload() {
    for policy in [
        OverflowPolicy::DropOldest,
        OverflowPolicy::DropNewest,
        OverflowPolicy::Block,
    ] {
        let depth = 64usize;
        let broker = Broker::with_config(BusConfig {
            router_depth: 256,
            router_policy: policy,
            sub_depth: depth,
            sub_policy: policy,
        });
        let sub = broker.handle().subscribe_with(
            filter("/bench/#"),
            SubscribeOptions::default().depth(depth).policy(policy),
        );

        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                loop {
                    match sub.recv_timeout(Duration::from_millis(1)) {
                        // Slower than the publisher: force overload.
                        Ok(Some(_)) => std::thread::sleep(Duration::from_micros(20)),
                        Ok(None) => {
                            if stop.load(Ordering::Acquire) && sub.queued() == 0 {
                                return sub;
                            }
                        }
                        Err(_) => return sub,
                    }
                }
            })
        };

        let handle = broker.handle();
        let t = topic("/bench/node00/power");
        for seq in 0..10_000u64 {
            handle.publish_readings(t.clone(), &[reading(seq)]).unwrap();
        }
        broker.flush();
        stop.store(true, Ordering::Release);
        let sub = consumer.join().unwrap();

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
    }
}

/// With `DropOldest`, the messages that survive overload are the
/// freshest ones, and they arrive in publication (timestamp) order.
#[test]
fn drop_oldest_survivors_preserve_timestamp_order() {
    let broker = Broker::with_config(BusConfig {
        sub_depth: 32,
        sub_policy: OverflowPolicy::DropOldest,
        ..BusConfig::default()
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
    broker.flush();

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
/// shedding policies, even with multiple subscribers at different
/// depths and nobody consuming.
#[test]
fn published_equals_delivered_plus_dropped_for_shedding_policies() {
    for policy in [OverflowPolicy::DropOldest, OverflowPolicy::DropNewest] {
        let broker = Broker::with_config(BusConfig {
            router_depth: 1024,
            // Keep the router lossless here so per-subscriber
            // accounting is exercised in isolation; router losses are
            // covered by the broker's own flush-under-drops test.
            router_policy: OverflowPolicy::Block,
            sub_depth: 16,
            sub_policy: policy,
        });
        let wide = broker
            .handle()
            .subscribe_with(filter("/#"), SubscribeOptions::default().label("wide"));
        let narrow = broker.handle().subscribe_with(
            filter("/bench/+/power"),
            SubscribeOptions::default().depth(4).label("narrow"),
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
        broker.flush();

        let stats = broker.stats();
        assert_eq!(stats.published, total, "{policy:?}");
        assert_eq!(
            stats.router_dropped, 0,
            "{policy:?}: lossless router dropped"
        );
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

/// `Block` end to end is lossless: with consumers draining, every
/// published copy is delivered and nothing is dropped — the publisher
/// is paced instead.
#[test]
fn block_policy_is_lossless_end_to_end() {
    let broker = Broker::with_config(BusConfig {
        router_depth: 64,
        router_policy: OverflowPolicy::Block,
        sub_depth: 8,
        sub_policy: OverflowPolicy::Block,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let mut consumers = Vec::new();
    for f in ["/#", "/bench/+/power"] {
        let sub = broker
            .handle()
            .subscribe_with(filter(f), SubscribeOptions::default().label(f));
        let stop = Arc::clone(&stop);
        consumers.push(std::thread::spawn(move || {
            let mut consumed = 0u64;
            loop {
                match sub.recv_timeout(Duration::from_millis(1)) {
                    Ok(Some(_)) => consumed += 1,
                    Ok(None) => {
                        if stop.load(Ordering::Acquire) && sub.queued() == 0 {
                            return consumed;
                        }
                    }
                    Err(_) => return consumed,
                }
            }
        }));
    }

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
    broker.flush();
    stop.store(true, Ordering::Release);
    let consumed: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();

    let stats = broker.stats();
    let copies = total + total / 2;
    assert_eq!(stats.published, total);
    assert_eq!(stats.dropped, 0, "Block policy must not drop");
    assert_eq!(stats.router_dropped, 0);
    assert_eq!(stats.delivered, copies);
    assert_eq!(consumed, copies);
}
