//! Property-based tests over the core data structures and invariants,
//! spanning crates:
//!
//! * the sensor cache's absolute reads agree with a naive reference;
//! * cache + storage stitching in the Query Engine loses nothing;
//! * the frame codec round-trips arbitrary batches;
//! * MQTT filter matching is consistent between the standalone matcher
//!   and the broker's routing;
//! * deciles are monotone and bounded for arbitrary inputs;
//! * topic normalization is idempotent;
//! * unit resolution binds only hierarchically-related, existing
//!   sensors.

use dcdb_wintermute::dcdb_bus::{decode_batch, encode_batch, Broker, MessageBus, TopicFilter};
use dcdb_wintermute::dcdb_common::{ReadingBatch, SensorCache, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_storage::DurableBackend;
use dcdb_wintermute::oda_ml::stats::deciles;
use dcdb_wintermute::wintermute::prelude::*;
use proptest::prelude::*;

/// Strictly increasing timestamps with arbitrary values.
fn reading_sequence(max_len: usize) -> impl Strategy<Value = Vec<SensorReading>> {
    prop::collection::vec((any::<i64>(), 1u64..1000), 0..max_len).prop_map(|pairs| {
        let mut ts = 0u64;
        pairs
            .into_iter()
            .map(|(v, gap)| {
                ts += gap;
                SensorReading::new(v, Timestamp(ts * 1_000_000))
            })
            .collect()
    })
}

/// Valid topic segments.
fn segment() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,6}".prop_map(|s| s)
}

fn topic_strategy() -> impl Strategy<Value = Topic> {
    prop::collection::vec(segment(), 1..5)
        .prop_map(|segs| Topic::parse(&format!("/{}", segs.join("/"))).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_absolute_view_matches_naive_filter(
        readings in reading_sequence(200),
        cap in 1usize..64,
        lo in 0u64..300_000_000,
        span in 0u64..300_000_000,
    ) {
        let cache = SensorCache::new(cap);
        for &r in &readings {
            cache.push(r);
        }
        let t0 = Timestamp(lo);
        let t1 = Timestamp(lo + span);
        let mut got: Vec<SensorReading> = Vec::new();
        cache.read_absolute(t0, t1, &mut got);
        // Reference: last `cap` readings, filtered by range.
        let kept: Vec<SensorReading> = readings
            .iter()
            .skip(readings.len().saturating_sub(cap))
            .copied()
            .filter(|r| r.ts >= t0 && r.ts <= t1)
            .collect();
        prop_assert_eq!(got, kept);
    }

    #[test]
    fn query_engine_stitching_is_lossless(
        readings in reading_sequence(300),
        cap in 2usize..32,
    ) {
        prop_assume!(!readings.is_empty());
        let storage = std::sync::Arc::new(DurableBackend::in_memory());
        let qe = QueryEngine::with_storage(cap, storage);
        let topic = Topic::parse("/p/s").unwrap();
        for &r in &readings {
            qe.insert(&topic, r);
        }
        let got = qe.query(
            &topic,
            QueryMode::Absolute { t0: Timestamp::ZERO, t1: Timestamp::MAX },
        );
        // Full history must come back exactly once, in order.
        prop_assert_eq!(got, readings);
    }

    #[test]
    fn frame_codec_round_trips(readings in reading_sequence(100)) {
        let batch = ReadingBatch::from_readings(&readings);
        let back = decode_batch(encode_batch(&batch)).unwrap();
        prop_assert_eq!(&back, &batch);
        prop_assert_eq!(back.to_readings(), readings);
    }

    #[test]
    fn broker_routing_agrees_with_filter_matching(
        topic in topic_strategy(),
        filter_segs in prop::collection::vec(
            prop_oneof![segment(), Just("+".to_string())], 1..4),
        multi_tail in any::<bool>(),
    ) {
        let mut fstr = format!("/{}", filter_segs.join("/"));
        if multi_tail {
            fstr.push_str("/#");
        }
        let filter = TopicFilter::parse(&fstr).unwrap();
        let expected = filter.matches(&topic);

        let broker = Broker::new();
        let bus = broker.handle();
        let sub = bus.subscribe(filter);
        bus.publish(topic.clone(), bytes::Bytes::new()).unwrap();
        let delivered = sub.try_recv().is_some();
        prop_assert_eq!(delivered, expected, "filter {} topic {}", fstr, topic);
    }

    #[test]
    fn deciles_monotone_and_bounded(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let d = deciles(&xs);
        for w in d.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((d[0] - lo).abs() < 1e-9);
        prop_assert!((d[10] - hi).abs() < 1e-9);
    }

    #[test]
    fn topic_parse_is_idempotent(topic in topic_strategy()) {
        let reparsed = Topic::parse(topic.as_str()).unwrap();
        prop_assert_eq!(&reparsed, &topic);
        // Depth equals segment count; name is the last segment.
        prop_assert_eq!(reparsed.depth(), topic.segments().count());
        prop_assert_eq!(reparsed.name(), topic.segments().last().unwrap());
    }

    #[test]
    fn resolution_binds_only_related_existing_sensors(
        racks in 1usize..4,
        nodes in 1usize..5,
    ) {
        let mut topics = Vec::new();
        for r in 0..racks {
            for n in 0..nodes {
                topics.push(Topic::parse(&format!("/r{r}/n{n}/power")).unwrap());
                topics.push(Topic::parse(&format!("/r{r}/n{n}/temp")).unwrap());
            }
        }
        let nav = SensorNavigator::build(topics.iter());
        let template = UnitTemplate::parse(
            &["<bottomup>power", "<bottomup>temp"],
            &["<bottomup>score"],
        ).unwrap();
        let resolution = resolve_units(&template, &nav).unwrap();
        prop_assert_eq!(resolution.units.len(), racks * nodes);
        for unit in &resolution.units {
            prop_assert_eq!(unit.inputs.len(), 2);
            for input in &unit.inputs {
                prop_assert!(nav.has_sensor(input));
                prop_assert!(
                    SensorNavigator::hierarchically_related(
                        &unit.name,
                        &input.parent().unwrap()
                    )
                );
            }
        }
    }

    #[test]
    fn cache_latest_is_max_timestamp(readings in reading_sequence(100)) {
        let cache = SensorCache::new(32);
        for &r in &readings {
            cache.push(r);
        }
        if let Some(latest) = cache.latest() {
            prop_assert_eq!(latest.ts, readings.last().unwrap().ts);
        } else {
            prop_assert!(readings.is_empty());
        }
    }
}
