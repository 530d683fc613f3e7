//! Routing equals the filter predicate.
//!
//! A seeded sweep: each seed subscribes random literal / `+` / `#`
//! filters (overlapping, and some duplicated verbatim), then publishes
//! random topics over the same small alphabet, so most publishes match
//! several subscriptions and many match none. Some subscriptions are
//! dropped part-way. Every subscription must receive exactly the
//! publishes its `TopicFilter::matches` selects while it is live, once
//! each and in publish order, and the broker's counters must account
//! for every copy it offered.

use bytes::Bytes;
use dcdb_bus::{Broker, MessageBus, Subscription, TopicFilter};
use dcdb_common::topic::Topic;
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEGMENTS: [&str; 3] = ["a", "b", "ab"];

fn random_topic(rng: &mut StdRng) -> Topic {
    let depth = rng.gen_range(1..=4usize);
    let path: String = (0..depth)
        .map(|_| format!("/{}", SEGMENTS[rng.gen_range(0..SEGMENTS.len())]))
        .collect();
    Topic::parse(&path).unwrap()
}

fn random_filter(rng: &mut StdRng) -> TopicFilter {
    let depth = rng.gen_range(0..=4usize);
    let mut segs: Vec<&str> = (0..depth)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => "+",
            _ => SEGMENTS[rng.gen_range(0..SEGMENTS.len())],
        })
        .collect();
    if depth == 0 || rng.gen_range(0..3u32) == 0 {
        segs.push("#");
    }
    TopicFilter::parse(&format!("/{}", segs.join("/"))).unwrap()
}

struct Live {
    sub: Subscription,
    /// Publish indices this subscription must receive, in order.
    expected: Vec<u32>,
    /// Publish index at which it is dropped, if it is.
    drop_at: Option<usize>,
}

fn received(sub: &Subscription) -> Vec<u32> {
    sub.drain()
        .into_iter()
        .map(|m| u32::from_le_bytes(m.payload[..4].try_into().unwrap()))
        .collect()
}

#[test]
fn routing_equals_the_filter_predicate_over_seeded_sweeps() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let broker = Broker::new();
        let bus = broker.handle();
        let publishes = rng.gen_range(50..200usize);

        let mut filters: Vec<TopicFilter> = Vec::new();
        for _ in 0..rng.gen_range(1..=10usize) {
            // One in four repeats an earlier filter verbatim.
            let filter = match filters.len() {
                n if n > 0 && rng.gen_range(0..4u32) == 0 => filters[rng.gen_range(0..n)].clone(),
                _ => random_filter(&mut rng),
            };
            filters.push(filter);
        }
        let mut live: Vec<Live> = filters
            .iter()
            .map(|filter| Live {
                sub: bus.subscribe(filter.clone()),
                expected: Vec::new(),
                drop_at: (rng.gen_range(0..4u32) == 0).then(|| rng.gen_range(0..publishes)),
            })
            .collect();

        let mut copies = 0u64;
        for i in 0..publishes {
            // Subscriptions due to leave: check what they got, then drop.
            let (leaving, staying): (Vec<Live>, Vec<Live>) =
                live.into_iter().partition(|l| l.drop_at == Some(i));
            live = staying;
            for l in &leaving {
                assert_eq!(
                    received(&l.sub),
                    l.expected,
                    "seed {seed}: {} before its drop",
                    l.sub.filter()
                );
            }
            drop(leaving);

            let topic = random_topic(&mut rng);
            for l in live.iter_mut() {
                if l.sub.filter().matches(&topic) {
                    l.expected.push(i as u32);
                    copies += 1;
                }
            }
            bus.publish(topic, Bytes::copy_from_slice(&(i as u32).to_le_bytes()))
                .unwrap();
        }

        assert_eq!(broker.subscriber_count(), live.len(), "seed {seed}");
        for l in &live {
            assert_eq!(
                received(&l.sub),
                l.expected,
                "seed {seed}: filter {}",
                l.sub.filter()
            );
        }
        let stats = broker.stats();
        assert_eq!(stats.published, publishes as u64, "seed {seed}");
        // Per copy offered: delivered or dropped, and nothing dropped
        // under queues deeper than the run.
        assert_eq!(stats.delivered + stats.dropped, copies, "seed {seed}");
        assert_eq!(stats.dropped, 0, "seed {seed}");
    }
}
