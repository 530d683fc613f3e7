//! Byte identity of the `/sensors` and `/query` bodies.
//!
//! The data routes write their bodies once through `dcdb_rest::JsonWriter`.
//! The handlers they replaced built a `serde_json::Value` tree and
//! rendered that; those handlers live on here, verbatim, as the oracle:
//! for every seeded case, on the single-agent and the federated
//! surface, the written body must equal the tree-rendered one byte for
//! byte — key order, float form, `null`s, escapes and all.

use dcdb_wintermute::dcdb_bus::{MessageBus, TopicFilter};
use dcdb_wintermute::dcdb_collectagent::{agg_query_body, sensors_body, CollectAgent};
use dcdb_wintermute::dcdb_common::{Clock, SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_federation::router::FederatedAggQuery;
use dcdb_wintermute::dcdb_federation::{
    FederatedAgent, FederatedQuery, FederationConfig, QueryEnvelope, QueryRouter, RouterConfig,
};
use dcdb_wintermute::dcdb_rest::{Method, Request, Router};
use dcdb_wintermute::dcdb_storage::AggFrame;
use dcdb_wintermute::wintermute::prelude::*;
use serde_json::{json, Value};
use std::sync::Arc;

// ------------------------------------------------ the oracle (old handlers)

fn oracle_rows(readings: &[SensorReading]) -> Vec<Value> {
    readings
        .iter()
        .map(|r| json!({"value": r.value, "timestamp": r.ts.as_nanos()}))
        .collect()
}

fn oracle_point(func: AggFunc, frame: &AggFrame) -> Value {
    json!({
        "t": frame.bucket_ns,
        "value": func.apply(frame),
        "count": frame.count,
        "sum": frame.sum,
        "min": frame.min,
        "max": frame.max,
    })
}

fn oracle_series(topic: &Topic, func: AggFunc, series: &AggSeries) -> Value {
    json!({
        "sensor": topic.as_str(),
        "plan": json!({
            "tier_ns": series.plan.tier_ns,
            "buckets_from_tier": series.plan.buckets_from_tier,
            "buckets_from_raw": series.plan.buckets_from_raw,
        }),
        "points": series
            .frames
            .iter()
            .map(|f| oracle_point(func, f))
            .collect::<Vec<_>>(),
    })
}

fn oracle_sensors(readings: &[SensorReading]) -> String {
    Value::Array(oracle_rows(readings)).to_string()
}

fn oracle_sensors_federated(result: &FederatedQuery) -> String {
    json!({
        "meta": result.envelope.json(),
        "readings": oracle_rows(&result.readings),
    })
    .to_string()
}

fn oracle_query(func: AggFunc, step_ns: u64, series: &[(Topic, AggSeries)]) -> String {
    let series: Vec<Value> = series
        .iter()
        .map(|(topic, s)| oracle_series(topic, func, s))
        .collect();
    json!({
        "agg": func.as_str(),
        "step_ns": step_ns,
        "series": series,
    })
    .to_string()
}

fn oracle_query_federated(func: AggFunc, result: &FederatedAggQuery) -> String {
    let series: Vec<Value> = result
        .series
        .iter()
        .map(|(topic, s)| oracle_series(topic, func, s))
        .collect();
    json!({
        "meta": result.envelope.json(),
        "agg": func.as_str(),
        "step_ns": result.step_ns,
        "series": series,
    })
    .to_string()
}

// ------------------------------------------------------- seeded generators

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// 0, 1 or many.
    fn count(&mut self, many: u64) -> usize {
        match self.below(4) {
            0 => 0,
            1 => 1,
            _ => 2 + self.below(many) as usize,
        }
    }

    fn i64(&mut self) -> i64 {
        match self.below(8) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            3 => -1,
            4 => self.below(1000) as i64 - 500,
            // Magnitudes around the 1e15 float-format switch.
            5 => 999_999_999_999_990 + self.below(20) as i64,
            6 => -(999_999_999_999_990 + self.below(20) as i64),
            _ => self.next() as i64,
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(5) {
            0 => 0,
            1 => u64::MAX,
            2 => self.below(100),
            3 => 1_790_000_000_000_000_000 + self.below(1_000_000_000_000),
            _ => self.next(),
        }
    }

    fn readings(&mut self) -> Vec<SensorReading> {
        (0..self.count(30))
            .map(|_| SensorReading::new(self.i64(), Timestamp(self.u64())))
            .collect()
    }

    /// Topics with every character class the escape table treats
    /// differently (whitespace cannot occur in a topic).
    fn topic(&mut self) -> Topic {
        const SEGMENTS: [&str; 10] = [
            "rack00",
            "node\"q\"",
            "back\\slash",
            "ctl\u{1}\u{1f}",
            "del\u{7f}",
            "käse",
            "温度",
            "✓",
            "a\\\"b",
            "power",
        ];
        let raw: String = (0..1 + self.below(4))
            .map(|_| format!("/{}", SEGMENTS[self.below(10) as usize]))
            .collect();
        Topic::parse(&raw).unwrap()
    }

    fn frame(&mut self) -> AggFrame {
        let mut frame = AggFrame::seed(self.u64(), self.u64(), self.i64());
        frame.count = match self.below(4) {
            0 => 0, // avg of nothing: "value":null
            1 => 1,
            2 => 3, // non-integral avg
            _ => self.u64(),
        };
        frame.sum = self.i64();
        frame.min = self.i64();
        frame.max = self.i64();
        frame
    }

    fn series(&mut self) -> Vec<(Topic, AggSeries)> {
        (0..self.count(3))
            .map(|_| {
                let series = AggSeries {
                    step_ns: self.u64(),
                    frames: (0..self.count(12)).map(|_| self.frame()).collect(),
                    plan: AggPlan {
                        tier_ns: self.u64(),
                        buckets_from_tier: self.u64() as usize,
                        buckets_from_raw: self.u64() as usize,
                    },
                };
                (self.topic(), series)
            })
            .collect()
    }

    fn func(&mut self) -> AggFunc {
        [
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Sum,
            AggFunc::Count,
        ][self.below(5) as usize]
    }

    fn envelope(&mut self) -> QueryEnvelope {
        let (ok, timed_out, down) = (self.below(5), self.below(3), self.below(3));
        QueryEnvelope {
            epoch: self.u64(),
            shards_total: (ok + timed_out + down) as usize,
            shards_ok: ok as usize,
            shards_timed_out: timed_out as usize,
            shards_down: down as usize,
        }
    }
}

const CASES: usize = 1500;

#[test]
fn sensors_bodies_match_the_tree_renderer_on_both_surfaces() {
    let mut g = Gen(0x5EED_B0D1_2026_0928);
    for case in 0..CASES {
        let readings = g.readings();
        assert_eq!(
            sensors_body(None, &readings),
            oracle_sensors(&readings),
            "single-agent case {case}"
        );
        let result = FederatedQuery {
            envelope: g.envelope(),
            readings,
        };
        assert_eq!(
            result.body(),
            oracle_sensors_federated(&result),
            "federated case {case}"
        );
    }
}

#[test]
fn query_bodies_match_the_tree_renderer_on_both_surfaces() {
    let mut g = Gen(0x5EED_B0D2_2026_0928);
    let (mut nulls, mut fractions, mut wide) = (0, 0, 0);
    for case in 0..CASES {
        let (func, step_ns, series) = (g.func(), g.u64(), g.series());
        for frame in series.iter().flat_map(|(_, s)| &s.frames) {
            match func.apply(frame) {
                None => nulls += 1,
                Some(x) if x.fract() != 0.0 => fractions += 1,
                Some(x) if x.abs() >= 1e15 => wide += 1,
                Some(_) => {}
            }
        }
        assert_eq!(
            agg_query_body(None, func, step_ns, &series),
            oracle_query(func, step_ns, &series),
            "single-agent case {case}"
        );
        let result = FederatedAggQuery {
            envelope: g.envelope(),
            step_ns,
            series,
        };
        assert_eq!(
            result.body(func),
            oracle_query_federated(func, &result),
            "federated case {case}"
        );
    }
    // The generator reached every float form the renderer has.
    assert!(
        nulls > 100 && fractions > 100 && wide > 100,
        "{nulls} {fractions} {wide}"
    );
}

// ------------------------------------------------- through the real routes

fn get(router: &Router, path_and_query: &str) -> String {
    let resp = router.dispatch(Request::new(Method::Get, path_and_query));
    assert_eq!(resp.status.code(), 200, "{path_and_query}");
    resp.body_str().into_owned()
}

fn topic(node: usize) -> Topic {
    Topic::parse(&format!("/rack00/node{node:02}/power")).unwrap()
}

/// The planner's answers for `selector`, gathered the way the parent's
/// handler did: enumerate every topic, filter, sort.
fn enumerate_and_query(qe: &QueryEngine, selector: &str, step_ns: u64) -> Vec<(Topic, AggSeries)> {
    let filter = TopicFilter::parse(selector).unwrap();
    let mut topics: Vec<Topic> = qe
        .topics()
        .into_iter()
        .filter(|t| filter.matches(t))
        .collect();
    topics.sort();
    topics
        .into_iter()
        .map(|t| {
            let s = qe.query_agg(&t, Timestamp::ZERO, Timestamp::MAX, step_ns);
            (t, s)
        })
        .collect()
}

#[test]
fn single_agent_routes_serve_the_oracles_bytes() {
    let broker = dcdb_wintermute::dcdb_bus::Broker::new();
    let storage = Arc::new(dcdb_wintermute::dcdb_storage::DurableBackend::in_memory());
    let agent = Arc::new(CollectAgent::new(Default::default(), &broker.handle(), storage).unwrap());
    for node in 0..3 {
        for sec in 1..=40u64 {
            let r = SensorReading::new(node as i64 * 7 - sec as i64, Timestamp::from_secs(sec));
            broker.handle().publish_readings(topic(node), &[r]).unwrap();
        }
    }
    agent.process_pending();
    let mut router = Router::new();
    agent.mount_routes(&mut router);
    let qe = agent.query_engine();

    let readings = qe.query(
        &topic(1),
        QueryMode::Absolute {
            t0: Timestamp::from_secs(5),
            t1: Timestamp::from_secs(30),
        },
    );
    assert_eq!(readings.len(), 26);
    assert_eq!(
        get(&router, "/sensors/rack00/node01/power?from_s=5&to_s=30"),
        oracle_sensors(&readings)
    );
    assert_eq!(get(&router, "/sensors/rack00/nope/power"), "[]");

    for (selector, matched) in [
        ("/rack00/node01/power", 1), // exact: the lookup path
        ("/rack00/+/power", 3),
        ("/rack00/node09/power", 0), // exact, unknown
        ("/rack00/node01", 0),       // exact, an ancestor of known topics
    ] {
        let series = enumerate_and_query(qe, selector, 7_000_000_000);
        assert_eq!(series.len(), matched, "{selector}");
        let body = get(
            &router,
            &format!(
                "/query?agg=avg&step=7s&sensor={}",
                selector.replace('+', "%2B")
            ),
        );
        assert_eq!(
            body,
            oracle_query(AggFunc::Avg, 7_000_000_000, &series),
            "{selector}"
        );
        if matched == 0 {
            assert!(body.contains("\"series\":[]"), "{body}");
        }
    }
}

#[test]
fn federated_routes_serve_the_oracles_bytes() {
    let fed = Arc::new(
        FederatedAgent::new(
            FederationConfig {
                agents: 3,
                ..FederationConfig::default()
            },
            Clock::new(),
        )
        .unwrap(),
    );
    for node in 0..4 {
        for sec in 1..=30u64 {
            let r = SensorReading::new(sec as i64 * 3 + node as i64, Timestamp::from_secs(sec));
            fed.publish_readings(topic(node), &[r]).unwrap();
        }
    }
    fed.process_pending();
    let rt = Arc::new(QueryRouter::new(Arc::clone(&fed), RouterConfig::default()));
    let mut router = Router::new();
    rt.mount_routes(&mut router);

    let result = rt.query_sensors(&topic(2), Timestamp::from_secs(3), Timestamp::from_secs(12));
    assert_eq!(result.readings.len(), 10);
    assert_eq!(
        get(&router, "/sensors/rack00/node02/power?from_s=3&to_s=12"),
        oracle_sensors_federated(&result)
    );

    for (selector, matched) in [
        ("/rack00/node02/power", 1),
        ("/rack00/%23", 4),
        ("/rack00/node77/power", 0),
    ] {
        let req = Request::new(
            Method::Get,
            &format!("/query?sensor={selector}&agg=sum&step=4s"),
        );
        let params = dcdb_wintermute::dcdb_collectagent::parse_agg_query(&req).unwrap();
        let result = rt.query_agg(&params);
        assert_eq!(result.series.len(), matched, "{selector}");
        let body = router.dispatch(req).body_str().into_owned();
        assert_eq!(
            body,
            oracle_query_federated(AggFunc::Sum, &result),
            "{selector}"
        );
    }
}
