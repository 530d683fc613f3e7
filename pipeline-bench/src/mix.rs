//! The read mix: five request classes that separate cache hit from
//! miss and rollup tier from raw scan, each with its closed-form
//! expectation, plus the loopback client that times them.

use crate::oracle::{self, Agg, Ledger, Line};
use crate::stats::Rng;
use dcdb_rest::{http_request, Method};
use std::net::SocketAddr;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `/sensors`, the newest window: answered from the sensor cache.
    RawRecent,
    /// `/sensors`, a window in old history: sealed-block decode.
    RawCold,
    /// `/query` avg with a step a rollup tier divides: tier-served.
    AggTier,
    /// `/query` max with a 7 s step no tier divides: raw scan + fold.
    AggRaw,
    /// `/query` avg over a `+` pattern: filter + sixteen series.
    AggFanout,
}

pub const CLASSES: [Class; 5] = [
    Class::RawRecent,
    Class::RawCold,
    Class::AggTier,
    Class::AggRaw,
    Class::AggFanout,
];

impl Class {
    pub fn index(self) -> usize {
        CLASSES.iter().position(|c| *c == self).expect("listed")
    }
}

/// What the store holds when a request is generated: `nodes × sensors`
/// topics under `/rack00`, every one a [`Line`] sharing `first_k`,
/// `last_k` and `dt_ns`.
#[derive(Debug, Clone)]
pub struct Store {
    pub nodes: usize,
    pub sensors: usize,
    pub first_k: u64,
    /// The newest reading known to be ingested.
    pub last_k: u64,
    pub dt_ns: u64,
    /// Value offset between consecutive sensors (0: all lines equal, as
    /// the tester plugin produces them).
    pub v0_stride: i64,
    pub windows: Windows,
}

/// Range lengths of the classes, in whole seconds.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    pub recent_s: u64,
    pub cold_s: u64,
    /// `raw_cold` windows start within this share of the history.
    pub cold_zone: f64,
    pub tier_span_s: u64,
    pub raw_span_s: u64,
    pub fanout_step_s: u64,
}

const S: u64 = 1_000_000_000;
const TIER_STEP_S: u64 = 10;
const RAW_STEP_S: u64 = 7;

/// What a response must contain.
#[derive(Debug, Clone)]
pub enum Expect {
    Rows {
        line: Line,
        from_ns: u64,
        to_ns: u64,
    },
    Buckets {
        agg: Agg,
        step_ns: u64,
        from_ns: u64,
        to_ns: u64,
        sensors: Vec<(String, Line)>,
    },
}

#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub path: String,
    pub expect: Expect,
}

/// What the client saw for one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reply {
    pub latency_ms: f64,
    pub bytes: u64,
    /// `(buckets_from_tier, buckets_from_raw)` the planner reported.
    pub plan: (u64, u64),
}

impl Store {
    pub fn topic(&self, node: usize, sensor: usize) -> String {
        format!("/rack00/node{node:02}/t{sensor:03}/value")
    }

    pub fn line(&self, node: usize, sensor: usize) -> Line {
        Line {
            first_k: self.first_k,
            last_k: self.last_k,
            ts0_ns: 0,
            dt_ns: self.dt_ns,
            v0: self.v0_stride * (node * self.sensors + sensor) as i64,
        }
    }

    /// First and last whole second the store fully holds: every reading
    /// with a timestamp in `[first_s, last_s + 1)` seconds is ingested.
    fn extent_s(&self) -> (u64, u64) {
        let first_s = (self.first_k * self.dt_ns).div_ceil(S);
        let last_s = ((self.last_k + 1) * self.dt_ns - 1) / S;
        // The second holding `last_k` is complete only if `last_k` is
        // its final reading.
        let complete = if ((self.last_k + 1) * self.dt_ns).is_multiple_of(S) {
            last_s
        } else {
            last_s.saturating_sub(1)
        };
        (first_s, complete)
    }

    /// A seeded request of `class`. Aggregate ranges end on the last
    /// second of a complete bucket, so a store still being written
    /// gives the same answer whenever the request lands.
    pub fn request(&self, class: Class, rng: &mut Rng) -> Request {
        let (first_s, last_s) = self.extent_s();
        let node = rng.below(self.nodes as u64) as usize;
        let sensor = rng.below(self.sensors as u64) as usize;
        let topic = self.topic(node, sensor);
        let line = self.line(node, sensor);
        let w = self.windows;
        let rows = |from_s: u64, to_s: u64| Request {
            class,
            path: format!("/sensors{topic}?from_s={from_s}&to_s={to_s}"),
            expect: Expect::Rows {
                line,
                from_ns: from_s * S,
                to_ns: to_s * S,
            },
        };
        // The last second of the last complete `step`-bucket.
        let bucket_end = |step_s: u64| ((last_s + 1) / step_s * step_s).saturating_sub(1);
        let buckets = |sensor_param: &str,
                       agg: Agg,
                       step_s: u64,
                       step: &str,
                       from_s: u64,
                       to_s: u64,
                       sensors: Vec<(String, Line)>| Request {
            class,
            path: format!(
                "/query?sensor={sensor_param}&agg={}&step={step}&from_s={from_s}&to_s={to_s}",
                agg.as_str()
            ),
            expect: Expect::Buckets {
                agg,
                step_ns: step_s * S,
                from_ns: from_s * S,
                to_ns: to_s * S,
                sensors,
            },
        };
        match class {
            Class::RawRecent => rows(last_s.saturating_sub(w.recent_s - 1).max(first_s), last_s),
            Class::RawCold => {
                let zone = ((last_s - first_s) as f64 * w.cold_zone) as u64;
                let from = first_s + rng.below(zone.saturating_sub(w.cold_s).max(1));
                rows(from, from + w.cold_s - 1)
            }
            Class::AggTier => {
                let to = bucket_end(TIER_STEP_S);
                let latest_from = to.saturating_sub(w.tier_span_s - 1).max(first_s);
                let from = rng.range(first_s, latest_from);
                let to = (from + w.tier_span_s - 1).min(to);
                let to = ((to + 1) / TIER_STEP_S * TIER_STEP_S)
                    .saturating_sub(1)
                    .max(from);
                buckets(
                    &topic,
                    Agg::Avg,
                    TIER_STEP_S,
                    "10s",
                    from,
                    to,
                    vec![(topic.clone(), line)],
                )
            }
            Class::AggRaw => {
                let end = bucket_end(RAW_STEP_S);
                let latest_from = end.saturating_sub(w.raw_span_s - 1).max(first_s);
                let from = rng.range(first_s, latest_from);
                let to = (from + w.raw_span_s - 1).min(end);
                let to = ((to + 1) / RAW_STEP_S * RAW_STEP_S)
                    .saturating_sub(1)
                    .max(from);
                buckets(
                    &topic,
                    Agg::Max,
                    RAW_STEP_S,
                    "7s",
                    from,
                    to,
                    vec![(topic.clone(), line)],
                )
            }
            Class::AggFanout => {
                let step = if w.fanout_step_s.is_multiple_of(60) {
                    format!("{}m", w.fanout_step_s / 60)
                } else {
                    format!("{}s", w.fanout_step_s)
                };
                let sensors = (0..self.nodes)
                    .map(|n| (self.topic(n, sensor), self.line(n, sensor)))
                    .collect();
                buckets(
                    &format!("/rack00/%2B/t{sensor:03}/value"),
                    Agg::Avg,
                    w.fanout_step_s,
                    &step,
                    first_s,
                    bucket_end(w.fanout_step_s).max(first_s),
                    sensors,
                )
            }
        }
    }

    /// `n` seeded requests, the five classes in equal shares and
    /// shuffled order.
    pub fn requests(&self, n: usize, rng: &mut Rng) -> Vec<Request> {
        let mut classes: Vec<Class> = (0..n).map(|i| CLASSES[i % CLASSES.len()]).collect();
        rng.shuffle(&mut classes);
        classes.into_iter().map(|c| self.request(c, rng)).collect()
    }
}

impl Request {
    /// Checks a response body against the expectation.
    pub fn verify(&self, body: &str) -> Result<(u64, u64), String> {
        match &self.expect {
            Expect::Rows {
                line,
                from_ns,
                to_ns,
            } => oracle::check_rows(body, line, *from_ns, *to_ns).map(|()| (0, 0)),
            Expect::Buckets {
                agg,
                step_ns,
                from_ns,
                to_ns,
                sensors,
            } => oracle::check_agg(body, *agg, *step_ns, *from_ns, *to_ns, sensors),
        }
    }

    /// Sends the request over loopback — one connection per request,
    /// the server has no keep-alive — timing connect → full response,
    /// then checks status and body. The check is outside the timing.
    pub fn attempt(&self, addr: SocketAddr) -> (Reply, Result<(), String>) {
        let start = Instant::now();
        let response = http_request(addr, Method::Get, &self.path, &[]);
        let mut reply = Reply {
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            ..Reply::default()
        };
        let verdict = match response {
            Ok((200, body)) => {
                reply.bytes = body.len() as u64;
                self.verify(&body)
                    .map(|plan| reply.plan = plan)
                    .map_err(|why| format!("GET {}: {why}", self.path))
            }
            Ok((code, body)) => Err(format!("GET {}: {code} {body}", self.path)),
            Err(err) => Err(format!("GET {}: {err}", self.path)),
        };
        (reply, verdict)
    }

    /// [`Request::attempt`], with a wrong or missing answer entered in
    /// `ledger` as a failed operation.
    pub fn send(&self, addr: SocketAddr, ledger: &mut Ledger) -> Reply {
        let (reply, verdict) = self.attempt(addr);
        match verdict {
            Ok(()) => ledger.pass(1),
            Err(why) => ledger.check(false, || why),
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dt_ns: u64, last_k: u64) -> Store {
        Store {
            nodes: 16,
            sensors: 8,
            first_k: 1,
            last_k,
            dt_ns,
            v0_stride: 1_000_000,
            windows: Windows {
                recent_s: 60,
                cold_s: 600,
                cold_zone: 0.66,
                tier_span_s: 3600,
                raw_span_s: 600,
                fanout_step_s: 300,
            },
        }
    }

    #[test]
    fn ranges_stay_inside_fully_ingested_history() {
        // 10 readings a second, the last second incomplete.
        let s = store(S / 10, 10 * 7200 + 3);
        assert_eq!(s.extent_s(), (1, 7199));
        let mut rng = Rng::new(9, 0);
        for request in s.requests(500, &mut rng) {
            let (from_ns, to_ns) = match &request.expect {
                Expect::Rows { from_ns, to_ns, .. } => (*from_ns, *to_ns),
                Expect::Buckets {
                    from_ns,
                    to_ns,
                    step_ns,
                    ..
                } => {
                    // The range ends on the last second of a bucket.
                    assert_eq!((to_ns + S) % step_ns, 0, "{}", request.path);
                    (*from_ns, *to_ns)
                }
            };
            assert!(from_ns <= to_ns && to_ns <= 7199 * S, "{}", request.path);
            assert!(from_ns >= S, "{}", request.path);
        }
        // A complete last second counts.
        assert_eq!(store(S, 100).extent_s(), (1, 100));
        assert_eq!(store(S / 10, 1009).extent_s(), (1, 100));
    }
}
