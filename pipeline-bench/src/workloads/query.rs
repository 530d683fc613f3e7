//! `query_mixed`: the read side alone.
//!
//! 16 nodes × 8 sensors are preloaded with hours of 1 s history through
//! `QueryEngine::insert_columns` in 60-reading batches, with a
//! `maintain` pass every virtual minute — so history sits in sealed raw
//! segments and 10 s / 5 min rollup segments, the tail in the memtable
//! and only the last 180 s in the sensor cache (working set ≫ cache).
//! Two client threads then issue the seeded five-class mix over
//! loopback, one connection per request.

use super::{Measured, Phase, RunConfig};
use crate::metrics::{ratio, Values};
use crate::mix::{Reply, Request, Store, Windows, CLASSES};
use crate::oracle::Ledger;
use crate::stats::{self, Rng};
use crate::system::{Shape, System};
use crate::trace::{self, span, Sp};
use crate::{replay, sys};
use dcdb_common::batch::ReadingBatch;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_rest::{Method, Router, ServerMetricsSnapshot};
use dcdb_storage::DurableConfig;
use std::net::SocketAddr;
use std::time::Instant;

/// Requests per second of `--seconds`, sized for the reference box.
const REQUESTS_PER_SECOND: f64 = 1300.0;
const CLIENTS: usize = 2;
const S: u64 = 1_000_000_000;

pub struct Sizes {
    pub history_s: u64,
    pub warmup: usize,
    pub requests: usize,
}

pub fn store(history_s: u64) -> Store {
    Store {
        nodes: 16,
        sensors: 8,
        first_k: 1,
        last_k: history_s,
        dt_ns: S,
        // Distinct values per sensor, so a row served from the wrong
        // series cannot pass.
        v0_stride: 1_000_000,
        windows: Windows {
            recent_s: 60,
            cold_s: 600,
            cold_zone: 0.66,
            tier_span_s: 3600.min(history_s / 2),
            raw_span_s: 600,
            fanout_step_s: 300,
        },
    }
}

/// Builds the read-side system and preloads `store` through the
/// agent's query engine, exactly as ingest would have left it.
pub fn build(dir: &std::path::Path, store: &Store, traced: bool) -> System {
    let shape = Shape {
        pushers: 0,
        sensors_per_pusher: 0,
        interval_ms: 1000,
        cache_intervals: 180,
    };
    let sys = System::build(dir, shape, traced, true);
    let topics: Vec<(Topic, i64)> = (0..store.nodes)
        .flat_map(|n| (0..store.sensors).map(move |s| (n, s)))
        .map(|(n, s)| {
            let topic = Topic::parse(&store.topic(n, s)).expect("valid topic");
            (topic, store.line(n, s).v0)
        })
        .collect();
    let engine = sys.agent.query_engine();
    let mut minute_start = store.first_k;
    while minute_start <= store.last_k {
        let minute_end = (minute_start + 59).min(store.last_k);
        let ts: Vec<u64> = (minute_start..=minute_end)
            .map(|k| k * store.dt_ns)
            .collect();
        for (topic, v0) in &topics {
            let values = (minute_start..=minute_end).map(|k| v0 + k as i64).collect();
            engine.insert_columns(topic, &ReadingBatch::from_columns(ts.clone(), values));
        }
        sys.agent
            .storage()
            .maintain(Timestamp(minute_end * store.dt_ns))
            .expect("maintain");
        minute_start = minute_end + 1;
    }
    sys
}

/// Runs `requests` from `CLIENTS` closed-loop client threads; returns
/// the replies in request order, the wall time and the process CPU
/// time (server and clients) the phase took.
pub fn drive_clients(
    addr: SocketAddr,
    requests: &[Request],
    ledger: &mut Ledger,
) -> (Vec<Reply>, f64, u64) {
    let cpu = sys::process_cpu_ns();
    let start = Instant::now();
    let per_client: Vec<(Vec<Reply>, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut ledger = Ledger::default();
                    let replies = requests
                        .iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|request| request.send(addr, &mut ledger))
                        .collect();
                    (replies, ledger)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ns = sys::process_cpu_ns() - cpu;
    let mut replies = vec![Reply::default(); requests.len()];
    for (c, (client_replies, client_ledger)) in per_client.into_iter().enumerate() {
        for (i, reply) in client_replies.into_iter().enumerate() {
            replies[c + i * CLIENTS] = reply;
        }
        ledger.merge(client_ledger);
    }
    (replies, wall_s, cpu_ns)
}

/// Per-class and overall client-side latency, response size and plan
/// shares of a finished request list.
pub fn client_layers(requests: &[Request], replies: &[Reply]) -> Values {
    const CLASS_P50: [&str; 5] = [
        "query.ms_p50.raw_recent",
        "query.ms_p50.raw_cold",
        "query.ms_p50.agg_tier",
        "query.ms_p50.agg_raw",
        "query.ms_p50.agg_fanout",
    ];
    let mut v = Values::default();
    for class in CLASSES {
        let latencies: Vec<f64> = requests
            .iter()
            .zip(replies)
            .filter(|(request, _)| request.class == class)
            .map(|(_, reply)| reply.latency_ms)
            .collect();
        v.set(CLASS_P50[class.index()], stats::median(&latencies));
    }
    let all = stats::sorted(replies.iter().map(|r| r.latency_ms).collect());
    v.set("query.ms_p99", stats::percentile(&all, 99.0));
    let n = replies.len() as f64;
    v.set(
        "rest.response_bytes_per_query",
        ratio(replies.iter().map(|r| r.bytes as f64).sum(), n),
    );
    let (tier, raw) = replies
        .iter()
        .fold((0, 0), |(t, r), reply| (t + reply.plan.0, r + reply.plan.1));
    v.set(
        "query.agg_tier_bucket_share",
        ratio(tier as f64, (tier + raw) as f64),
    );
    v
}

/// Per-layer metrics of the read seams. They ran on the REST workers,
/// so their totals are the process-wide ones; `requests` is how many
/// client requests they served.
pub fn read_path_layers(requests: f64, rest: &ServerMetricsSnapshot) -> Values {
    let mut v = Values::default();
    let scan = trace::global(Sp::StorageScan);
    let frames = trace::global(Sp::StorageFrames);
    let read = trace::global(Sp::IoRead);
    v.set(
        "storage.scan_ns_per_reading",
        ratio(scan.busy_ns as f64, scan.items as f64),
    );
    v.set(
        "storage.frames_ns_per_frame",
        ratio(frames.busy_ns as f64, frames.items as f64),
    );
    v.set("io.reads_per_query", ratio(read.count as f64, requests));
    v.set(
        "io.read_bytes_per_query",
        ratio(read.items as f64, requests),
    );
    v.set("rest.accept_errors", rest.accept_errors as f64);
    v.set("rest.bad_requests", rest.bad_requests as f64);
    v.set("rest.reaped_idle", rest.reaped_idle as f64);
    v
}

/// Sends each of `sample` through in-process `Router::dispatch` (no
/// socket) under a span, and reports per-class dispatch medians and
/// what the wire adds on top.
pub fn dispatch_layers(
    router: &Router,
    requests: &[Request],
    replies: &[Reply],
    sample: usize,
    ledger: &mut Ledger,
) -> Values {
    const CLASS_DISPATCH: [&str; 5] = [
        "query.dispatch_ms_p50.raw_recent",
        "query.dispatch_ms_p50.raw_cold",
        "query.dispatch_ms_p50.agg_tier",
        "query.dispatch_ms_p50.agg_raw",
        "query.dispatch_ms_p50.agg_fanout",
    ];
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
    let mut wire = Vec::new();
    for (request, reply) in requests.iter().zip(replies).take(sample) {
        let start = Instant::now();
        let response = {
            let _dispatch = span(Sp::RestDispatch);
            router.dispatch(dcdb_rest::Request::new(Method::Get, &request.path))
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        trace::next_round();
        ledger.check(request.verify(&response.body_str()).is_ok(), || {
            format!("dispatch {}: wrong answer", request.path)
        });
        per_class[request.class.index()].push(ms);
        wire.push(reply.latency_ms - ms);
    }
    let mut v = Values::default();
    for class in CLASSES {
        v.set(
            CLASS_DISPATCH[class.index()],
            stats::median(&per_class[class.index()]),
        );
    }
    v.set("rest.wire_ms_p50", stats::median(&wire));
    v
}

pub fn run(cfg: &RunConfig, traced: bool, scale: f64) -> Measured {
    let sizes = if cfg.smoke {
        Sizes {
            history_s: 1800,
            warmup: 20,
            requests: 100,
        }
    } else {
        Sizes {
            history_s: 3 * 3600,
            warmup: 300,
            requests: ((cfg.seconds * scale * REQUESTS_PER_SECOND) as usize).max(50),
        }
    };
    let store = store(sizes.history_s);
    let dir = cfg.work.join("query");
    let mut ledger = Ledger::default();
    let setup = Instant::now();
    let sys = build(&dir, &store, traced);
    let warmup = store.requests(sizes.warmup, &mut Rng::new(cfg.seed, 20));
    drive_clients(
        sys.server.as_ref().expect("served").addr(),
        &warmup,
        &mut ledger,
    );
    let setup_s = setup.elapsed().as_secs_f64();
    let server = sys.server.as_ref().expect("served");
    let requests = store.requests(sizes.requests, &mut Rng::new(cfg.seed, 21));

    let before = sys.agent.query_engine().stats();
    if traced {
        trace::enable();
    }
    let (replies, wall_s, cpu_ns) = drive_clients(server.addr(), &requests, &mut ledger);
    trace::disable();

    let n = requests.len() as u64;
    let rest = server.metrics();
    ledger.expect_eq("REST accept errors", rest.accept_errors, 0);
    ledger.expect_eq("REST bad requests", rest.bad_requests, 0);
    let engine_stats = sys.engine.engine_stats();
    ledger.expect_eq("segment read errors", engine_stats.read_errors, 0);

    let readings = store.last_k * (store.nodes * store.sensors) as u64;
    let disk_bytes_per_reading = sys::dir_bytes(&dir) as f64 / readings as f64;
    let phase = Phase {
        latencies_ms: replies.iter().map(|reply| reply.latency_ms).collect(),
        items: n,
        span_s: wall_s,
        cpu_ns,
        setup_s,
        stored_bytes_per_reading: disk_bytes_per_reading,
    };
    let mut measured = Measured {
        phase,
        ..Measured::default()
    };

    if traced {
        let mut layers = client_layers(&requests, &replies);
        let after = sys.agent.query_engine().stats();
        let lookups = (after.cache_hits - before.cache_hits)
            + (after.storage_fallbacks - before.storage_fallbacks)
            + (after.misses - before.misses);
        layers.set(
            "cache.hit_share",
            ratio(
                (after.cache_hits - before.cache_hits) as f64,
                lookups as f64,
            ),
        );
        layers.extend(read_path_layers(n as f64, &rest));
        layers.set("storage.seals", engine_stats.seals as f64);
        layers.set("storage.compactions", engine_stats.compactions as f64);
        layers.set(
            "storage.rollup_recomputes",
            engine_stats.rollup_recomputes as f64,
        );
        layers.set("storage.read_errors", engine_stats.read_errors as f64);
        layers.set("storage.disk_bytes_per_reading", disk_bytes_per_reading);

        // The same requests without the socket, on this thread, with
        // the span stack installed: dispatch = storage reads + self.
        let mut router = Router::new();
        sys.agent.mount_routes(&mut router);
        let sample = requests.len().min(if cfg.smoke { 50 } else { 500 });
        trace::enable();
        trace::install(sample);
        layers.extend(dispatch_layers(
            &router,
            &requests,
            &replies,
            sample,
            &mut ledger,
        ));
        let tracer = trace::finish().expect("installed");

        eprintln!("stage replays (query_mixed):");
        let paths: Vec<String> = requests.iter().take(2000).map(|r| r.path.clone()).collect();
        layers.extend(replay::parse_stage(&paths));
        let per_block =
            DurableConfig::default().memtable_max_readings / (store.nodes * store.sensors);
        layers.extend(replay::codec_stages(64, per_block, store.dt_ns));
        measured.layers = layers;
        measured.reconciliation = Some(tracer.reconciliation());
        measured.trace_json = Some(tracer.to_json("query_mixed"));
    }

    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    measured.ledger = ledger;
    measured
}
