//! `paced_mixed`: reads beside writes, on a schedule.
//!
//! The write side of `ingest_steady` sampled every 100 ms on the wall
//! clock — 32 × 100 readings per tick, 32 000 readings/s, about a fifth
//! of the box's saturation rate — while one client thread issues the
//! `query_mixed` classes at 100 requests/s over the history written so
//! far. After each round the driver probes `GET /sensors` for the
//! reading it just sampled. This is an open loop: every latency runs
//! from the instant the tick or request was *due*, so a stall charges
//! everything queued behind it, and generator lateness is reported.

use super::ingest::{check_conservation, residues, traced_round, write_path_layers};
use super::query::{client_layers, read_path_layers};
use super::{Measured, Phase, RunConfig};
use crate::metrics::ratio;
use crate::mix::{Reply, Request, Store, Windows, CLASSES};
use crate::oracle::Ledger;
use crate::stats::{self, Rng};
use crate::system::{Shape, System};
use crate::trace::{self, span, Sp};
use crate::{replay, sys};
use dcdb_storage::DurableConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const INTERVAL_MS: u64 = 100;
const QUERIES_PER_SECOND: u64 = 100;
/// Ticks ingested unpaced before the clock starts, so the mix has
/// sealed history to read from the first request on.
const BACKLOG_TICKS: u64 = 100;

fn shape(cfg: &RunConfig) -> Shape {
    Shape {
        pushers: if cfg.smoke { 16 } else { 32 },
        sensors_per_pusher: if cfg.smoke { 10 } else { 100 },
        interval_ms: INTERVAL_MS,
        // A 5 s cache window: anything older is a storage read.
        cache_intervals: 50,
    }
}

/// The store as the client may assume it at tick `done`.
fn store_at(shape: &Shape, done: u64) -> Store {
    Store {
        nodes: 16,
        sensors: shape.sensors_per_pusher,
        first_k: 1,
        last_k: done,
        dt_ns: INTERVAL_MS * 1_000_000,
        // Tester sensors all count ticks: every line is the same.
        v0_stride: 0,
        windows: Windows {
            recent_s: 2,
            cold_s: 3,
            cold_zone: 0.5,
            tier_span_s: 20,
            raw_span_s: 14,
            fanout_step_s: 10,
        },
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn ms_since(due: Instant) -> f64 {
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// What the open-loop client thread brings back.
struct ClientLog {
    requests: Vec<Request>,
    replies: Vec<Reply>,
    /// Completion minus due time, per request.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Answers that were wrong once and right when asked again.
    transient_mismatches: u64,
    ledger: Ledger,
}

pub fn run(cfg: &RunConfig, traced: bool, scale: f64) -> Measured {
    let shape = shape(cfg);
    let backlog = if cfg.smoke { 150 } else { BACKLOG_TICKS };
    let ticks = if cfg.smoke {
        20
    } else {
        ((cfg.seconds * scale * 1000.0 / INTERVAL_MS as f64).round() as u64).max(10)
    };
    let dir = cfg.work.join("paced");
    let setup = Instant::now();
    let sys = System::build(&dir, shape, traced, true);
    for k in 1..=backlog {
        sys.round(shape.tick_ts(k));
    }
    let setup_s = setup.elapsed().as_secs_f64();
    let addr = sys.server.as_ref().expect("served").addr();

    let done = AtomicU64::new(backlog);
    let stop = AtomicBool::new(false);
    let interval = Duration::from_millis(INTERVAL_MS);
    let mut ledger = Ledger::default();
    let mut probe_rng = Rng::new(cfg.seed, 30);
    // The time axis is the driver's busy time: at a fixed offered rate
    // throughput means capacity — readings per second of busy time with
    // the read load running beside it.
    let mut busy_s = 0.0;
    let (mut fresh_ms, mut busy_ms, mut tick_late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pusher_cpu_ns, mut backlog_max) = (0, 0);
    if let Some(probes) = &sys.probes {
        probes.capture.frame_bytes.store(0, Ordering::Relaxed);
        trace::enable();
        trace::install(ticks as usize);
    }
    let cpu = sys::process_cpu_ns();
    let start = Instant::now();

    let client = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut log = ClientLog {
                requests: Vec::new(),
                replies: Vec::new(),
                latency_ms: Vec::new(),
                late_ms: Vec::new(),
                transient_mismatches: 0,
                ledger: Ledger::default(),
            };
            let mut rng = Rng::new(cfg.seed, 31);
            let gap = Duration::from_micros(1_000_000 / QUERIES_PER_SECOND);
            let mut j = 0u32;
            loop {
                j += 1;
                let due = start + gap * j;
                sleep_until(due);
                if stop.load(Ordering::Acquire) {
                    break;
                }
                log.late_ms.push(ms_since(due));
                let class = CLASSES[rng.below(CLASSES.len() as u64) as usize];
                let request =
                    store_at(&shape, done.load(Ordering::Acquire)).request(class, &mut rng);
                // A read that overlaps a memtable seal can miss the
                // outgoing memtable: `DurableBackend::query_merged`
                // snapshots the segment list before the `sealing` slot,
                // and a seal that completes in between has moved the
                // data from the second to the first. About one request
                // in 10^5 here. The program is not this change's to
                // fix, so an answer that is wrong once and right when
                // asked again is counted under its own name; one that
                // stays wrong is a failed operation.
                let (reply, verdict) = request.attempt(addr);
                match verdict.or_else(|first| {
                    eprintln!("transient mismatch (paced_mixed): {first}");
                    log.transient_mismatches += 1;
                    request.attempt(addr).1.map_err(|_| first)
                }) {
                    Ok(()) => log.ledger.pass(1),
                    Err(why) => log.ledger.check(false, || why),
                }
                log.latency_ms.push(ms_since(due));
                log.requests.push(request);
                log.replies.push(reply);
            }
            log
        });

        for i in 1..=ticks {
            let k = backlog + i;
            let due = start + interval * i as u32;
            sleep_until(due);
            tick_late_ms.push(ms_since(due));
            let now = shape.tick_ts(k);
            let t0 = Instant::now();
            if traced {
                traced_round(&sys, now, &mut pusher_cpu_ns, &mut backlog_max);
            } else {
                sys.round(now);
            }
            let busy = t0.elapsed().as_secs_f64();
            busy_s += busy;
            busy_ms.push(busy * 1e3);
            done.store(k, Ordering::Release);

            // Freshness: the reading sampled this tick, read back over
            // the socket. The response is everything since the start
            // of the tick's second, and must end with reading `k`.
            let p = probe_rng.below(shape.pushers as u64) as usize;
            let s = probe_rng.below(shape.sensors_per_pusher as u64) as usize;
            let from_s = now.as_nanos() / 1_000_000_000;
            let probe = Request {
                class: CLASSES[0],
                path: format!("/sensors{}?from_s={from_s}", shape.topic(p, s)),
                expect: crate::mix::Expect::Rows {
                    line: store_at(&shape, k).line(0, 0),
                    from_ns: from_s * 1_000_000_000,
                    to_ns: now.as_nanos(),
                },
            };
            {
                let _probe = span(Sp::Probe);
                probe.send(addr, &mut ledger);
            }
            let fresh = ms_since(due);
            fresh_ms.push(fresh);
            trace::next_round();
        }
        stop.store(true, Ordering::Release);
        client.join().expect("client thread")
    });
    let cpu_ns = sys::process_cpu_ns() - cpu;
    let tracer = trace::finish();

    let readings = ticks * shape.readings_per_tick();
    check_conservation(
        &mut ledger,
        &sys,
        (backlog + ticks) * shape.readings_per_tick(),
    );
    ledger.merge(client.ledger.clone());
    let rest = sys.server.as_ref().expect("served").metrics();
    ledger.expect_eq("REST accept errors", rest.accept_errors, 0);
    ledger.expect_eq("REST bad requests", rest.bad_requests, 0);
    // Lateness is reported, not failed: latencies run from the due
    // time, so a generator that fell behind already shows in them.
    let late = stats::sorted(
        tick_late_ms
            .iter()
            .chain(&client.late_ms)
            .copied()
            .collect(),
    );
    let late_p95 = stats::percentile(&late, 95.0);

    let total = (backlog + ticks) * shape.readings_per_tick();
    let disk_bytes_per_reading = sys::dir_bytes(&dir) as f64 / total as f64;
    let fresh_sorted = stats::sorted(fresh_ms);
    let phase = Phase {
        latencies_ms: fresh_sorted.clone(),
        items: readings,
        span_s: busy_s,
        cpu_ns,
        setup_s,
        stored_bytes_per_reading: disk_bytes_per_reading,
    };
    let mut measured = Measured {
        phase,
        ..Measured::default()
    };

    if let Some(tracer) = &tracer {
        let mut layers = write_path_layers(
            &sys,
            tracer,
            readings,
            ticks,
            INTERVAL_MS * 1_000_000,
            pusher_cpu_ns,
            backlog_max,
        );
        layers.extend(client_layers(&client.requests, &client.replies));
        let query = stats::sorted(client.latency_ms.clone());
        layers.set("paced.query_ms_p50", stats::percentile(&query, 50.0));
        layers.set("paced.query_ms_p99", stats::percentile(&query, 99.0));
        layers.set("paced.fresh_ms_p95", stats::percentile(&fresh_sorted, 95.0));
        layers.set("paced.late_ms_p95", late_p95);
        layers.set(
            "paced.transient_mismatches",
            client.transient_mismatches as f64,
        );
        layers.set(
            "paced.stall_ms_max",
            busy_ms.iter().copied().fold(0.0, f64::max),
        );
        layers.extend(read_path_layers(client.requests.len() as f64, &rest));
        let stats_q = sys.agent.query_engine().stats();
        layers.set(
            "cache.hit_share",
            ratio(
                stats_q.cache_hits as f64,
                (stats_q.cache_hits + stats_q.storage_fallbacks + stats_q.misses) as f64,
            ),
        );
        layers.set("storage.disk_bytes_per_reading", disk_bytes_per_reading);
        let round = tracer.total(Sp::Round);
        layers.set(
            "trace.unattributed_pct",
            100.0 * ratio(round.self_ns() as f64, round.busy_ns as f64),
        );
        let probes = sys.probes.as_ref().expect("traced system");
        eprintln!("stage replays (paced_mixed):");
        layers.extend(replay::write_stages(
            &probes.capture.frames(),
            &probes.capture.inserts(),
            shape.cache_intervals as usize + 1,
        ));
        let per_block =
            DurableConfig::default().memtable_max_readings / shape.readings_per_tick() as usize;
        layers.extend(replay::codec_stages(
            256,
            per_block.max(2),
            INTERVAL_MS * 1_000_000,
        ));
        let paths: Vec<String> = client.requests.iter().map(|r| r.path.clone()).collect();
        layers.extend(replay::parse_stage(&paths));
        residues(&mut layers);
        measured.layers = layers;
        measured.reconciliation = Some(tracer.reconciliation());
        measured.trace_json = Some(tracer.to_json("paced_mixed"));
    }

    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    measured.ledger = ledger;
    measured
}
