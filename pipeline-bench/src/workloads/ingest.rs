//! `ingest_steady`: the paper's production traffic at saturation.
//!
//! 32 Pushers × 100 tester sensors sample once per virtual second and
//! the driver ticks them back to back, so every bus message, WAL append
//! and memtable insert carries exactly one reading. The driver thread
//! runs the same loop as `wintermute-sim` (Pushers, `Broker::flush`,
//! `CollectAgent::tick`); the router thread and the WAL syncer are the
//! only things that overlap with it. The run ends with `flush()`, then
//! the engine is dropped and reopened to check recovery.

use super::{Measured, Phase, RunConfig};
use crate::metrics::{ratio, Values};
use crate::oracle::{Ledger, Line};
use crate::stats::{self, Rng};
use crate::system::{Shape, System};
use crate::trace::{self, span, Sp, Tracer};
use crate::{replay, sys};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_storage::{DurableBackend, DurableConfig};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Measured ticks per second of `--seconds`: sized so the measured
/// phase lasts about that long on the two-core reference box.
const TICKS_PER_SECOND: f64 = 58.0;
const WARMUP_TICKS: u64 = 60;

pub fn shape(cfg: &RunConfig) -> Shape {
    Shape {
        pushers: if cfg.smoke { 4 } else { 32 },
        sensors_per_pusher: if cfg.smoke { 25 } else { 100 },
        interval_ms: 1000,
        cache_intervals: 180,
    }
}

/// One traced round: the same calls as [`System::round`], each inside
/// a span, with `CollectAgent::tick` opened up into its three steps.
pub fn traced_round(sys: &System, now: Timestamp, pusher_cpu_ns: &mut u64, backlog_max: &mut u64) {
    let _round = span(Sp::Round);
    let cpu = sys::thread_cpu_ns();
    for pusher in &sys.pushers {
        let _tick = span(Sp::PusherTick);
        pusher.tick(now).expect("pusher tick");
    }
    *pusher_cpu_ns += sys::thread_cpu_ns() - cpu;
    {
        let _settle = span(Sp::BusSettle);
        sys.broker.flush();
    }
    *backlog_max = (*backlog_max).max(sys.agent.ingest_backlog() as u64);
    {
        let mut pending = span(Sp::AgentProcessPending);
        pending.items(sys.agent.process_pending() as u64);
    }
    {
        let _operators = span(Sp::AgentOperators);
        sys.agent.manager().tick(now);
    }
    {
        let _maintain = span(Sp::AgentMaintain);
        sys.agent.storage().maintain(now).expect("maintain");
    }
}

/// Counters that must show every reading arrived and nothing was shed.
pub fn check_conservation(ledger: &mut Ledger, sys: &System, expected: u64) {
    let (mut sampled, mut published, mut lost) = (0, 0, 0);
    for pusher in &sys.pushers {
        let stats = pusher.stats();
        sampled += stats.sampled;
        published += stats.published;
        lost += stats.spool_dropped + stats.publish_errors_final + stats.spooled_pending;
    }
    let agent = sys.agent.stats();
    let bus = sys.broker.stats();
    ledger.conserve("readings sampled", sampled, expected);
    ledger.expect_eq("readings published", published, expected);
    ledger.expect_eq("readings the agent ingested", agent.readings, expected);
    ledger.expect_eq("readings lost by pushers", lost, 0);
    ledger.expect_eq("bus drops", bus.dropped + bus.router_dropped, 0);
    ledger.expect_eq("agent budget_exhausted", agent.budget_exhausted, 0);
    ledger.expect_eq("agent decode_errors", agent.decode_errors, 0);
    ledger.expect_eq("agent maintenance_errors", agent.maintenance_errors, 0);
    ledger.expect_eq("agent backlog", sys.agent.ingest_backlog() as u64, 0);
    let query = sys.agent.query_engine().stats();
    ledger.expect_eq("storage refused inserts", query.storage_errors, 0);
}

/// Per-layer metrics of the write path, from the driver's spans, the
/// wrappers' process-wide totals and the program's own counters.
pub fn write_path_layers(
    sys: &System,
    tracer: &Tracer,
    readings: u64,
    ticks: u64,
    interval_ns: u64,
    pusher_cpu_ns: u64,
    backlog_max: u64,
) -> Values {
    let mut v = Values::default();
    let per_reading = |ns: u64| ratio(ns as f64, readings as f64);
    let tick = tracer.total(Sp::PusherTick);
    v.set("pusher.tick_ns_per_reading", per_reading(tick.busy_ns));
    v.set(
        "pusher.sample_ns_per_reading",
        per_reading(tracer.total(Sp::PusherSample).busy_ns),
    );
    v.set(
        "pusher.tick_self_ns_per_reading",
        per_reading(tick.self_ns()),
    );
    // Thread CPU inside `Pusher::tick` per Pusher per sampled interval,
    // as a share of one core.
    let pusher_ticks = sys.pushers.len() as f64 * ticks as f64;
    v.set(
        "pusher.cpu_pct",
        100.0 * ratio(pusher_cpu_ns as f64, pusher_ticks) / interval_ns as f64,
    );
    let (mut published, mut errors, mut spool, mut cache) = (0, 0, 0, 0);
    for pusher in &sys.pushers {
        let stats = pusher.stats();
        published += stats.published;
        errors += stats.publish_errors;
        spool += stats.spool_dropped;
        cache += pusher.query_engine().cache_memory_bytes();
    }
    v.set("pusher.published", published as f64);
    v.set("pusher.publish_errors", errors as f64);
    v.set("pusher.spool_dropped", spool as f64);
    v.set("pusher.cache_bytes", cache as f64);

    let probes = sys.probes.as_ref().expect("traced system");
    let publish = tracer.total(Sp::BusPublish);
    v.set(
        "bus.encode_ns_per_reading",
        per_reading(tracer.total(Sp::BusEncode).busy_ns),
    );
    v.set(
        "bus.frame_bytes_per_reading",
        per_reading(probes.capture.frame_bytes.load(Ordering::Relaxed)),
    );
    v.set(
        "bus.publish_ns_per_msg",
        ratio(publish.busy_ns as f64, publish.count as f64),
    );
    v.set(
        "bus.settle_ns_per_msg",
        ratio(
            tracer.total(Sp::BusSettle).busy_ns as f64,
            publish.count as f64,
        ),
    );
    let bus = sys.broker.metrics();
    v.set(
        "bus.router_high_water",
        bus.router.map_or(0, |r| r.high_water) as f64,
    );
    v.set(
        "bus.sub_high_water",
        bus.subscriptions
            .iter()
            .map(|s| s.queue.high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set(
        "bus.dropped",
        (bus.stats.dropped + bus.stats.router_dropped) as f64,
    );

    let pending = tracer.total(Sp::AgentProcessPending);
    v.set(
        "agent.process_pending_ns_per_reading",
        per_reading(pending.busy_ns),
    );
    v.set(
        "agent.process_pending_self_ns_per_reading",
        per_reading(pending.self_ns()),
    );
    v.set(
        "agent.operators_ns_per_tick",
        ratio(
            tracer.total(Sp::AgentOperators).busy_ns as f64,
            ticks as f64,
        ),
    );
    let maintain: Vec<f64> = tracer
        .per_round(Sp::AgentMaintain)
        .iter()
        .map(|ns| *ns as f64 / 1e6)
        .collect();
    v.set("agent.maintain_ms_p50", stats::median(&maintain));
    v.set(
        "agent.maintain_ms_max",
        maintain.iter().copied().fold(0.0, f64::max),
    );
    v.set("agent.backlog_max", backlog_max as f64);
    let agent = sys.agent.stats();
    v.set("agent.budget_exhausted", agent.budget_exhausted as f64);
    v.set("agent.decode_errors", agent.decode_errors as f64);

    let insert = tracer.total(Sp::StorageInsert);
    v.set("storage.insert_ns_per_reading", per_reading(insert.busy_ns));
    v.set(
        "storage.insert_self_ns_per_reading",
        per_reading(insert.self_ns()),
    );
    let seals: Vec<f64> = probes
        .storage
        .seal_ns
        .lock()
        .expect("seal lock")
        .iter()
        .map(|ns| *ns as f64 / 1e6)
        .collect();
    v.set("storage.seal_ms_p50", stats::median(&seals));
    v.set(
        "storage.seal_ns_per_reading",
        per_reading((seals.iter().sum::<f64>() * 1e6) as u64),
    );
    v.set(
        "storage.flush_ms",
        tracer.total(Sp::StorageFlush).busy_ns as f64 / 1e6,
    );
    let engine = sys.engine.engine_stats();
    v.set("storage.seals", engine.seals as f64);
    v.set("storage.compactions", engine.compactions as f64);
    v.set("storage.rollup_recomputes", engine.rollup_recomputes as f64);
    v.set("storage.read_errors", engine.read_errors as f64);

    // The I/O seam sees every thread: the syncer's fsyncs count here.
    let write = tracer.all_threads(Sp::IoWrite);
    let sync = tracer.all_threads(Sp::IoSync);
    let kreadings = readings as f64 / 1e3;
    v.set(
        "io.writes_per_kreading",
        ratio(write.count as f64, kreadings),
    );
    v.set("io.write_bytes_per_reading", per_reading(write.items));
    v.set("io.write_ns_per_reading", per_reading(write.busy_ns));
    v.set(
        "io.fsyncs_per_kreading",
        ratio(sync.count as f64, kreadings),
    );
    v.set("io.fsync_ns_per_reading", per_reading(sync.busy_ns));
    let syncs: Vec<f64> = probes
        .sync_ns
        .lock()
        .expect("sync lock")
        .iter()
        .map(|ns| *ns as f64 / 1e6)
        .collect();
    v.set("io.fsync_ms_p50", stats::median(&syncs));
    v.set(
        "storage.write_amp",
        ratio(write.items as f64, 16.0 * readings as f64),
    );
    v
}

/// Sets each write-path `*_self` against the sum of its replayed
/// leaves and names what is left: the part of a layer's own time no
/// public function reproduces (locks, queue hand-off, per-topic
/// bookkeeping, and cache misses a tight replay loop does not suffer).
pub fn residues(layers: &mut Values) {
    let get = |layers: &Values, name: &str| layers.get(name).unwrap_or(0.0);
    let rows: [(&'static str, &'static str, &[&str]); 3] = [
        (
            "pusher.tick_residue_ns_per_reading",
            "pusher.tick_self_ns_per_reading",
            &["cache.insert_ns_per_reading"],
        ),
        (
            "agent.process_pending_residue_ns_per_reading",
            "agent.process_pending_self_ns_per_reading",
            &["bus.decode_ns_per_reading", "cache.insert_ns_per_reading"],
        ),
        (
            "storage.insert_residue_ns_per_reading",
            "storage.insert_self_ns_per_reading",
            &[
                "storage.wal_append_ns_per_reading",
                "storage.memtable_insert_ns_per_reading",
                "storage.rollup_fold_ns_per_reading",
            ],
        ),
    ];
    eprintln!("self time against replayed leaves (ns per reading):");
    for (residue, own, leaves) in rows {
        let own_ns = get(layers, own);
        let leaf_ns: f64 = leaves.iter().map(|leaf| get(layers, leaf)).sum();
        eprintln!(
            "  {own:<44} {own_ns:>8.1} = leaves {leaf_ns:>8.1} ({}) + residue {:>8.1}",
            leaves.join(" + "),
            own_ns - leaf_ns
        );
        layers.set(residue, own_ns - leaf_ns);
    }
}

pub fn run(cfg: &RunConfig, traced: bool, scale: f64) -> Measured {
    let shape = shape(cfg);
    let warmup = if cfg.smoke { 5 } else { WARMUP_TICKS };
    let ticks = if cfg.smoke {
        20
    } else {
        ((cfg.seconds * scale * TICKS_PER_SECOND).round() as u64).max(8)
    };
    let dir = cfg.work.join("ingest");
    let setup = Instant::now();
    let sys = System::build(&dir, shape, traced, false);
    for k in 1..=warmup {
        sys.round(shape.tick_ts(k));
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let readings = ticks * shape.readings_per_tick();
    let (mut pusher_cpu_ns, mut backlog_max) = (0, 0);
    if let Some(probes) = &sys.probes {
        probes.capture.frame_bytes.store(0, Ordering::Relaxed);
        trace::enable();
        trace::install(ticks as usize);
    }
    let mut phase = Phase {
        setup_s,
        items: readings,
        ..Phase::default()
    };
    let cpu = sys::process_cpu_ns();
    let start = Instant::now();
    for k in warmup + 1..=warmup + ticks {
        let now = shape.tick_ts(k);
        let t0 = Instant::now();
        if traced {
            traced_round(&sys, now, &mut pusher_cpu_ns, &mut backlog_max);
            trace::next_round();
        } else {
            sys.round(now);
        }
        phase.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    // A reading counts once it is flushed: the phase ends when
    // `flush()` returns, so sealing deferred to it is not free.
    sys.agent.storage().flush().expect("flush");
    phase.span_s = start.elapsed().as_secs_f64();
    phase.cpu_ns = sys::process_cpu_ns() - cpu;
    let tracer = trace::finish();

    let mut ledger = Ledger::default();
    let total = (warmup + ticks) * shape.readings_per_tick();
    check_conservation(&mut ledger, &sys, total);
    let disk_bytes_per_reading = sys::dir_bytes(&dir) as f64 / total as f64;
    phase.stored_bytes_per_reading = disk_bytes_per_reading;
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
            shape.interval_ms * 1_000_000,
            pusher_cpu_ns,
            backlog_max,
        );
        layers.set("storage.disk_bytes_per_reading", disk_bytes_per_reading);
        let round = tracer.total(Sp::Round);
        layers.set(
            "trace.unattributed_pct",
            100.0 * ratio(round.self_ns() as f64, round.busy_ns as f64),
        );
        let probes = sys.probes.as_ref().expect("traced system");
        eprintln!("stage replays (ingest_steady):");
        let slots = shape.cache_intervals as usize + 1;
        layers.extend(replay::write_stages(
            &probes.capture.frames(),
            &probes.capture.inserts(),
            slots,
        ));
        let per_block =
            DurableConfig::default().memtable_max_readings / shape.readings_per_tick() as usize;
        layers.extend(replay::codec_stages(256, per_block.max(2), 1_000_000_000));
        residues(&mut layers);
        measured.layers = layers;
        measured.reconciliation = Some(tracer.reconciliation());
        measured.trace_json = Some(tracer.to_json("ingest_steady"));
    }

    // Recovery: everything the agent acknowledged must come back from
    // the bytes on disk, and read back right.
    drop(sys);
    let reopen = Instant::now();
    let engine = DurableBackend::open(&dir, DurableConfig::default()).expect("reopen");
    let recovery_ms = reopen.elapsed().as_secs_f64() * 1e3;
    let report = engine.recovery();
    let recovered = (report.segment_readings + report.wal_readings) as u64;
    ledger.expect_eq("readings recovered after reopen", recovered, total);
    ledger.expect_eq("torn WAL tails", report.torn_tails as u64, 0);
    let line = Line {
        first_k: 1,
        last_k: warmup + ticks,
        ts0_ns: 0,
        dt_ns: shape.interval_ms * 1_000_000,
        v0: 0,
    };
    let mut rng = Rng::new(cfg.seed, 1);
    for _ in 0..16 {
        let p = rng.below(shape.pushers as u64) as usize;
        let s = rng.below(shape.sensors_per_pusher as u64) as usize;
        let topic = Topic::parse(&shape.topic(p, s)).expect("valid topic");
        let a = rng.range(1, line.last_k);
        let b = rng.range(a, line.last_k);
        let got = engine.query(&topic, Timestamp(line.ts(a)), Timestamp(line.ts(b)));
        let right = got.len() as u64 == b - a + 1
            && got
                .iter()
                .zip(a..)
                .all(|(r, k)| r.value == line.value(k) && r.ts.as_nanos() == line.ts(k));
        ledger.check(right, || {
            format!("{topic} [{a}, {b}] after reopen: {} rows", got.len())
        });
    }
    if traced {
        measured.layers.set("storage.recovery_ms", recovery_ms);
        measured
            .layers
            .set("storage.recovered_readings", recovered as f64);
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    measured.ledger = ledger;
    measured
}
