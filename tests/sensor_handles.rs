//! A unit binds its sensors once, reads them through the handles it
//! keeps and publishes through them (paper §III-B, §V-B, §V-C). These
//! tests hold that path to `QueryEngine::query`'s answers and counters,
//! and to the publishing rules of the runtime.

// The equivalence check holds what `iter` yields to `len` on purpose.
#![allow(clippy::iter_count)]

use dcdb_wintermute::dcdb_common::batch::ReadingBatch;
use dcdb_wintermute::dcdb_common::reading::encode_f64;
use dcdb_wintermute::dcdb_common::time::NS_PER_SEC;
use dcdb_wintermute::dcdb_common::{SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_storage::{DurableBackend, StorageEngine};
use dcdb_wintermute::wintermute::prelude::*;
use dcdb_wintermute::wintermute_plugins::persyst::decode_decile;
use dcdb_wintermute::wintermute_plugins::{
    AggregatorPlugin, PerfMetricsPlugin, PersystPlugin, SmootherPlugin, TesterPlugin,
};
use std::sync::Arc;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn r(value: i64, secs: u64) -> SensorReading {
    SensorReading::new(value, Timestamp::from_secs(secs))
}

/// Every mode worth asking of a sensor whose readings sit at seconds
/// `1..=newest`.
fn modes(newest: u64) -> Vec<QueryMode> {
    let absolute = |t0: u64, t1: u64| QueryMode::Absolute {
        t0: Timestamp::from_secs(t0),
        t1: Timestamp::from_secs(t1),
    };
    let mut modes = vec![QueryMode::Latest];
    for offset_s in [0, 1, 3, 7, 1000] {
        modes.push(QueryMode::Relative {
            offset_ns: offset_s * NS_PER_SEC,
        });
    }
    modes.extend([
        absolute(newest.saturating_sub(2), newest), // inside the cache
        absolute(newest.saturating_sub(20), newest), // straddles its oldest
        absolute(1, 5),                             // wholly evicted
        absolute(newest + 5, newest + 9),           // the future
        absolute(newest, newest.saturating_sub(1)), // inverted
        QueryMode::Absolute {
            t0: Timestamp::ZERO,
            t1: Timestamp::MAX,
        },
    ]);
    modes
}

/// The counters a read moves.
fn read_counts(engine: &QueryEngine) -> (u64, u64, u64) {
    let stats = engine.stats();
    (stats.cache_hits, stats.storage_fallbacks, stats.misses)
}

/// Reads every input of `unit` in every mode three ways — `query`, the
/// by-topic `view`, the unit's bound handle — and holds the answers and
/// the counters each moved to one another.
fn assert_reads_agree(engine: &QueryEngine, unit: &Unit, newest: u64) {
    for (k, topic) in unit.inputs.iter().enumerate() {
        for mode in modes(newest) {
            let before = read_counts(engine);
            let queried = engine.query(topic, mode);
            let after_query = read_counts(engine);
            let viewed = engine.view(topic, mode, |view| view.to_vec());
            let after_view = read_counts(engine);
            let bound = {
                let ctx = ComputeContext::new(engine, Timestamp::from_secs(newest));
                ctx.input_view(unit, k, mode, |view| {
                    assert_eq!(view.len(), view.iter().count());
                    view.to_vec()
                })
            };
            let after_bound = read_counts(engine);
            assert_eq!(viewed, queried, "view: {topic} {mode:?}");
            assert_eq!(bound, queried, "handle: {topic} {mode:?}");
            let moved = |a: (u64, u64, u64), b: (u64, u64, u64)| (b.0 - a.0, b.1 - a.1, b.2 - a.2);
            let by_query = moved(before, after_query);
            assert_eq!(by_query.0 + by_query.1 + by_query.2, 1, "{topic} {mode:?}");
            assert_eq!(moved(after_query, after_view), by_query, "{topic} {mode:?}");
            assert_eq!(moved(after_view, after_bound), by_query, "{topic} {mode:?}");
        }
    }
}

fn unit_over(inputs: &[&Topic]) -> Unit {
    Unit::new(
        t("/n0"),
        inputs.iter().map(|&topic| topic.clone()).collect(),
        vec![t("/n0/out")],
    )
}

#[test]
fn handle_and_view_reads_equal_query() {
    let (wrapped, short, empty) = (t("/n0/wrapped"), t("/n0/short"), t("/n0/empty"));
    let (cold, late, never) = (t("/n0/cold"), t("/n0/late"), t("/n0/never"));
    let inputs = [&wrapped, &short, &empty, &cold, &late, &never];
    for with_storage in [false, true] {
        let engine = if with_storage {
            let storage = Arc::new(DurableBackend::in_memory());
            // Stored before the engine existed: known to storage only.
            let batch = (1..=30).map(|s| r(s as i64, s)).collect();
            storage.insert_columns(&cold, &batch).unwrap();
            QueryEngine::with_storage(8, storage as Arc<dyn StorageEngine>)
        } else {
            QueryEngine::new(8)
        };
        // A ring of 8 wrapped six times over, one not yet full, and a
        // cache that exists and holds nothing.
        for s in 1..=50u64 {
            engine.insert(&wrapped, r(s as i64, s));
        }
        for s in 48..=50u64 {
            engine.insert(&short, r(-(s as i64), s));
        }
        engine.insert_columns(&empty, &ReadingBatch::with_capacity(0));
        assert!(engine.knows(&empty) && !engine.knows(&late) && !engine.knows(&cold));

        // One unit throughout: the first pass binds what it can, the
        // second reads through the handles.
        let unit = unit_over(&inputs);
        assert_reads_agree(&engine, &unit, 50);
        assert_reads_agree(&engine, &unit, 50);

        // A topic created after the unit bound is found on its next
        // read; the empty cache fills; the rings wrap on.
        for s in 51..=57u64 {
            engine.insert(&late, r(7 * s as i64, s));
            engine.insert(&empty, r(3, s));
            engine.insert(&wrapped, r(s as i64, s));
            assert_reads_agree(&engine, &unit, s);
        }
        // A clone starts unbound and binds for itself; a unit met by a
        // second engine reads that engine, by topic.
        assert_reads_agree(&engine, &unit.clone(), 57);
        let other = QueryEngine::new(4);
        other.insert(&wrapped, r(-1, 99));
        assert_reads_agree(&other, &unit, 99);
        assert_reads_agree(&engine, &unit, 57);
    }
}

/// How many readings a tick returned for its host to forward.
fn returned(report: &TickReport) -> usize {
    report.outputs.iter().map(Vec::len).sum()
}

/// Feeds second `k` of a four-node, two-core system: counters with CPI
/// 2, node power, and one node whose power no aggregate can hold.
fn feed(engine: &QueryEngine, k: u64) {
    for node in 0..4u64 {
        for cpu in 0..2u64 {
            let instructions = (k * (node * 2 + cpu + 1)) as i64;
            let core = format!("/r0/n{node}/cpu{cpu}");
            engine.insert(&t(&format!("{core}/cycles")), r(2 * instructions, k));
            engine.insert(&t(&format!("{core}/instructions")), r(instructions, k));
        }
        engine.insert(&t(&format!("/r0/n{node}/power")), r(100 + node as i64, k));
    }
    engine.insert(&t("/r1/n0/power"), r(i64::MAX, k));
}

/// An engine over in-memory storage with small caches, fed seconds
/// `1..=12`, a fan per node that never reports, and a manager with the
/// in-tree plugins on it.
fn plant() -> (Arc<QueryEngine>, Arc<OperatorManager>) {
    let storage: Arc<dyn StorageEngine> = Arc::new(DurableBackend::in_memory());
    let engine = Arc::new(QueryEngine::with_storage(8, storage));
    for k in 1..=12 {
        feed(&engine, k);
    }
    // In the tree, never fed: reads of these miss.
    let mut tree = engine.topics();
    tree.extend((0..4).map(|node| t(&format!("/r0/n{node}/fan"))));
    engine.set_navigator(SensorNavigator::build(&tree));
    let manager = OperatorManager::new(Arc::clone(&engine));
    manager.register_plugin(Box::new(PerfMetricsPlugin));
    manager.register_plugin(Box::new(AggregatorPlugin));
    manager.register_plugin(Box::new(SmootherPlugin));
    manager.register_plugin(Box::new(TesterPlugin));
    (engine, manager)
}

/// The counters of a run the parent commit's runtime — every read a
/// `query()`, every output an `insert()`, each counted as it happened —
/// was put through; this runtime counts reads per run and outputs per
/// publish and must arrive at the same sums. No instance reads what
/// another writes, so the order of instances does not enter.
#[test]
fn query_stats_after_a_scripted_run_equal_the_parents() {
    let (engine, manager) = plant();
    let fed = engine.stats();
    assert_eq!(fed.inserts, 12 * (4 * 2 * 2 + 4 + 1));
    let load = |config: PluginConfig| manager.load(config).unwrap();
    // One instance fails on every tick: keep it out of quarantine.
    manager.set_fault_policy(FaultPolicy {
        quarantine_threshold: 100,
    });
    load(
        PluginConfig::online("cpi", "perfmetrics", 1000).with_patterns(
            &[
                "<bottomup, filter cpu>cycles",
                "<bottomup, filter cpu>instructions",
            ],
            &["<bottomup, filter cpu>cpi"],
        ),
    );
    load(
        PluginConfig::online("rack-power", "aggregator", 1000)
            .with_patterns(&["<bottomup-1>power"], &["<topdown, filter ^r0$>power-avg"]),
    );
    load(
        PluginConfig::online("smooth", "smoother", 2000).with_patterns(
            &["<bottomup-1, filter ^n[12]$>power"],
            &["<bottomup-1, filter ^n[12]$>power-smooth"],
        ),
    );
    // Absolute ranges of 11 s over caches of 8: every query stitches
    // storage to the cache.
    load(
        PluginConfig::online("probe", "tester", 1000)
            .with_patterns(
                &["<bottomup-1, filter ^n[23]$>power"],
                &["<topdown, filter ^r0$>probed"],
            )
            .with_option("queries", 5u64)
            .with_option("mode", "absolute")
            .with_option("range_ms", 11_000u64),
    );
    // Nothing to aggregate, ever: four misses a tick, no output.
    load(
        PluginConfig::online("fans", "aggregator", 1000)
            .with_patterns(&["<bottomup-1>fan"], &["<topdown, filter ^r0$>fan-avg"]),
    );
    // The rack whose one node overflows any sum: an error every tick,
    // nothing published.
    load(
        PluginConfig::online("overflow", "aggregator", 1000)
            .with_patterns(&["<bottomup-1>power"], &["<topdown, filter ^r1$>power-sum"])
            .with_option("op", "sum")
            .with_option("window_ms", 60_000u64),
    );
    let (mut published, mut returned_total) = (0, 0);
    for k in 13..=18 {
        feed(&engine, k);
        let report = manager.tick(Timestamp::from_secs(k));
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].starts_with("overflow: "),
            "{:?}",
            report.errors
        );
        published += report.outputs_published;
        returned_total += returned(&report);
    }
    // On demand: computed and returned, neither published nor counted
    // as inserted — its reads are counted.
    let outputs = manager
        .on_demand("cpi", &t("/r0/n3/cpu1"), Timestamp::from_secs(18))
        .unwrap();
    assert_eq!(outputs[0].1.value, encode_f64(2.0));
    let stats = engine.stats();
    assert_eq!(returned_total, published);
    assert_eq!(stats.inserts - fed.inserts, 6 * 21 + published as u64);
    assert_eq!(
        (
            published,
            stats.cache_hits,
            stats.storage_fallbacks,
            stats.misses,
            stats.storage_errors
        ),
        (66, 134, 30, 24, 0),
        "the parent's counts"
    );
}

#[test]
fn an_erroring_unit_publishes_nothing_from_its_operator() {
    let (engine, manager) = plant();
    // Per-node sums in one operator: four nodes of r0 sum fine, then
    // the node of r1 overflows — after four units have succeeded.
    manager
        .load(
            PluginConfig::online("sums", "aggregator", 1000)
                .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-sum"])
                .with_option("op", "sum")
                .with_option("window_ms", 60_000u64),
        )
        .unwrap();
    manager
        .load(
            PluginConfig::online("means", "aggregator", 1000)
                .with_patterns(&["<bottomup-1>power"], &["<topdown, filter ^r0$>power-avg"]),
        )
        .unwrap();
    assert_eq!(manager.units_of("sums").unwrap().len(), 5);
    let before = engine.stats();
    let mut returned_total = 0;
    for k in 13..=15 {
        let report = manager.tick(Timestamp::from_secs(k));
        returned_total += returned(&report);
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].contains("aggregator sums"),
            "{:?}",
            report.errors
        );
        // The healthy operator beside it published its one output.
        assert_eq!((report.successes, report.outputs_published), (1, 1));
    }
    for node in 0..4 {
        assert!(!engine.knows(&t(&format!("/r0/n{node}/power-sum"))));
    }
    assert!(!engine.knows(&t("/r1/n0/power-sum")));
    assert_eq!(returned_total, 3);
    assert_eq!(engine.stats().inserts - before.inserts, 3);
    let sums = &manager.operator_metrics()[1];
    assert_eq!((sums.name.as_str(), sums.operators[0].errors), ("sums", 3));
    assert_eq!(sums.operators[0].outputs, 0);
}

#[test]
fn a_job_operator_whose_units_change_every_tick_rebinds() {
    let engine = Arc::new(QueryEngine::new(16));
    let cpi = |node: u64, cpu: u64| t(&format!("/r0/n{node}/cpu{cpu}/cpi"));
    // Core (node, cpu) reports CPI node*10 + cpu + tick/100.
    let feed = |k: u64| {
        for node in 0..3 {
            for cpu in 0..2 {
                let value = (node * 10 + cpu) as f64 + k as f64 / 100.0;
                engine.insert(&cpi(node, cpu), r(encode_f64(value), k));
            }
        }
    };
    feed(1);
    engine.rebuild_navigator();
    let jobs = Arc::new(StaticJobSource::new());
    let manager = OperatorManager::new(Arc::clone(&engine));
    manager.register_plugin(Box::new(PersystPlugin::new(
        Arc::clone(&jobs) as Arc<dyn JobDataSource>
    )));
    manager
        .load(PluginConfig::online("ps", "persyst", 1000))
        .unwrap();
    let job = |id: u64, nodes: &[u64]| JobInfo {
        id,
        user: "u".into(),
        node_paths: nodes.iter().map(|n| t(&format!("/r0/n{n}"))).collect(),
    };
    // The same job id moves across nodes, shares a tick with another
    // job, goes and comes back: its unit is rebuilt every tick with the
    // same name and outputs over other inputs.
    let schedule: [&[(u64, &[u64])]; 6] = [
        &[(1, &[0])],
        &[(1, &[1])],
        &[(1, &[2, 0]), (2, &[1])],
        &[(2, &[0, 1, 2])],
        &[],
        &[(1, &[1]), (2, &[2])],
    ];
    for (tick, running) in schedule.iter().enumerate() {
        let k = tick as u64 + 2;
        feed(k);
        jobs.set_jobs(running.iter().map(|(id, nodes)| job(*id, nodes)).collect());
        let now = Timestamp::from_secs(k);
        let report = manager.tick(now);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.outputs_published, 11 * running.len());
        assert_eq!(manager.list()[0].4, running.len(), "listed units");
        for (id, nodes) in running.iter() {
            // d0 and d10 are the least and greatest CPI on the job's
            // nodes *this* tick.
            let (least, greatest) = (nodes.iter().min().unwrap(), nodes.iter().max().unwrap());
            for (decile, want) in [
                ("d0", (least * 10) as f64 + k as f64 / 100.0),
                ("d10", (greatest * 10 + 1) as f64 + k as f64 / 100.0),
            ] {
                let got = engine.query(&t(&format!("/job/{id}/{decile}")), QueryMode::Latest);
                assert_eq!(got[0].ts, now, "job {id} {decile} tick {k}");
                assert!(
                    (decode_decile(&got[0]) - want).abs() < 1e-9,
                    "job {id} {decile} tick {k}: {} != {want}",
                    decode_decile(&got[0])
                );
            }
        }
    }
}
