//! `operator_tick`: the Wintermute operator runtime, nothing else.
//!
//! Phase B (every run): a cache-only `QueryEngine` is fed per-core
//! `cycles`/`instructions` and per-node `power` once per virtual second
//! at `Topology::coolmuc3()` counts, and one `OperatorManager` runs the
//! paper's §VI-C first stage and §VII aggregation as a pipeline —
//! `perfmetrics` per core → `aggregator` per node over its cores' `cpi`
//! outputs, a `smoother` per node on `power`, one system-level
//! `aggregator`. Counters are chosen so every core's CPI is exactly
//! 2.000. No bus, no storage, no REST: the bypass workload for every
//! I/O optimisation.
//!
//! Phase A (traced runs only, feeds `pusher.*` and
//! `plugins.tester_ns_per_query`): the paper's §VI-A overhead
//! configuration — one Pusher, 1000 tester sensors at 1 s, 180 s cache,
//! publishing off, a tester operator issuing 100 relative queries of
//! 25 s per interval.

use super::{Measured, Phase, RunConfig};
use crate::metrics::{ratio, Values};
use crate::oracle::Ledger;
use crate::stats::{self, Rng};
use crate::sys;
use crate::trace::{self, span, Sp};
use crate::wrap::{TimedOperatorPlugin, TimedPlugin};
use dcdb_common::batch::ReadingBatch;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_pusher::{MonitoringPlugin, Pusher, PusherConfig, TesterMonitoringPlugin};
use sim_cluster::Topology;
use std::sync::Arc;
use std::time::Instant;
use wintermute::prelude::*;
use wintermute_plugins::{AggregatorPlugin, PerfMetricsPlugin, SmootherPlugin, TesterPlugin};

/// Phase B ticks per second of `--seconds` on the reference box.
const TICKS_PER_SECOND: f64 = 70.0;
const WARMUP_TICKS: u64 = 20;
const CACHE_SLOTS: usize = 181;
/// Fixed-point CPI every core must report: cycles are always twice the
/// instructions.
const CPI_2000: i64 = 2000;

fn topic(path: &str) -> Topic {
    Topic::parse(path).expect("valid topic")
}

/// The phase B system: input topics, their feeder, the manager.
struct Plant {
    engine: Arc<QueryEngine>,
    manager: Arc<OperatorManager>,
    /// `(cycles, instructions, cpi)` per core, node-major.
    cores: Vec<(Topic, Topic, Topic)>,
    /// `(power, cpi-avg, power-smooth)` per node.
    nodes: Vec<(Topic, Topic, Topic)>,
    system_power: Topic,
    cores_per_node: usize,
    units: u64,
    resolve_units_ms: f64,
}

fn register(manager: &OperatorManager, plugin: Box<dyn OperatorPlugin>, sp: Sp, traced: bool) {
    manager.register_plugin(if traced {
        Box::new(TimedOperatorPlugin {
            inner: plugin,
            span: sp,
        })
    } else {
        plugin
    });
}

impl Plant {
    fn build(topology: &Topology, traced: bool) -> Plant {
        let mut cores = Vec::new();
        let mut nodes = Vec::new();
        for n in 0..topology.total_nodes {
            let (rack, slot) = topology.locate(n);
            // A root above the racks gives the system-level unit a node.
            let node = format!("/cm3/rack{rack:02}/node{slot:02}");
            nodes.push((
                topic(&format!("{node}/power")),
                topic(&format!("{node}/cpi-avg")),
                topic(&format!("{node}/power-smooth")),
            ));
            for c in 0..topology.cores_per_node {
                let core = format!("{node}/cpu{c:02}");
                cores.push((
                    topic(&format!("{core}/cycles")),
                    topic(&format!("{core}/instructions")),
                    topic(&format!("{core}/cpi")),
                ));
            }
        }
        let engine = Arc::new(QueryEngine::new(CACHE_SLOTS));
        // The per-node aggregator binds the `cpi` sensors perfmetrics
        // will produce, so they are in the tree before it loads.
        let tree: Vec<&Topic> = cores
            .iter()
            .flat_map(|(a, b, c)| [a, b, c])
            .chain(nodes.iter().map(|(power, _, _)| power))
            .collect();
        engine.set_navigator(SensorNavigator::build(tree));
        let manager = OperatorManager::new(Arc::clone(&engine));
        register(
            &manager,
            Box::new(PerfMetricsPlugin),
            Sp::ComputePerfmetrics,
            traced,
        );
        register(
            &manager,
            Box::new(AggregatorPlugin),
            Sp::ComputeAggregator,
            traced,
        );
        register(
            &manager,
            Box::new(SmootherPlugin),
            Sp::ComputeSmoother,
            traced,
        );

        let resolve = Instant::now();
        manager
            .load(
                PluginConfig::online("cpi", "perfmetrics", 1000).with_patterns(
                    &[
                        "<bottomup, filter cpu>cycles",
                        "<bottomup, filter cpu>instructions",
                    ],
                    &["<bottomup, filter cpu>cpi"],
                ),
            )
            .expect("perfmetrics loads");
        let resolve_units_ms = resolve.elapsed().as_secs_f64() * 1e3;
        manager
            .load(
                PluginConfig::online("node-cpi", "aggregator", 1000)
                    .with_patterns(&["<bottomup, filter cpu>cpi"], &["<bottomup-1>cpi-avg"]),
            )
            .expect("per-node aggregator loads");
        manager
            .load(
                PluginConfig::online("node-power", "smoother", 1000)
                    .with_patterns(&["<bottomup-1>power"], &["<bottomup-1>power-smooth"]),
            )
            .expect("smoother loads");
        manager
            .load(
                PluginConfig::online("system-power", "aggregator", 1000)
                    .with_patterns(&["<bottomup-1>power"], &["<topdown>power-avg"]),
            )
            .expect("system aggregator loads");
        let units = manager.list().iter().map(|entry| entry.4 as u64).sum();
        Plant {
            engine,
            manager,
            cores,
            nodes,
            system_power: topic("/cm3/power-avg"),
            cores_per_node: topology.cores_per_node,
            units,
            resolve_units_ms,
        }
    }

    fn node_power(n: usize) -> i64 {
        100 + 2 * n as i64
    }

    /// One virtual second of monitoring data, straight into the cache.
    fn feed(&self, k: u64, batch: &mut ReadingBatch) {
        let now = Timestamp::from_secs(k);
        let mut put = |topic: &Topic, value: i64| {
            batch.clear();
            batch.push(value, now);
            self.engine.insert_columns(topic, batch);
        };
        for (g, (cycles, instructions, _)) in self.cores.iter().enumerate() {
            let instr = (k * (g as u64 + 1)) as i64;
            put(cycles, 2 * instr);
            put(instructions, instr);
        }
        for (n, (power, _, _)) in self.nodes.iter().enumerate() {
            put(power, Plant::node_power(n));
        }
    }

    fn latest(&self, topic: &Topic) -> Option<(i64, u64)> {
        self.engine
            .query(topic, QueryMode::Latest)
            .first()
            .map(|r| (r.value, r.ts.as_nanos()))
    }

    /// Checks this tick's outputs for seeded probe units.
    fn check(&self, k: u64, rng: &mut Rng, ledger: &mut Ledger) {
        let now = Timestamp::from_secs(k).as_nanos();
        let n = rng.below(self.nodes.len() as u64) as usize;
        let g = n * self.cores_per_node + rng.below(self.cores_per_node as u64) as usize;
        let (_, cpi_avg, smooth) = &self.nodes[n];
        let mean_power = 100 + self.nodes.len() as i64 - 1;
        let expectations = [
            (&self.cores[g].2, CPI_2000),
            (cpi_avg, CPI_2000),
            (smooth, Plant::node_power(n)),
            (&self.system_power, mean_power),
        ];
        for (topic, want) in expectations {
            let got = self.latest(topic);
            ledger.check(got == Some((want, now)), || {
                format!("tick {k}: {topic} is {got:?}, want ({want}, {now})")
            });
        }
    }
}

/// Phase A: the §VI-A Pusher. Returns its per-layer metrics.
fn pusher_overhead(cfg: &RunConfig, scale: f64, ledger: &mut Ledger) -> Values {
    let (sensors, queries) = if cfg.smoke { (100, 10) } else { (1000, 100) };
    let ticks = if cfg.smoke {
        60
    } else {
        ((150.0 * cfg.seconds * scale) as u64).max(60)
    };
    let prefix = topic("/hpl-node/tester");
    let mut pusher = Pusher::new(
        PusherConfig {
            publish: false,
            ..PusherConfig::default()
        },
        None,
    );
    let tester: Box<dyn MonitoringPlugin> =
        Box::new(TesterMonitoringPlugin::new(&prefix, sensors).expect("tester plugin"));
    pusher.add_monitoring_plugin(Box::new(TimedPlugin(tester)));
    pusher.refresh_sensor_tree();
    register(
        pusher.manager(),
        Box::new(TesterPlugin),
        Sp::ComputeTester,
        true,
    );
    pusher
        .manager()
        .load(
            PluginConfig::online("tester-op", "tester", 1000)
                .with_patterns(
                    &["<bottomup, filter ^t[0-9]+$>value"],
                    &["<bottomup-1>tester-out"],
                )
                .with_option("queries", queries as u64)
                .with_option("mode", "relative")
                .with_option("range_ms", 25_000u64),
        )
        .expect("tester operator loads");
    for k in 1..=30 {
        pusher.tick(Timestamp::from_secs(k)).expect("warm-up tick");
    }

    trace::enable();
    trace::install(ticks as usize);
    let cpu = sys::thread_cpu_ns();
    for k in 31..=30 + ticks {
        let report = {
            let _tick = span(Sp::PusherTick);
            pusher.tick(Timestamp::from_secs(k)).expect("pusher tick")
        };
        trace::next_round();
        ledger.check(report.errors.is_empty() && report.panics.is_empty(), || {
            format!("phase A tick {k}: {:?} {:?}", report.errors, report.panics)
        });
    }
    let cpu_ns = sys::thread_cpu_ns() - cpu;
    let tracer = trace::finish().expect("installed");
    // Every query of a full 25 s window at 1 s returns 26 readings.
    let out = pusher
        .query_engine()
        .query(&topic("/hpl-node/tester/tester-out"), QueryMode::Latest);
    let want = 26 * queries as i64;
    ledger.check(out.first().is_some_and(|r| r.value == want), || {
        format!("tester-out is {out:?}, want {want}")
    });

    let readings = (ticks * sensors as u64) as f64;
    let tick = tracer.total(Sp::PusherTick);
    let compute = tracer.total(Sp::ComputeTester);
    let mut v = Values::default();
    v.set("pusher.tick_ns_per_reading", tick.busy_ns as f64 / readings);
    v.set(
        "pusher.sample_ns_per_reading",
        tracer.total(Sp::PusherSample).busy_ns as f64 / readings,
    );
    v.set(
        "pusher.tick_self_ns_per_reading",
        tick.self_ns() as f64 / readings,
    );
    // Thread CPU inside `Pusher::tick` per sampled second, as a share
    // of one core: the paper's <= 1.2 % figure.
    v.set("pusher.cpu_pct", 100.0 * cpu_ns as f64 / ticks as f64 / 1e9);
    v.set(
        "pusher.cache_bytes",
        pusher.query_engine().cache_memory_bytes() as f64,
    );
    v.set(
        "plugins.tester_ns_per_query",
        ratio(
            compute.busy_ns as f64,
            (compute.count * queries as u64) as f64,
        ),
    );
    eprintln!(
        "reconciliation (operator_tick phase A):\n{}",
        tracer.reconciliation()
    );
    v
}

pub fn run(cfg: &RunConfig, traced: bool, scale: f64) -> Measured {
    let topology = if cfg.smoke {
        Topology::new(2, 3, 4)
    } else {
        Topology::coolmuc3()
    };
    let warmup = if cfg.smoke { 8 } else { WARMUP_TICKS };
    let ticks = if cfg.smoke {
        20
    } else {
        ((cfg.seconds * scale * TICKS_PER_SECOND).round() as u64).max(10)
    };
    let mut batch = ReadingBatch::with_capacity(1);
    let mut ledger = Ledger::default();
    let mut rng = Rng::new(cfg.seed, 40);
    if traced {
        trace::install(ticks as usize);
    }
    let setup = Instant::now();
    let plant = Plant::build(&topology, traced);
    for k in 1..=warmup {
        plant.feed(k, &mut batch);
        plant.manager.tick(Timestamp::from_secs(k));
    }
    // The time axis is time inside `OperatorManager::tick`: feeding the
    // cache is the monitoring side's cost, not the runtime's.
    let mut phase = Phase {
        setup_s: setup.elapsed().as_secs_f64(),
        ..Phase::default()
    };

    let (mut errors, mut panics, mut overruns) = (0, 0, 0);
    if traced {
        trace::enable();
    }
    for k in warmup + 1..=warmup + ticks {
        {
            let _feed = span(Sp::Feed);
            plant.feed(k, &mut batch);
        }
        let cpu = sys::thread_cpu_ns();
        let t0 = Instant::now();
        let report = {
            let _tick = span(Sp::ManagerTick);
            plant.manager.tick(Timestamp::from_secs(k))
        };
        let tick = t0.elapsed().as_secs_f64();
        phase.cpu_ns += sys::thread_cpu_ns() - cpu;
        phase.span_s += tick;
        phase.latencies_ms.push(tick * 1e3);
        phase.items += plant.units;
        trace::next_round();
        errors += report.errors.len();
        panics += report.panics.len();
        overruns += report.overruns;
        ledger.check(
            report.errors.is_empty() && report.panics.is_empty() && report.overruns == 0,
            || {
                format!(
                    "tick {k}: {:?} {:?} {} overruns",
                    report.errors, report.panics, report.overruns
                )
            },
        );
        plant.check(k, &mut rng, &mut ledger);
    }
    trace::disable();
    let tracer = trace::finish();
    let totals = plant.manager.metrics_totals();
    ledger.expect_eq(
        "operator errors",
        totals.errors + totals.panics + totals.overruns,
        0,
    );
    // The sensor cache is this workload's only store.
    let retained = plant.engine.sensor_count() as u64 * (warmup + ticks).min(CACHE_SLOTS as u64);
    phase.stored_bytes_per_reading = plant.engine.cache_memory_bytes() as f64 / retained as f64;

    let units = phase.items;
    let tick_sorted = stats::sorted(phase.latencies_ms.clone());
    let mut measured = Measured {
        phase,
        ..Measured::default()
    };

    if let Some(tracer) = &tracer {
        let mut layers = Values::default();
        let tick = tracer.total(Sp::ManagerTick);
        let per = |sp: Sp| {
            let t = tracer.total(sp);
            ratio(t.busy_ns as f64, t.count as f64)
        };
        layers.set("wintermute.resolve_units_ms", plant.resolve_units_ms);
        layers.set(
            "wintermute.tick_ns_per_unit",
            tick.busy_ns as f64 / units as f64,
        );
        layers.set(
            "wintermute.tick_self_ns_per_unit",
            tick.self_ns() as f64 / units as f64,
        );
        layers.set(
            "wintermute.tick_ms_p99",
            stats::percentile(&tick_sorted, 99.0),
        );
        layers.set(
            "plugins.perfmetrics_ns_per_unit",
            per(Sp::ComputePerfmetrics),
        );
        layers.set("plugins.aggregator_ns_per_unit", per(Sp::ComputeAggregator));
        layers.set("plugins.smoother_ns_per_unit", per(Sp::ComputeSmoother));
        layers.set("wintermute.errors", errors as f64);
        layers.set("wintermute.panics", panics as f64);
        layers.set("wintermute.overruns", overruns as f64);
        let stats_q = plant.engine.stats();
        layers.set(
            "cache.hit_share",
            ratio(
                stats_q.cache_hits as f64,
                (stats_q.cache_hits + stats_q.storage_fallbacks + stats_q.misses) as f64,
            ),
        );
        measured.reconciliation = Some(tracer.reconciliation());
        measured.trace_json = Some(tracer.to_json("operator_tick"));
        layers.extend(pusher_overhead(cfg, scale, &mut ledger));
        measured.layers = layers;
    }

    measured.ledger = ledger;
    measured
}
