//! Figure 5 (paper §VI-A): Query Engine overhead heatmaps in absolute
//! and relative mode, and the §VI-A footprint claims read off the same
//! grid.
//!
//! Each cell builds the paper's Pusher — a tester monitoring plugin
//! with 1000 monotonic sensors sampled every 1 s into a 180 s cache, and
//! a tester operator performing `queries` queries of `range_ms` each per
//! 1 s interval — and ticks it in virtual time: 180 ticks fill the
//! cache, then `repeats` repeats of `ticks_per_repeat` ticks are timed.
//! A repeat's value is the ticking thread's own CPU time
//! (`CLOCK_THREAD_CPUTIME_ID`) over its ticks divided by the simulated
//! time they cover: the Pusher's share of one core, in percent. Each
//! cell reports the median with p25 and p75, and the bytes its sensor
//! caches hold.
//!
//! The paper measures the increase of HPL runtime on a 64-core node
//! instead. On one saturated core the Pusher's CPU time displaces the
//! application one for one, so this share is an upper bound on that
//! overhead.
//!
//! The run fails with a nonzero exit on a tick error, on a tester output
//! other than the reading count the cell implies
//! ([`readings_per_query`]), and on a cell whose spread (p75 − p25)
//! exceeds its median. Writes `bench-results/fig5_absolute.json` and
//! `bench-results/fig5_relative.json`.
//!
//! ```text
//! cargo run --release --example fig5
//! ```

use dcdb_common::time::{Timestamp, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_pusher::{Pusher, PusherConfig, TesterMonitoringPlugin};
use dcdb_wintermute::dcdb_sim::report::{write_json_report, BenchMeta};
use oda_ml::stats::quantile;
use serde::Serialize;
use wintermute::prelude::*;
use wintermute_plugins::TesterPlugin;

/// Sensor cache length, seconds; at one sample per second also the
/// number of ticks that fill it before anything is timed.
const CACHE_SECS: u64 = 180;

/// The paper's grid and how each cell is timed.
#[derive(Debug, Clone)]
struct Fig5Config {
    /// Query-count axis (paper: 2, 10, 100, 500, 1000).
    queries_axis: Vec<usize>,
    /// Query-range axis in ms (paper: 0, 12 500, 25 000, 50 000, 100 000).
    range_axis_ms: Vec<u64>,
    /// Tester sensor count (paper: 1000).
    sensors: usize,
    /// Timed repeats per cell (paper: 10; median taken).
    repeats: usize,
    /// Ticks, one simulated second each, per repeat.
    ticks_per_repeat: u64,
}

impl Fig5Config {
    fn paper() -> Fig5Config {
        Fig5Config {
            queries_axis: vec![2, 10, 100, 500, 1000],
            range_axis_ms: vec![0, 12_500, 25_000, 50_000, 100_000],
            sensors: 1000,
            repeats: 10,
            ticks_per_repeat: 10,
        }
    }
}

/// One heatmap cell.
#[derive(Debug, Clone, Serialize)]
struct OverheadCell {
    /// Queries per computation interval.
    queries: usize,
    /// Temporal range of each query, milliseconds.
    range_ms: u64,
    /// Pusher thread CPU time over simulated time, % of one core:
    /// median over the repeats.
    cpu_pct: f64,
    /// 25th percentile over the repeats.
    cpu_pct_p25: f64,
    /// 75th percentile over the repeats.
    cpu_pct_p75: f64,
    /// Readings the tester's queries returned per tick (checked on
    /// every tick).
    readings_per_tick: u64,
    /// Bytes held by the Pusher's sensor caches after the run.
    cache_memory_bytes: usize,
}

/// One §VI-A claim, judged over a mode's whole grid.
#[derive(Debug, Clone, Serialize)]
struct Claim {
    /// The claim, as the paper states it.
    claim: String,
    /// The grid's worst value, in the claim's unit.
    measured: f64,
    /// The paper's bound, same unit.
    bound: f64,
    /// The worst value is within the bound.
    met: bool,
}

/// One query mode's grid and its verdicts.
#[derive(Debug, Clone, Serialize)]
struct Fig5Result {
    /// `"absolute"` or `"relative"`.
    mode: String,
    /// One cell per (range, queries) pair.
    cells: Vec<OverheadCell>,
    /// The three §VI-A claims.
    claims: Vec<Claim>,
}

/// CPU time consumed by the calling thread, nanoseconds, through a raw
/// `clock_gettime` binding (the workspace vendors no `libc`).
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on every 64-bit Linux target) that the call only
    // writes; the clock id is a valid constant of <time.h>.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Builds the Figure 5 Pusher: tester monitoring plugin (`sensors`
/// monotonic sensors @ 1 s) plus one tester operator with the given
/// query load. Returns the pusher, ready to tick.
fn build_tester_pusher(sensors: usize, queries: usize, mode: &str, range_ms: u64) -> Pusher {
    let prefix = Topic::parse("/hpl-node/tester").expect("valid prefix");
    let mut pusher = Pusher::new(
        PusherConfig {
            sampling_interval_ms: 1000,
            cache_secs: CACHE_SECS,
            publish: false, // fig5 measures the Pusher+engine, not the bus
            ..PusherConfig::default()
        },
        None,
    );
    pusher.add_monitoring_plugin(Box::new(
        TesterMonitoringPlugin::new(&prefix, sensors).expect("tester plugin"),
    ));
    pusher.refresh_sensor_tree();
    pusher.manager().register_plugin(Box::new(TesterPlugin));
    pusher
        .manager()
        .load(
            PluginConfig::online("tester-op", "tester", 1000)
                .with_patterns(
                    &["<bottomup, filter ^t[0-9]+$>value"],
                    &["<bottomup-1>tester-out"],
                )
                .with_option("queries", queries as u64)
                .with_option("mode", mode)
                .with_option("range_ms", range_ms),
        )
        .expect("tester operator loads");
    pusher
}

/// Readings one tester query returns once `cached` readings, one per
/// simulated second, sit in each sensor's cache. An absolute query
/// counts the timestamps in `[now − range, now]`: ⌊range_s⌋ + 1. A
/// relative query sizes its read from the cache's interval estimate
/// (`SensorCache::read_relative`): ⌈range_s⌉ + 1.
fn readings_per_query(mode: &str, range_ms: u64, cached: u64) -> u64 {
    let span_s = if mode == "absolute" {
        range_ms / 1000
    } else {
        range_ms.div_ceil(1000)
    };
    (span_s + 1).min(cached)
}

/// Ticks `pusher` at `now` and returns the calling thread's CPU time for
/// the tick. Fails on a tick error and on a tester output other than
/// `expected` readings stamped `now`.
fn timed_tick(pusher: &Pusher, now: Timestamp, expected: u64) -> Result<u64, String> {
    let t0 = thread_cpu_ns();
    let report = pusher.tick(now);
    let cpu_ns = thread_cpu_ns() - t0;
    let at = now.as_secs();
    let report = report.map_err(|e| format!("tick at {at} s: {e}"))?;
    if !report.errors.is_empty() || !report.panics.is_empty() {
        return Err(format!(
            "tick at {at} s: errors {:?}, panics {:?}",
            report.errors, report.panics
        ));
    }
    let out = Topic::parse("/hpl-node/tester/tester-out").expect("valid topic");
    match pusher.query_engine().query(&out, QueryMode::Latest).first() {
        Some(r) if r.ts == now && r.value == expected as i64 => Ok(cpu_ns),
        other => Err(format!(
            "tick at {at} s: tester output {other:?}, expected {expected} readings"
        )),
    }
}

/// Runs one heatmap cell.
fn run_cell(
    config: &Fig5Config,
    mode: &str,
    queries: usize,
    range_ms: u64,
) -> Result<OverheadCell, String> {
    let pusher = build_tester_pusher(config.sensors, queries, mode, range_ms);
    let mut now = Timestamp::from_secs(1);
    let mut cached = 0u64;
    let mut step = || -> Result<u64, String> {
        cached += 1;
        let expected = queries as u64 * readings_per_query(mode, range_ms, cached);
        let cpu_ns = timed_tick(&pusher, now, expected)?;
        now = now.saturating_add_ns(NS_PER_SEC);
        Ok(cpu_ns)
    };
    for _ in 0..CACHE_SECS {
        step()?;
    }
    let mut shares = Vec::with_capacity(config.repeats);
    for _ in 0..config.repeats {
        let mut cpu_ns = 0;
        for _ in 0..config.ticks_per_repeat {
            cpu_ns += step()?;
        }
        shares.push(cpu_ns as f64 / (config.ticks_per_repeat * NS_PER_SEC) as f64 * 100.0);
    }
    let cell = OverheadCell {
        queries,
        range_ms,
        cpu_pct: quantile(&shares, 0.5),
        cpu_pct_p25: quantile(&shares, 0.25),
        cpu_pct_p75: quantile(&shares, 0.75),
        readings_per_tick: queries as u64 * readings_per_query(mode, range_ms, CACHE_SECS),
        cache_memory_bytes: pusher.query_engine().cache_memory_bytes(),
    };
    if cell.cpu_pct_p75 - cell.cpu_pct_p25 > cell.cpu_pct {
        return Err(format!(
            "{mode} cell {queries} × {range_ms} ms: spread [{}, {}] exceeds its median {}",
            cell.cpu_pct_p25, cell.cpu_pct_p75, cell.cpu_pct
        ));
    }
    Ok(cell)
}

/// Runs the full grid in one query mode (`"absolute"` / `"relative"`).
fn run_grid(config: &Fig5Config, mode: &str) -> Result<Vec<OverheadCell>, String> {
    let mut out = Vec::new();
    for &range_ms in &config.range_axis_ms {
        for &queries in &config.queries_axis {
            out.push(run_cell(config, mode, queries, range_ms)?);
        }
    }
    Ok(out)
}

/// Judges the three §VI-A claims by the grid's worst cell.
fn claims(cells: &[OverheadCell]) -> Vec<Claim> {
    let pct = cells.iter().map(|c| c.cpu_pct).fold(0.0, f64::max);
    let mb = cells
        .iter()
        .map(|c| c.cache_memory_bytes as f64 / 1e6)
        .fold(0.0, f64::max);
    [
        (
            "overhead below 0.5 % in every cell (% of a core)",
            pct,
            0.5,
            pct < 0.5,
        ),
        ("Pusher at most 1.2 % of a core (%)", pct, 1.2, pct <= 1.2),
        ("sensor caches below 25 MB (MB)", mb, 25.0, mb < 25.0),
    ]
    .map(|(claim, measured, bound, met)| Claim {
        claim: claim.to_string(),
        measured,
        bound,
        met,
    })
    .into()
}

/// Formats the Fig. 5 layout (rows = range, largest first; columns =
/// query counts), each cell as `median [p25, p75]` in % of one core.
fn format_heatmap(queries_axis: &[usize], cells: &[OverheadCell]) -> String {
    let mut out = String::from("range_ms \\ queries |");
    for q in queries_axis {
        out += &format!(" {q:>24} |");
    }
    for row in cells.chunks(queries_axis.len()).rev() {
        out += &format!("\n{:>18} |", row[0].range_ms);
        for c in row {
            let text = format!(
                "{:.4} [{:.4}, {:.4}]",
                c.cpu_pct, c.cpu_pct_p25, c.cpu_pct_p75
            );
            out += &format!(" {text:>24} |");
        }
    }
    out + "\n"
}

fn main() {
    let config = Fig5Config::paper();
    println!(
        "{} tester sensors @ 1 s, {CACHE_SECS} s cache filled before timing; \
         {} repeats × {} ticks per cell; value = Pusher thread CPU time / simulated time\n",
        config.sensors, config.repeats, config.ticks_per_repeat
    );

    for mode in ["absolute", "relative"] {
        println!(
            "=== Fig. 5{} — Pusher CPU, % of one core, median [p25, p75], {mode} mode ===",
            if mode == "absolute" { "a" } else { "b" }
        );
        let started = std::time::Instant::now();
        let cells = run_grid(&config, mode).unwrap_or_else(|e| {
            eprintln!("fig5 FAILED: {e}");
            std::process::exit(1);
        });
        print!("{}", format_heatmap(&config.queries_axis, &cells));
        let claims = claims(&cells);
        for c in &claims {
            println!(
                "{:<6} {}: {:.4} against {}",
                if c.met { "met" } else { "MISSED" },
                c.claim,
                c.measured,
                c.bound
            );
        }
        let result = Fig5Result {
            mode: mode.to_string(),
            cells,
            claims,
        };
        let meta = BenchMeta::new(&format!("fig5_{mode}"), None, &config, started);
        let path = write_json_report(&meta, &result).expect("write json");
        println!("raw data -> {}\n", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_small_cell_per_mode_counts_and_is_tight() {
        let config = Fig5Config {
            sensors: 200,
            ..Fig5Config::paper()
        };
        // 2 queries × 12 500 ms: 2 × 13 readings absolute, 2 × 14 relative.
        for (mode, readings) in [("absolute", 26), ("relative", 28)] {
            let cell = run_cell(&config, mode, 2, 12_500).unwrap();
            assert_eq!(cell.readings_per_tick, readings, "{mode}");
            assert!(cell.cpu_pct > 0.0, "{mode}: {cell:?}");
            assert!(
                cell.cpu_pct_p75 - cell.cpu_pct_p25 <= cell.cpu_pct,
                "{mode}: {cell:?}"
            );
            assert!(cell.cache_memory_bytes > 0);
        }
    }

    #[test]
    fn heatmap_formatting() {
        let cell = |queries, range_ms, cpu_pct| OverheadCell {
            queries,
            range_ms,
            cpu_pct,
            cpu_pct_p25: cpu_pct / 2.0,
            cpu_pct_p75: cpu_pct * 1.5,
            readings_per_tick: 0,
            cache_memory_bytes: 0,
        };
        let cells = vec![
            cell(2, 0, 0.1),
            cell(10, 0, 0.2),
            cell(2, 1000, 0.3),
            cell(10, 1000, 0.4),
        ];
        let table = format_heatmap(&[2, 10], &cells);
        assert!(table.contains("0.1000 [0.0500, 0.1500]"));
        assert!(table.contains("0.4000 [0.2000, 0.6000]"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn claims_are_judged_by_the_worst_cell() {
        let mut cell = OverheadCell {
            queries: 2,
            range_ms: 0,
            cpu_pct: 0.6,
            cpu_pct_p25: 0.5,
            cpu_pct_p75: 0.7,
            readings_per_tick: 2,
            cache_memory_bytes: 3_000_000,
        };
        let verdicts =
            |cells: &[OverheadCell]| -> Vec<bool> { claims(cells).iter().map(|c| c.met).collect() };
        assert_eq!(verdicts(&[cell.clone()]), [false, true, true]);
        cell.cpu_pct = 0.01;
        cell.cache_memory_bytes = 30_000_000;
        assert_eq!(verdicts(&[cell]), [true, true, false]);
    }
}
