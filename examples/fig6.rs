//! Figure 6 (paper §VI-B): online power-consumption prediction.
//!
//! A regressor operator runs in a node's Pusher at a 250 ms interval,
//! training a random forest on windowed statistics of local sensors
//! until its training set is full, then predicting node power one
//! interval ahead while CORAL-2 applications (Kripke, AMG, Nekbone,
//! LAMMPS) run on the node. The paper reports an average relative error
//! of 6.2 % at 250 ms (10.4 % at 125 ms, 6.7 % at 500 ms), with the
//! predicted series tracking the real one minus short turbo/noise
//! spikes. Prints the series excerpt (Fig. 6a) and the error per power
//! bin with its empirical PDF (Fig. 6b), and writes
//! `bench-results/fig6.json`.
//!
//! ```text
//! cargo run --release --example fig6             # scaled default
//! cargo run --release --example fig6 -- --full   # paper-size training
//! cargo run --release --example fig6 -- --sweep  # 125 / 250 / 500 ms
//! ```

use dcdb_common::reading::decode_f64;
use dcdb_common::time::{Timestamp, NS_PER_MS, NS_PER_SEC};
use dcdb_common::topic::Topic;
use dcdb_pusher::{Pusher, PusherConfig, SimMonitoringPlugin};
use dcdb_wintermute::dcdb_sim::report::{write_json_report, BenchMeta};
use oda_ml::stats::{mean, Histogram};
use parking_lot::Mutex;
use serde::Serialize;
use sim_cluster::{AppModel, ClusterConfig, ClusterSimulator, Topology};
use std::sync::Arc;
use wintermute::prelude::*;
use wintermute_plugins::RegressorPlugin;

/// Experiment configuration.
#[derive(Debug, Clone)]
struct Fig6Config {
    /// Sampling + prediction interval, ms (paper: 250; sweep 125/500).
    interval_ms: u64,
    /// Training set size (paper: 30 000).
    training_size: usize,
    /// Evaluation ticks after training completes.
    eval_ticks: usize,
    /// Cores on the simulated node (paper hardware: 64).
    cores: usize,
    /// Trees in the forest.
    trees: usize,
    /// RNG seed.
    seed: u64,
}

impl Fig6Config {
    /// The paper's configuration (expensive: 30 k training ticks).
    fn paper() -> Fig6Config {
        Fig6Config {
            interval_ms: 250,
            training_size: 30_000,
            eval_ticks: 2_000,
            cores: 64,
            trees: 20,
            seed: 0xF16,
        }
    }

    /// A scaled-down run preserving the shape (the default).
    fn quick() -> Fig6Config {
        Fig6Config {
            interval_ms: 250,
            training_size: 4_000,
            eval_ticks: 1_200,
            cores: 16,
            trees: 15,
            seed: 0xF16,
        }
    }
}

/// One evaluation point: time, real power, prediction for that time.
#[derive(Debug, Clone, Serialize)]
struct SeriesPoint {
    /// Seconds since evaluation start.
    t_s: f64,
    /// Real node power, watts.
    real_w: f64,
    /// Predicted power (made one interval earlier), watts.
    predicted_w: f64,
}

/// One relative-error bin of Fig. 6b.
#[derive(Debug, Clone, Serialize)]
struct ErrorBin {
    /// Bin-center power, watts.
    power_w: f64,
    /// Mean relative error of predictions for real powers in this bin.
    rel_error: f64,
    /// Empirical probability of this power bin (the fitted PDF overlay).
    probability: f64,
}

/// The experiment result.
#[derive(Debug, Clone, Serialize)]
struct Fig6Result {
    /// Interval used, ms.
    interval_ms: u64,
    /// Average relative prediction error (the paper's 6.2 % headline).
    avg_rel_error: f64,
    /// Time series excerpt (Fig. 6a).
    series: Vec<SeriesPoint>,
    /// Error-vs-power bins (Fig. 6b).
    bins: Vec<ErrorBin>,
    /// Training samples used.
    training_samples: usize,
}

/// Runs the experiment.
fn run(config: &Fig6Config) -> Fig6Result {
    // One node with the requested core count; manual workload.
    let topology = Topology::new(1, 1, config.cores);
    let sim = Arc::new(Mutex::new(ClusterSimulator::new(ClusterConfig {
        topology,
        seed: config.seed,
        auto_workload: false,
    })));

    let mut pusher = Pusher::new(
        PusherConfig {
            sampling_interval_ms: config.interval_ms,
            cache_secs: 180,
            publish: false,
            ..PusherConfig::default()
        },
        None,
    );
    pusher.add_monitoring_plugin(Box::new(SimMonitoringPlugin::new(Arc::clone(&sim), 0)));
    pusher.refresh_sensor_tree();
    pusher.manager().register_plugin(Box::new(RegressorPlugin));
    pusher
        .manager()
        .load(
            PluginConfig::online("power-reg", "regressor", config.interval_ms)
                .with_patterns(
                    &[
                        "<bottomup-1>power",
                        "<bottomup-1>memfree",
                        "<bottomup-1>cpu-idle",
                        "<bottomup, filter ^cpu0[0-3]$>cycles",
                        "<bottomup, filter ^cpu0[0-3]$>instructions",
                    ],
                    &["<bottomup-1>power-pred"],
                )
                .with_option("target", "power")
                .with_option("training_size", config.training_size as u64)
                .with_option("trees", config.trees as u64)
                .with_option("window_ms", config.interval_ms * 8)
                .with_option("seed", config.seed),
        )
        .expect("regressor loads");

    // Cycle CORAL-2 applications on the node while training+evaluating:
    // back-to-back jobs submitted through the scheduler, exactly like a
    // batch system would.
    let apps = AppModel::coral2();
    let interval_ns = config.interval_ms * NS_PER_MS;
    let total_ticks = config.training_size + config.eval_ticks + 16;
    let total_ns = total_ticks as u64 * interval_ns;
    let mut now = Timestamp::from_secs(1);
    {
        let mut sim = sim.lock();
        let mut job_start = now;
        let horizon = now.saturating_add_ns(total_ns + NS_PER_SEC);
        let mut app_idx = 0;
        while job_start < horizon {
            let app = apps[app_idx % apps.len()];
            app_idx += 1;
            let job_end = job_start.saturating_add_ns((app.nominal_duration_s() * 1e9) as u64);
            sim.submit_job("fig6", app, vec![0], job_start, job_end);
            job_start = job_end;
        }
    }

    let power_topic = Topic::parse("/rack00/node00/power").unwrap();
    let pred_topic = Topic::parse("/rack00/node00/power-pred").unwrap();

    for _ in 0..total_ticks {
        pusher.tick(now).expect("tick");
        now = now.saturating_add_ns(interval_ns);
    }

    // Align predictions with truth: the prediction written at tick k
    // targets the power at tick k+1.
    let everything = QueryMode::Absolute {
        t0: Timestamp::ZERO,
        t1: Timestamp::MAX,
    };
    let reals = pusher.query_engine().query(&power_topic, everything);
    let preds = pusher.query_engine().query(&pred_topic, everything);

    let mut series = Vec::new();
    let mut all_errors = Vec::new();
    let mut bin_hist = Histogram::new(48.0, 312.0, 22); // 12 W bins like Fig. 6b
    let mut bin_err_sum = [0.0f64; 22];
    let mut bin_err_count = [0usize; 22];

    let t0 = preds.first().map(|p| p.ts).unwrap_or(Timestamp::ZERO);
    for p in &preds {
        let target_ts = p.ts.saturating_add_ns(interval_ns);
        // Truth at the prediction's target time.
        let truth = reals
            .binary_search_by_key(&target_ts, |r| r.ts)
            .ok()
            .map(|i| reals[i].value as f64);
        let Some(truth) = truth else { continue };
        let predicted = decode_f64(p.value);
        if truth.abs() < 1.0 {
            continue;
        }
        let rel = ((predicted - truth) / truth).abs();
        all_errors.push(rel);
        series.push(SeriesPoint {
            t_s: p.ts.elapsed_since(t0) as f64 / 1e9,
            real_w: truth,
            predicted_w: predicted,
        });
        // Bin by real power.
        let bin = (((truth - 48.0) / 12.0) as usize).min(21);
        bin_err_sum[bin] += rel;
        bin_err_count[bin] += 1;
        bin_hist.add(truth);
    }

    let probs = bin_hist.probabilities();
    let bins = (0..22)
        .map(|i| ErrorBin {
            power_w: 48.0 + 12.0 * (i as f64 + 0.5),
            rel_error: if bin_err_count[i] > 0 {
                bin_err_sum[i] / bin_err_count[i] as f64
            } else {
                0.0
            },
            probability: probs[i],
        })
        .collect();

    Fig6Result {
        interval_ms: config.interval_ms,
        avg_rel_error: mean(&all_errors),
        series,
        bins,
        training_samples: config.training_size,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let sweep = args.iter().any(|a| a == "--sweep");

    if sweep {
        println!("=== §VI-B interval sweep (paper: 10.4% @125ms, 6.2% @250ms, 6.7% @500ms) ===");
        for interval_ms in [125u64, 250, 500] {
            let mut cfg = Fig6Config::quick();
            cfg.interval_ms = interval_ms;
            let started = std::time::Instant::now();
            let result = run(&cfg);
            println!(
                "interval {interval_ms:>4} ms -> avg relative error {:.1} % over {} points",
                result.avg_rel_error * 100.0,
                result.series.len()
            );
            let meta = BenchMeta::new(
                &format!("fig6_sweep_{interval_ms}ms"),
                Some(cfg.seed),
                &cfg,
                started,
            );
            write_json_report(&meta, &result).expect("write json");
        }
        return;
    }

    let config = if full {
        Fig6Config::paper()
    } else {
        Fig6Config::quick()
    };
    println!(
        "training {} samples at {} ms on a {}-core node ({} trees)...\n",
        config.training_size, config.interval_ms, config.cores, config.trees
    );
    let started = std::time::Instant::now();
    let result = run(&config);

    println!("=== Fig. 6a — real vs predicted node power (excerpt) ===");
    println!("{:>8} | {:>9} | {:>12}", "t[s]", "power[W]", "predicted[W]");
    for p in result
        .series
        .iter()
        .step_by(result.series.len().max(40) / 40)
    {
        println!(
            "{:>8.1} | {:>9.0} | {:>12.0}",
            p.t_s, p.real_w, p.predicted_w
        );
    }

    println!("\n=== Fig. 6b — relative error by power bin (with empirical PDF) ===");
    println!(
        "{:>9} | {:>10} | {:>11}",
        "power[W]", "rel.error", "probability"
    );
    for b in result.bins.iter().filter(|b| b.probability > 0.0) {
        println!(
            "{:>9.0} | {:>9.1}% | {:>11.4}",
            b.power_w,
            b.rel_error * 100.0,
            b.probability
        );
    }
    println!(
        "\naverage relative error: {:.1} % (paper: 6.2 % at 250 ms)",
        result.avg_rel_error * 100.0
    );
    let meta = BenchMeta::new("fig6", Some(config.seed), &config, started);
    let path = write_json_report(&meta, &result).expect("write json");
    println!("raw data -> {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_predictions() {
        let cfg = Fig6Config {
            interval_ms: 250,
            training_size: 300,
            eval_ticks: 200,
            cores: 4,
            trees: 8,
            seed: 3,
        };
        let result = run(&cfg);
        assert!(!result.series.is_empty(), "no evaluation points");
        assert!(result.avg_rel_error.is_finite());
        // Even a tiny model should beat wild guessing on this signal.
        assert!(
            result.avg_rel_error < 0.5,
            "rel err {}",
            result.avg_rel_error
        );
        // PDF sums to ~1 over bins that saw data.
        let psum: f64 = result.bins.iter().map(|b| b.probability).sum();
        assert!((psum - 1.0).abs() < 1e-9);
        // The same configuration reproduces the same figure.
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&run(&cfg)).unwrap()
        );
    }
}
