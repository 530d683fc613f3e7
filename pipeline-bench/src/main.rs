//! `pipeline` — the repository's benchmark.
//!
//! ```text
//! pipeline --workload <name|all> --seed <u64> [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
//! pipeline --summarize OUT.json RUN.json...
//! pipeline --compare A.json B.json
//! pipeline --benchmark-json
//! ```
//!
//! Drives the real composed path (monitoring plugin → Pusher → bus →
//! Collect Agent → durable storage → REST) and the Wintermute operator
//! runtime, checks every output against a closed-form oracle, prints
//! every metric as `name value unit`, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. `--trace 0`
//! reports the end-to-end metrics from a run with no wrapper installed;
//! `--trace 1` reports the per-layer metrics from a run with the
//! wrappers of `wrap.rs` in place. See `README.md`.

mod compare;
mod metrics;
mod mix;
mod oracle;
mod replay;
mod stats;
mod sys;
mod system;
mod trace;
mod workloads;
mod wrap;

use metrics::{Values, END_TO_END, PER_LAYER};
use oracle::Ledger;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Measured, RunConfig, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: the measured phase every size
/// constant in `workloads/` is calibrated against.
const RUN_SECONDS: u32 = 25;

/// One workload's result, ready to print.
struct Outcome {
    workload: &'static str,
    ledger: Ledger,
    /// `(name, value, unit)` in catalog order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn run_pass(name: &str, cfg: &RunConfig, traced: bool, scale: f64) -> Measured {
    match name {
        "ingest_steady" => workloads::ingest::run(cfg, traced, scale),
        "query_mixed" => workloads::query::run(cfg, traced, scale),
        "paced_mixed" => workloads::paced::run(cfg, traced, scale),
        "operator_tick" => workloads::operators::run(cfg, traced, scale),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Passes an untraced run is made of. Each builds its own system and
/// measures a third of the work; the run reports the pooled phase and
/// the median set-up time. Several, because the benchmark contract
/// asks for several set-ups per run and because speed differs from one
/// built system to the next inside one process (thread placement, heap
/// layout and hash seeds are drawn per build), so a run resting on one
/// build reports that build's luck.
const PASSES: u64 = 3;

/// `--trace 0`: [`PASSES`] passes with no wrapper installed, a full
/// run's work between them.
/// `--trace 1`: an untraced and a traced pass at half size each — the
/// same total work — so the tracing overhead is a like-for-like ratio.
fn run_workload(workload: &'static str, cfg: &RunConfig, traced: bool) -> Outcome {
    let mut ledger = Ledger::default();
    let values: Values = if traced {
        let plain = run_pass(workload, cfg, false, 0.5);
        let mut pass = run_pass(workload, cfg, true, 0.5);
        ledger.merge(plain.ledger);
        ledger.merge(std::mem::take(&mut pass.ledger));
        let (traced_ns, plain_ns) = (pass.phase.ns_per_item(), plain.phase.ns_per_item());
        // The whole untraced phase, beside the layers that make it up:
        // its tail and its CPU cost repeat too poorly on a two-core
        // sandbox to carry a bound (README, "Baseline and spread").
        pass.layers
            .set("phase.latency_ms_p90", plain.phase.latency_ms(90.0));
        pass.layers
            .set("phase.cpu_us_per_item", plain.phase.cpu_us_per_item());
        pass.layers.set(
            "trace.overhead_pct",
            100.0 * (traced_ns - plain_ns) / plain_ns.max(f64::MIN_POSITIVE),
        );
        if let Some(table) = &pass.reconciliation {
            eprintln!("reconciliation ({workload}): parent span = children + self\n{table}");
        }
        if let Some(json) = &pass.trace_json {
            let path = cfg.out.join(format!("trace_{workload}.json"));
            match std::fs::create_dir_all(&cfg.out).and_then(|()| std::fs::write(&path, json)) {
                Ok(()) => eprintln!("trace written to {}", path.display()),
                Err(err) => eprintln!("could not write {}: {err}", path.display()),
            }
        }
        pass.layers
    } else {
        let passes = if cfg.smoke { 1 } else { PASSES };
        let phases = (0..passes)
            .map(|i| {
                // Each pass draws its own probes and requests.
                let cfg = RunConfig {
                    seed: cfg.seed.wrapping_mul(PASSES).wrapping_add(i),
                    ..cfg.clone()
                };
                let pass = run_pass(workload, &cfg, false, 1.0 / passes as f64);
                ledger.merge(pass.ledger);
                pass.phase
            })
            .collect();
        workloads::Phase::pooled(phases).end_to_end()
    };

    let mut metrics = Vec::new();
    if traced {
        let index = WORKLOADS
            .iter()
            .position(|(name, _)| *name == workload)
            .expect("a listed workload");
        for m in PER_LAYER {
            // A workload that bypasses a layer did no work there and
            // prints 0; one the catalog says reports a metric must
            // have measured it, so a forgotten metric is not a 0.
            let value = values.get(m.name);
            ledger.check(value.is_some() == m.reported_by(index), || {
                format!(
                    "{workload}: per-layer metric {} is {value:?} but the catalog says reported = {}",
                    m.name,
                    m.reported_by(index)
                )
            });
            metrics.push((m.name, value.unwrap_or(0.0), m.unit));
        }
    } else {
        for m in END_TO_END {
            let value = values.get(m.name);
            ledger.check(value.is_some_and(|v| v.is_finite() && v > 0.0), || {
                format!("{workload}: end-to-end metric {} is {value:?}", m.name)
            });
            metrics.push((m.name, value.unwrap_or(0.0), m.unit));
        }
    }
    Outcome {
        workload,
        ledger,
        metrics,
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.ledger.ok(),
        outcome.ledger.attempted.max(1),
        outcome.ledger.failed,
        metrics.join(",")
    )
}

fn print_outcome(outcome: &Outcome) {
    for (name, value, unit) in &outcome.metrics {
        // A per-layer metric names its layer and what it should move.
        match PER_LAYER.iter().find(|m| m.name == *name) {
            Some(m) => println!(
                "{}.{name} {value} {unit}  [{} -> {}]",
                outcome.workload, m.layer, m.moves
            ),
            None => println!("{}.{name} {value} {unit}", outcome.workload),
        }
    }
    for note in &outcome.ledger.notes {
        eprintln!("FAILED CHECK ({}): {note}", outcome.workload);
    }
    println!(
        "{}.failed_share {} ratio ({} of {} operations)",
        outcome.workload,
        outcome.ledger.failed as f64 / outcome.ledger.attempted.max(1) as f64,
        outcome.ledger.failed,
        outcome.ledger.attempted
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    action: Action,
}

/// What the invocation asked for besides running workloads.
#[derive(Debug, PartialEq)]
enum Action {
    Run,
    Compare(PathBuf, PathBuf),
    /// The output file, then the run files.
    Summarize(Vec<PathBuf>),
    BenchmarkJson,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        smoke: false,
        out: PathBuf::from("pipeline-bench/results"),
        action: Action::Run,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name or `all`")?,
            "--seed" => {
                args.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                let b = PathBuf::from(value("two result files")?);
                args.action = Action::Compare(a, b);
            }
            "--benchmark-json" => args.action = Action::BenchmarkJson,
            "--summarize" => {
                let files: Vec<PathBuf> = it.by_ref().map(PathBuf::from).collect();
                if files.len() < 2 {
                    return Err("--summarize needs an output file and at least one run file".into());
                }
                args.action = Action::Summarize(files);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && workload_named(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown workload {:?}: expected all or one of {names:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs one workload in this process and prints its metrics, ending
/// with the result object; `Ok(true)` when every check passed.
fn run_one(workload: &'static str, args: &Args) -> Result<bool, String> {
    // Data directories live beside the results, inside the checkout.
    let work = args.out.join(format!(".work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        work: work.clone(),
        out: args.out.clone(),
    };
    let outcome = run_workload(workload, &cfg, args.traced);
    let _ = std::fs::remove_dir_all(&work);
    print_outcome(&outcome);
    // One file per run, for `--summarize`.
    let run_file = args.out.join(format!(
        "run_{workload}_s{}_t{}.json",
        args.seed,
        u8::from(args.traced)
    ));
    let body = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\"result\":{}}}\n",
        args.seed,
        u8::from(args.traced),
        result_json(&outcome)
    );
    if let Err(err) = std::fs::write(&run_file, body) {
        eprintln!("could not write {}: {err}", run_file.display());
    }
    println!("{}", result_json(&outcome));
    Ok(outcome.ledger.ok())
}

/// `--workload all`: one child process per workload, so each reports
/// its own peak RSS and none inherits the heap of the one before. Ends
/// with one object keyed by workload; the run that defines the numbers
/// never claims a gain.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut ok = true;
    let mut results = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.smoke {
            child.arg("--smoke");
        }
        // stderr is inherited; stdout is the metric lines, then the
        // result object on the last line.
        let output = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        match lines.pop().filter(|last| last.starts_with('{')) {
            Some(result) => results.push(format!("\"{workload}\":{result}")),
            None => return Err(format!("{workload}: the run printed no result")),
        }
        for line in lines {
            println!("{line}");
        }
    }
    println!("{{{},\"claim\":null}}", results.join(","));
    Ok(ok)
}

/// The workload `name` names, if it is one.
fn workload_named(name: &str) -> Option<&'static str> {
    WORKLOADS
        .iter()
        .map(|(workload, _)| *workload)
        .find(|workload| *workload == name)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pipeline: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.action {
        Action::Run => match workload_named(&args.workload) {
            Some(workload) => run_one(workload, &args),
            None => run_all(&args),
        },
        Action::Compare(a, b) => compare::run(a, b),
        Action::Summarize(files) => compare::summarize(&files[0], &files[1..]).map(|()| true),
        Action::BenchmarkJson => {
            print!("{}", metrics::benchmark_json(WORKLOADS, RUN_SECONDS));
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pipeline: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn smoke_args(traced: bool, out: &std::path::Path) -> Args {
        Args {
            workload: "all".into(),
            seed: 7,
            seconds: 1.0,
            traced,
            smoke: true,
            out: out.to_path_buf(),
            action: Action::Run,
        }
    }

    /// The four workloads at toy sizes, untraced and traced: the oracle
    /// passes and every metric `BENCHMARK.json` names is present,
    /// finite and carries its unit.
    #[test]
    fn smoke_runs_every_workload_and_reports_every_metric() {
        let _recording = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = std::env::temp_dir().join(format!("pipeline-smoke-{}", std::process::id()));
        for traced in [false, true] {
            let args = smoke_args(traced, &out);
            let work = out.join("work");
            std::fs::create_dir_all(&work).expect("work dir");
            let cfg = RunConfig {
                seed: args.seed,
                seconds: args.seconds,
                smoke: true,
                work,
                out: out.clone(),
            };
            for (workload, _) in WORKLOADS {
                let outcome = run_workload(workload, &cfg, traced);
                assert!(
                    outcome.ledger.ok(),
                    "{workload} (traced: {traced}): {:?}",
                    outcome.ledger.notes
                );
                assert!(outcome.ledger.attempted > 0);
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), expected);
                for (name, value, unit) in &outcome.metrics {
                    assert!(value.is_finite(), "{workload}.{name} is {value}");
                    assert!(!unit.is_empty(), "{workload}.{name} has no unit");
                    assert!(traced || *value > 0.0, "{workload}.{name} is {value}");
                }
                let parsed: Value =
                    serde_json::from_str(&result_json(&outcome)).expect("result line is JSON");
                assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    /// `BENCHMARK.json` and the catalog name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            metrics::benchmark_json(WORKLOADS, RUN_SECONDS),
            "regenerate with --benchmark-json"
        );
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| {
            json.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .clone()
        };
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(entry, "name").as_deref(), Some(*name));
            assert_eq!(field(entry, "why").as_deref(), Some(*why));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name").as_deref(), Some(m.name));
            assert_eq!(field(entry, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(entry, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name").as_deref(), Some(m.name));
            assert_eq!(field(entry, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(entry, "better").as_deref(), Some(m.better.as_str()));
            assert!(!m.layer.is_empty() && !m.moves.is_empty());
        }
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload query_mixed --seed 9 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("query_mixed", 9, 10.0, true)
        );
        assert!(
            !parse_args(&argv("--workload all --trace 0"))
                .expect("valid")
                .traced
        );
        assert!(parse_args(&argv("--trace --smoke")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
