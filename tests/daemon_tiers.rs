//! `wintermute-sim` as a process: every flag family means the same at
//! `--agents 1` and at `--agents N`. One run per tier with durable
//! storage, chaos, storage I/O faults and the bus knobs all switched
//! on; the banners must print, nothing may be ignored, every engine
//! must recover and arm its own fault device, and the bus knobs must
//! reach every agent's ingest queue.

use dcdb_wintermute::dcdb_rest::{http_request, Method};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Runs the daemon for three seconds with every knob family on, reads
/// `GET /metrics` while it is up, and holds the output to the checks
/// that do not depend on the tier.
fn run_daemon(tier_args: &[&str], agents: usize, engines: usize) {
    let dir = std::env::temp_dir().join(format!(
        "daemon-tiers-{}-{}",
        std::process::id(),
        tier_args.join("")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_wintermute-sim"))
        .args(["--nodes", "2", "--duration", "3"])
        .args(tier_args)
        .arg("--data-dir")
        .arg(&dir)
        .args(["--chaos-seed", "7", "--drop-prob", "0.1"])
        .args(["--io-fault-seed", "7", "--eio-prob", "0.01"])
        .args(["--sub-depth", "8", "--overflow", "drop-newest"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wintermute-sim");

    // Drained on its own thread, so a chatty stderr can never fill its
    // pipe while this thread is reading stdout.
    let mut stderr = child.stderr.take().expect("piped stderr");
    let err = std::thread::spawn(move || {
        let mut err = String::new();
        stderr.read_to_string(&mut err).expect("read stderr");
        err
    });
    // The banner with the REST address is the last thing printed before
    // the run starts; everything above it is start-up output.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut out = String::new();
    let addr = loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("read stdout");
        assert!(n > 0, "daemon exited before serving REST:\n{out}");
        out.push_str(&line);
        if let Some((_, addr)) = line.trim_end().split_once("REST on http://") {
            break addr.parse().expect("socket address");
        }
    };
    let (code, body) = http_request(addr, Method::Get, "/metrics", b"").expect("GET /metrics");
    assert_eq!(code, 200, "{body}");

    stdout.read_to_string(&mut out).expect("read stdout");
    let err = err.join().expect("stderr reader");
    let status = child.wait().expect("wait");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "{status}\n{out}\n{err}");

    let starting =
        |prefix: &str| -> Vec<&str> { out.lines().filter(|l| l.starts_with(prefix)).collect() };
    assert_eq!(
        starting("chaos: seed 0x7, drop-prob 0.100").len(),
        1,
        "{out}"
    );
    assert_eq!(starting("storage io faults: seed 0x7,").len(), 1, "{out}");
    assert!(
        !out.contains("ignoring") && !err.contains("ignoring"),
        "{out}\n{err}"
    );
    assert_eq!(starting("durable storage in ").len(), engines, "{out}");
    // Every engine's device is armed, each from its own derived seed.
    let mut seeds: Vec<&str> = starting("storage io faults armed under ")
        .iter()
        .map(|l| l.rsplit_once("device seed ").expect("seed").1)
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), engines, "{out}");

    // The bus knobs reached every agent's ingest queue.
    let metrics: serde_json::Value = serde_json::from_str(&body).expect("metrics JSON");
    let docs: Vec<&serde_json::Value> = match metrics.get("shards") {
        Some(shards) => shards.as_object().expect("shards").values().collect(),
        None => vec![&metrics],
    };
    assert_eq!(docs.len(), agents, "{body}");
    for agent in docs {
        let subs = agent.get("bus").and_then(|b| b.get("subscriptions"));
        let subs = subs.and_then(|s| s.as_array()).expect("subscriptions");
        let ingest = subs
            .iter()
            .find(|s| s.get("label").and_then(|l| l.as_str()) == Some("collect-agent"))
            .expect("the agent's subscription");
        let queue = ingest.get("queue").expect("queue");
        assert_eq!(queue.get("capacity").and_then(|c| c.as_u64()), Some(8));
        let policy = queue.get("policy").and_then(|p| p.as_str());
        assert_eq!(policy, Some("drop-newest"), "{agent}");
    }
}

#[test]
fn single_agent_run_honours_every_knob_family() {
    run_daemon(&[], 1, 1);
}

#[test]
fn federated_run_honours_every_knob_family_on_every_shard() {
    run_daemon(&["--agents", "2", "--replicas", "2"], 2, 4);
}

/// A flag value the daemon cannot parse is a usage error naming the flag
/// and the value, never a silent default or a panic.
#[test]
fn a_malformed_flag_value_exits_2_at_once() {
    for (flag, value) in [("--duration", "3s"), ("--fsync", "sometimes")] {
        let started = std::time::Instant::now();
        let mut child = Command::new(env!("CARGO_BIN_EXE_wintermute-sim"))
            .args([flag, value])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn wintermute-sim");
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break status;
            }
            if started.elapsed() > std::time::Duration::from_secs(1) {
                let _ = child.kill();
                panic!("{flag} {value} still running after a second");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut err = String::new();
        let mut stderr = child.stderr.take().expect("piped stderr");
        stderr.read_to_string(&mut err).expect("read stderr");
        assert_eq!(status.code(), Some(2), "{flag} {value}: {err}");
        assert!(err.contains(flag) && err.contains(value), "{err}");
    }
}
