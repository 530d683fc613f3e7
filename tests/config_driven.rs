//! Configuration-file-driven deployment: a whole Wintermute setup
//! parsed from one JSON document (the paper's "small configuration
//! block", §III-C / §V-C.2), including an on-demand plugin that never
//! ticks and is only reachable through explicit invocation (§IV-B b).

use dcdb_wintermute::dcdb_common::{SensorReading, Timestamp, Topic};
use dcdb_wintermute::wintermute::prelude::*;
use dcdb_wintermute::wintermute_plugins;
use std::sync::Arc;

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn engine() -> Arc<QueryEngine> {
    let qe = Arc::new(QueryEngine::new(64));
    for n in 0..4 {
        for sec in 1..=30u64 {
            qe.insert(
                &t(&format!("/rack0/node{n}/power")),
                SensorReading::new(
                    100 + n as i64 * 10 + (sec % 3) as i64,
                    Timestamp::from_secs(sec),
                ),
            );
            qe.insert(
                &t(&format!("/rack0/node{n}/temp")),
                SensorReading::new(45, Timestamp::from_secs(sec)),
            );
        }
    }
    qe.rebuild_navigator();
    qe
}

const CONFIG: &str = r#"{
  "plugins": [
    {
      "name": "node-power-avg",
      "kind": "aggregator",
      "mode": "online",
      "interval_ms": 1000,
      "unit_mode": "parallel",
      "inputs": ["<bottomup>power"],
      "outputs": ["<bottomup>power-avg"],
      "options": {"op": "mean", "window_ms": 10000}
    },
    {
      "name": "rack-peak",
      "kind": "aggregator",
      "mode": "online",
      "interval_ms": 5000,
      "inputs": ["<bottomup>power"],
      "outputs": ["<topdown>rack-peak"],
      "options": {"op": "max", "window_ms": 10000}
    },
    {
      "name": "diagnostics",
      "kind": "aggregator",
      "mode": "on_demand",
      "inputs": ["<bottomup>power", "<bottomup>temp"],
      "outputs": ["<bottomup>diag"],
      "options": {"op": "std", "window_ms": 30000}
    }
  ]
}"#;

fn load_all(mgr: &OperatorManager) {
    let config = WintermuteConfig::from_json(CONFIG).unwrap();
    assert_eq!(config.plugins.len(), 3);
    for plugin in config.plugins {
        mgr.load(plugin).unwrap();
    }
}

#[test]
fn document_loads_all_three_instances() {
    let mgr = OperatorManager::new(engine());
    wintermute_plugins::register_all(&mgr, None);
    load_all(&mgr);
    let list = mgr.list();
    assert_eq!(list.len(), 3);
    // Parallel instance: 4 operators; sequential ones: 1 each.
    let by_name: std::collections::HashMap<String, usize> = list
        .iter()
        .map(|(n, _, _, ops, _)| (n.clone(), *ops))
        .collect();
    assert_eq!(by_name["node-power-avg"], 4);
    assert_eq!(by_name["rack-peak"], 1);
    assert_eq!(by_name["diagnostics"], 1);
}

#[test]
fn online_instances_tick_on_their_own_intervals() {
    let mgr = OperatorManager::new(engine());
    wintermute_plugins::register_all(&mgr, None);
    load_all(&mgr);
    // First tick: both online instances due (4 + 1 operators); the
    // on-demand instance never ticks.
    let report = mgr.tick(Timestamp::from_secs(31));
    assert_eq!(report.operators_run, 5);
    // 2 seconds later only the 1s-interval instance is due again.
    let report = mgr.tick(Timestamp::from_secs(33));
    assert_eq!(report.operators_run, 4);
    assert!(!mgr
        .query_engine()
        .query(&t("/rack0/rack-peak"), QueryMode::Latest)
        .is_empty());
    // On-demand produced nothing by itself.
    assert!(mgr
        .query_engine()
        .query(&t("/rack0/node0/diag"), QueryMode::Latest)
        .is_empty());
}

#[test]
fn on_demand_instance_answers_explicit_requests_only() {
    let mgr = OperatorManager::new(engine());
    wintermute_plugins::register_all(&mgr, None);
    load_all(&mgr);
    mgr.tick(Timestamp::from_secs(31));
    let outputs = mgr
        .on_demand("diagnostics", &t("/rack0/node2"), Timestamp::from_secs(31))
        .unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].0, t("/rack0/node2/diag"));
    // Responses are not persisted (propagated only as a response).
    assert!(mgr
        .query_engine()
        .query(&t("/rack0/node2/diag"), QueryMode::Latest)
        .is_empty());
}

#[test]
fn malformed_documents_are_rejected_with_context() {
    assert!(WintermuteConfig::from_json("{").is_err());
    assert!(WintermuteConfig::from_json(r#"{"plugins": [{"name": "x"}]}"#).is_err());
    // Unknown plugin kind fails at load, naming the kind.
    let mgr = OperatorManager::new(engine());
    let config = WintermuteConfig::from_json(
        r#"{"plugins": [{"name": "x", "kind": "warp-drive", "mode": "on_demand"}]}"#,
    )
    .unwrap();
    let err = mgr.load(config.plugins[0].clone()).unwrap_err().to_string();
    assert!(err.contains("warp-drive"), "{err}");
}

/// Files written for earlier releases may carry a per-plugin
/// `"sampling": {...}` block, which nothing ever read: such a file loads
/// and runs exactly as one without it.
#[test]
fn a_legacy_sampling_block_is_ignored() {
    let legacy = CONFIG.replace(
        r#""unit_mode": "parallel","#,
        r#""unit_mode": "parallel",
      "sampling": {"interval_ms": 250, "cache_secs": 60},"#,
    );
    assert_ne!(legacy, CONFIG);
    let run = |doc: &str| {
        let mgr = OperatorManager::new(engine());
        wintermute_plugins::register_all(&mgr, None);
        let config = WintermuteConfig::from_json(doc).unwrap();
        let intervals: Vec<_> = config.plugins.iter().map(|p| p.interval_ms()).collect();
        for plugin in config.plugins {
            mgr.load(plugin).unwrap();
        }
        let runs: Vec<_> = [31, 33, 36]
            .map(|s| mgr.tick(Timestamp::from_secs(s)).operators_run)
            .to_vec();
        let all = QueryMode::Absolute {
            t0: Timestamp::ZERO,
            t1: Timestamp::from_secs(40),
        };
        let avg = mgr.query_engine().query(&t("/rack0/node0/power-avg"), all);
        (intervals, runs, avg)
    };
    let (intervals, runs, avg) = run(&legacy);
    assert_eq!(intervals, [Some(1000), Some(5000), None]);
    assert_eq!(avg.len(), 3);
    assert_eq!((intervals, runs, avg), run(CONFIG));
}
