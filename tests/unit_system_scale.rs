//! Unit System at production scale: the paper's core scalability claim
//! is that pattern units let operators instantiate "thousands of
//! independent ODA models, each with their own set of sensors, by using
//! only a small configuration block" (§III-C). These tests bind
//! templates against a full CooLMUC-3-sized sensor tree and check both
//! correctness and that resolution stays fast enough for reloads.

use dcdb_wintermute::dcdb_common::Topic;
use dcdb_wintermute::sim_cluster::Topology;
use dcdb_wintermute::wintermute::prelude::*;

/// All sensor topics of the full 148-node, 64-core system.
fn coolmuc3_topics() -> Vec<Topic> {
    let topology = Topology::coolmuc3();
    topology
        .nodes()
        .flat_map(|n| topology.node_sensor_topics(n))
        .collect()
}

#[test]
fn full_system_tree_statistics() {
    let topics = coolmuc3_topics();
    // 148 × (4 node-level + 2 OPA + 64×4) sensors.
    assert_eq!(topics.len(), 148 * (6 + 256));
    let nav = SensorNavigator::build(topics.iter());
    assert_eq!(nav.sensor_count(), topics.len());
    assert_eq!(nav.depth(), 3); // rack / node / cpu
    assert_eq!(nav.nodes_at_level(0).len(), 4); // racks
    assert_eq!(nav.nodes_at_level(1).len(), 148); // nodes
    assert_eq!(nav.nodes_at_level(2).len(), 148 * 64); // cpus
}

#[test]
fn per_node_health_template_instantiates_148_units() {
    let nav = SensorNavigator::build(coolmuc3_topics().iter());
    let template = UnitTemplate::parse(
        &[
            "<bottomup-1>power",
            "<bottomup, filter cpu>cycles",
            "<bottomup, filter cpu>instructions",
        ],
        &["<bottomup-1>healthy"],
    )
    .unwrap();
    let resolution = resolve_units(&template, &nav).unwrap();
    assert_eq!(resolution.units.len(), 148);
    assert!(resolution.skipped.is_empty());
    for unit in &resolution.units {
        // 1 power + 64 cycles + 64 instructions.
        assert_eq!(unit.inputs.len(), 129, "{}", unit.name);
        assert_eq!(unit.outputs.len(), 1);
    }
}

#[test]
fn per_core_template_instantiates_9472_units() {
    let nav = SensorNavigator::build(coolmuc3_topics().iter());
    let template = UnitTemplate::parse(
        &[
            "<bottomup, filter cpu>cycles",
            "<bottomup, filter cpu>instructions",
        ],
        &["<bottomup, filter cpu>cpi"],
    )
    .unwrap();
    let start = std::time::Instant::now();
    let resolution = resolve_units(&template, &nav).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(resolution.units.len(), 148 * 64);
    // Each per-core unit binds exactly its own two counters.
    for unit in resolution.units.iter().step_by(997) {
        assert_eq!(unit.inputs.len(), 2, "{}", unit.name);
        assert!(unit.inputs.iter().all(|i| unit.name.is_ancestor_of(i)));
    }
    // Resolution must be cheap enough for runtime reloads: the paper
    // reconfigures plugins dynamically via REST. Generous bound (debug
    // builds on one core are slow).
    assert!(elapsed.as_secs_f64() < 30.0, "resolution took {elapsed:?}");
}

/// What `resolve_units` must make of the candidate `name`, by the
/// definition: every node of every pattern's domain (`domains`, inputs
/// then outputs) tested against the unit. `Err` names the first input
/// pattern that binds nothing.
fn unit_by_scan(
    template: &UnitTemplate,
    domains: &[Vec<Topic>],
    nav: &SensorNavigator,
    name: &Topic,
) -> Result<Unit, String> {
    let patterns = template.inputs.iter().chain(&template.outputs);
    let mut related = patterns.zip(domains).map(|(pattern, domain)| {
        let sensors: Vec<Topic> = domain
            .iter()
            .filter(|node| SensorNavigator::hierarchically_related(name, node))
            .map(|node| node.child(&pattern.sensor).unwrap())
            .collect();
        (pattern, sensors)
    });
    let mut inputs = Vec::new();
    for (pattern, sensors) in related.by_ref().take(template.inputs.len()) {
        let before = inputs.len();
        inputs.extend(sensors.into_iter().filter(|s| nav.has_sensor(s)));
        if inputs.len() == before {
            return Err(pattern.to_string());
        }
    }
    let outputs = related.flat_map(|(_, sensors)| sensors).collect();
    Ok(Unit::new(name.clone(), inputs, outputs))
}

/// Holds `resolve_units` to the scan on every `step`-th candidate unit:
/// the same units, the same input order, the same skips in the same
/// order. Returns how many candidates were skipped.
fn assert_resolution_equals_scan(
    nav: &SensorNavigator,
    inputs: &[&str],
    outputs: &[&str],
    step: usize,
) -> usize {
    let template = UnitTemplate::parse(inputs, outputs).unwrap();
    let got = resolve_units(&template, nav).unwrap();
    let domains: Vec<Vec<Topic>> = template
        .inputs
        .iter()
        .chain(&template.outputs)
        .map(|pattern| pattern.domain(nav).unwrap())
        .collect();
    let candidates = &domains[template.inputs.len()];
    assert_eq!(candidates.len(), got.units.len() + got.skipped.len());
    // Units and skips come in candidate order: walk all three.
    let mut units = got.units.iter().peekable();
    let mut skipped = got.skipped.iter().peekable();
    for (at, name) in candidates.iter().enumerate() {
        let built = units.next_if(|u| &u.name == name);
        let skip = skipped.next_if(|s| &s.name == name);
        assert!(built.is_some() != skip.is_some(), "{name}");
        if at % step == 0 {
            let want = unit_by_scan(&template, &domains, nav, name);
            assert_eq!(built, want.as_ref().ok(), "{name}");
            assert_eq!(skip.map(|s| &s.pattern), want.as_ref().err(), "{name}");
        }
    }
    got.skipped.len()
}

#[test]
fn resolution_equals_the_all_pairs_scan() {
    // The per-core templates are checked on every 211th unit of
    // CooLMUC-3 — the scan is quadratic, which is why it went. One node
    // lacks its OPA counters, so a template skips it.
    let mut topics = coolmuc3_topics();
    topics.retain(|t| !t.as_str().starts_with("/rack02/node07/opa"));
    let nav = SensorNavigator::build(topics.iter());
    let per_core = [
        "<bottomup, filter cpu>cycles",
        "<bottomup, filter cpu>instructions",
    ];
    let per_node = ["<bottomup-1>power", per_core[0], per_core[1]];
    let mut skipped = 0;
    for (inputs, outputs, step) in [
        (&per_core[..], &["<bottomup, filter cpu>cpi"][..], 211),
        (
            &["<bottomup-1>power", "<topdown>power"],
            &["<bottomup, filter cpu0>score", "<bottomup-1>healthy"],
            211,
        ),
        (&per_node, &["<bottomup-1>healthy"], 1),
        (
            &["<bottomup-1>opa-xmit-bytes"],
            &["<bottomup-1>opa-seen"],
            1,
        ),
        (&["<bottomup-1>power"], &["<topdown>rack-power"], 1),
    ] {
        skipped += assert_resolution_equals_scan(&nav, inputs, outputs, step);
    }
    // No rack has a power sensor (cpu00..cpu09 of every node go), and
    // one node has no OPA counters.
    assert_eq!(skipped, 148 * 10 + 1);

    // The paper's Fig. 2 tree, made ragged, with sensors missing here
    // and there and names whose byte order and segment order disagree
    // (`-` and `.` sort below `/`).
    let mut topics = Vec::new();
    for rack in ["r01", "r01-b", "r01.x", "r02", "r03"] {
        topics.push(format!("/{rack}/inlet-temp"));
        for chassis in ["c01", "c01-x", "c02"] {
            if (rack, chassis) != ("r02", "c01-x") {
                topics.push(format!("/{rack}/{chassis}/power"));
            }
            for server in ["s01", "s01-a", "s02"] {
                topics.push(format!("/{rack}/{chassis}/{server}/memfree"));
                for cpu in ["cpu0", "cpu1", "gpu0"] {
                    if (rack, server) != ("r03", "s02") {
                        topics.push(format!("/{rack}/{chassis}/{server}/{cpu}/cpu-cycles"));
                    }
                    if cpu != "gpu0" {
                        topics.push(format!("/{rack}/{chassis}/{server}/{cpu}/cache-misses"));
                    }
                }
            }
        }
    }
    topics.push("/r04/c01/s01/memfree".to_string());
    let topics: Vec<Topic> = topics.iter().map(|t| Topic::parse(t).unwrap()).collect();
    let nav = SensorNavigator::build(topics.iter());
    let paper = [
        "<topdown+1>power",
        "<bottomup, filter cpu>cpu-cycles",
        "<bottomup, filter cpu>cache-misses",
    ];
    let mut skipped = 0;
    for (inputs, outputs) in [
        (&paper[..], &["<bottomup-1>healthy"][..]),
        (&["<topdown+1>power"], &["<topdown>rack-power"]),
        (&["<bottomup-1>memfree"], &["<bottomup-1>pred"]),
        (
            &["<topdown>inlet-temp", "<bottomup-1>memfree"],
            &["<bottomup, filter cpu>score", "<bottomup-1>healthy"],
        ),
        (
            &["<bottomup, filter ^cpu1$>cache-misses"],
            &["<topdown+1, filter ^c0[12]>misses", "<bottomup>per-cpu"],
        ),
    ] {
        skipped += assert_resolution_equals_scan(&nav, inputs, outputs, 1);
    }
    assert!(skipped > 0, "no template exercised a skipped unit");
}

#[test]
fn rack_level_aggregation_binds_the_whole_subtree() {
    let nav = SensorNavigator::build(coolmuc3_topics().iter());
    let template = UnitTemplate::parse(&["<bottomup-1>power"], &["<topdown>rack-power"]).unwrap();
    let resolution = resolve_units(&template, &nav).unwrap();
    assert_eq!(resolution.units.len(), 4);
    // Each rack unit aggregates its 37 node power sensors.
    for unit in &resolution.units {
        assert_eq!(unit.inputs.len(), 37, "{}", unit.name);
    }
}

#[test]
fn filters_partition_without_overlap_or_loss() {
    // Horizontal navigation: two disjoint filters over racks must
    // partition the node set exactly.
    let nav = SensorNavigator::build(coolmuc3_topics().iter());
    let low = UnitTemplate::parse(
        &["<bottomup-1, filter ^rack0[01]$>power"],
        &["<bottomup-1>x"],
    )
    .unwrap();
    // Note: the filter applies to the level of the *pattern*, here the
    // node level; filter racks through the unit domain instead.
    let all = UnitTemplate::parse(&["<bottomup-1>power"], &["<bottomup-1>x"]).unwrap();
    let r_all = resolve_units(&all, &nav).unwrap();
    assert_eq!(r_all.units.len(), 148);
    let _ = low;

    let first_two_racks = UnitTemplate::parse(
        &["<bottomup-1>power"],
        &["<bottomup-1, filter ^node0[0-9]$>x"],
    )
    .unwrap();
    let r_sub = resolve_units(&first_two_racks, &nav).unwrap();
    // node00..node09 in each of 4 racks.
    assert_eq!(r_sub.units.len(), 40);
}

#[test]
fn manager_loads_a_parallel_plugin_at_scale() {
    use dcdb_wintermute::dcdb_common::{SensorReading, Timestamp};
    use std::sync::Arc;
    // 148-node engine with power data; parallel aggregator = 148
    // operators.
    let topology = Topology::coolmuc3();
    let qe = Arc::new(QueryEngine::new(16));
    for n in topology.nodes() {
        let topic = topology.node_topic(n).child("power").unwrap();
        for s in 1..=5u64 {
            qe.insert(&topic, SensorReading::new(100, Timestamp::from_secs(s)));
        }
    }
    qe.rebuild_navigator();
    let mgr = OperatorManager::new(qe);
    mgr.register_plugin(Box::new(
        dcdb_wintermute::wintermute_plugins::AggregatorPlugin,
    ));
    mgr.load(
        PluginConfig::online("agg", "aggregator", 1000)
            .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
            .with_unit_mode(UnitMode::Parallel)
            .with_option("window_ms", 10_000u64),
    )
    .unwrap();
    let list = mgr.list();
    assert_eq!(list[0].3, 148, "operator count");
    let report = mgr.tick(Timestamp::from_secs(6));
    assert_eq!(report.operators_run, 148);
    assert_eq!(report.outputs_published, 148);
    assert!(report.errors.is_empty());
}
