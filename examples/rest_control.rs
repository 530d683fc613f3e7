//! On-demand operators and plugin management over the RESTful API
//! (paper §IV-B b, §V-A).
//!
//! Starts a Collect-Agent-style deployment with a real HTTP server and
//! drives it like an external tool would: list plugins, query a unit
//! on demand, read raw sensor data, and stop/start a plugin.
//!
//! Run with:
//! ```text
//! cargo run --example rest_control
//! ```

use dcdb_bus::{Broker, MessageBus};
use dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_common::reading::SensorReading;
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_rest::{http_request, Method, RestServer, Router};
use dcdb_storage::DurableBackend;
use std::sync::Arc;
use wintermute::prelude::*;
use wintermute_plugins::AggregatorPlugin;

fn main() {
    // --- A Collect Agent with some sensor data and an aggregator. ---
    let broker = Broker::new();
    let storage = Arc::new(DurableBackend::in_memory());
    let agent = Arc::new(
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap(),
    );
    let bus = broker.handle();
    for node in 0..3 {
        for sec in 1..=30u64 {
            bus.publish_readings(
                Topic::parse(&format!("/rack0/node{node}/power")).unwrap(),
                &[SensorReading::new(
                    100 + node as i64 * 40 + (sec % 7) as i64,
                    Timestamp::from_secs(sec),
                )],
            )
            .unwrap();
        }
    }
    agent.process_pending();

    agent.manager().register_plugin(Box::new(AggregatorPlugin));
    agent
        .manager()
        .load(
            PluginConfig::online("node-power-avg", "aggregator", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
                .with_option("window_ms", 30_000u64),
        )
        .unwrap();
    agent.tick(Timestamp::from_secs(31));

    // --- Serve the REST API on an ephemeral port. ---
    let mut router = Router::new();
    agent.mount_routes(&mut router);
    let server = RestServer::serve("127.0.0.1:0", router).expect("bind");
    let addr = server.addr();
    println!("REST control API listening on http://{addr}\n");

    let get = |path: &str| {
        let (code, body) = http_request(addr, Method::Get, path, b"").expect("request");
        println!("GET {path}\n  -> {code}: {body}\n");
        body
    };
    let put = |path: &str| {
        let (code, body) = http_request(addr, Method::Put, path, b"").expect("request");
        println!("PUT {path}\n  -> {code}: {body}\n");
    };

    // List loaded analytics plugins.
    get("/analytics/plugins");
    // The units the aggregator resolved (one per node).
    get("/analytics/plugins/node-power-avg/units");
    // On-demand computation of one unit — output returned, not stored.
    get("/analytics/compute/node-power-avg?unit=/rack0/node2");
    // Raw sensor readings straight from caches/storage.
    get("/sensors/rack0/node1/power?from_s=28&to_s=30");
    // Lifecycle management.
    put("/analytics/plugins/node-power-avg/stop");
    get("/analytics/plugins");
    put("/analytics/plugins/node-power-avg/start");

    println!("done; shutting the server down.");
}
