//! Full REST control-plane integration over real TCP sockets: the
//! paper's management workflow (§V-A) and on-demand operator mode
//! (§IV-B b) driven exactly as an external tool would.

use dcdb_wintermute::dcdb_bus::{Broker, MessageBus};
use dcdb_wintermute::dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_wintermute::dcdb_common::{SensorReading, Timestamp, Topic};
use dcdb_wintermute::dcdb_rest::{http_request, Method, RestServer, Router, ServerConfig};
use dcdb_wintermute::dcdb_storage::DurableBackend;
use dcdb_wintermute::wintermute::prelude::*;
use dcdb_wintermute::wintermute_plugins;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn served_agent() -> (RestServer, Arc<CollectAgent>, Broker) {
    served_agent_with(ServerConfig::default())
}

fn served_agent_with(config: ServerConfig) -> (RestServer, Arc<CollectAgent>, Broker) {
    let broker = Broker::new();
    let storage = Arc::new(DurableBackend::in_memory());
    let agent = Arc::new(
        CollectAgent::new(CollectAgentConfig::default(), &broker.handle(), storage).unwrap(),
    );
    wintermute_plugins::register_all(agent.manager(), None);
    let bus = broker.handle();
    for node in 0..2 {
        for sec in 1..=20u64 {
            bus.publish_readings(
                Topic::parse(&format!("/r0/n{node}/power")).unwrap(),
                &[SensorReading::new(
                    100 + node as i64 * 50 + (sec % 5) as i64,
                    Timestamp::from_secs(sec),
                )],
            )
            .unwrap();
        }
    }
    agent.process_pending();
    agent
        .manager()
        .load(
            PluginConfig::online("avg", "aggregator", 1000)
                .with_patterns(&["<bottomup>power"], &["<bottomup>power-avg"])
                .with_option("window_ms", 20_000u64),
        )
        .unwrap();
    agent.tick(Timestamp::from_secs(21));

    let mut router = Router::new();
    agent.mount_routes(&mut router);
    let server = RestServer::serve_with("127.0.0.1:0", router, config).unwrap();
    (server, agent, broker)
}

#[test]
fn plugin_listing_and_lifecycle() {
    let (server, agent, _broker) = served_agent();
    let addr = server.addr();

    let (code, body) = http_request(addr, Method::Get, "/analytics/plugins", b"").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("\"avg\""));
    assert!(body.contains("\"running\""));

    let (code, _) = http_request(addr, Method::Put, "/analytics/plugins/avg/stop", b"").unwrap();
    assert_eq!(code, 200);
    assert!(!agent.manager().is_running("avg"));

    let (code, _) = http_request(addr, Method::Put, "/analytics/plugins/avg/start", b"").unwrap();
    assert_eq!(code, 200);
    assert!(agent.manager().is_running("avg"));

    let (code, _) = http_request(addr, Method::Put, "/analytics/plugins/avg/explode", b"").unwrap();
    assert_eq!(code, 400);
    let (code, _) = http_request(addr, Method::Put, "/analytics/plugins/ghost/stop", b"").unwrap();
    assert_eq!(code, 404);
}

#[test]
fn on_demand_compute_over_tcp() {
    let (server, _agent, _broker) = served_agent();
    let addr = server.addr();

    let (code, body) =
        http_request(addr, Method::Get, "/analytics/plugins/avg/units", b"").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("/r0/n0"), "{body}");

    let (code, body) =
        http_request(addr, Method::Get, "/analytics/compute/avg?unit=/r0/n1", b"").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("power-avg"), "{body}");
    assert!(body.contains("\"value\""));

    let (code, _) = http_request(
        addr,
        Method::Get,
        "/analytics/compute/avg?unit=/r0/ghost",
        b"",
    )
    .unwrap();
    assert_eq!(code, 404);
}

#[test]
fn raw_sensor_queries_over_tcp() {
    let (server, _agent, _broker) = served_agent();
    let addr = server.addr();
    let (code, body) = http_request(
        addr,
        Method::Get,
        "/sensors/r0/n0/power?from_s=10&to_s=12",
        b"",
    )
    .unwrap();
    assert_eq!(code, 200);
    let rows: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(rows.as_array().unwrap().len(), 3);

    // Unknown sensor: empty list, not an error (query semantics).
    let (code, body) = http_request(addr, Method::Get, "/sensors/r9/none/power", b"").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body.trim(), "[]");
}

/// Polls the server's counters until `ready` holds.
fn wait_for(server: &RestServer, what: &str, ready: impl Fn(&RestServer) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !ready(server) {
        assert!(Instant::now() < deadline, "{what}: {:?}", server.metrics());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The event loop reads a connection once right after `accept()`; a
/// request that is only half there by then must still be completed by
/// the bytes that follow.
#[test]
fn request_sent_in_two_halves_is_served() {
    let (server, _agent, _broker) = served_agent();
    let request = b"GET /sensors/r0/n0/power?from_s=10&to_s=12 HTTP/1.1\r\nHost: dcdb\r\n\r\n";
    let (first, second) = request.split_at(request.len() / 2);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(first).unwrap();
    // Accepted (and read, on the same thread) with half a request.
    wait_for(&server, "accept", |s| s.metrics().accepted == 1);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.metrics().responses, 0);
    stream.write_all(second).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "reply = {reply:?}");
    let body = reply.split("\r\n\r\n").nth(1).unwrap();
    let rows: serde_json::Value = serde_json::from_str(body).unwrap();
    assert_eq!(rows.as_array().unwrap().len(), 3);
    wait_for(&server, "response counted", |s| s.metrics().responses == 1);
    assert_eq!(server.metrics().bad_requests, 0);
}

/// A client that connects and never sends is not closed by the
/// read-on-accept (nothing to read is not end-of-stream); it is reaped
/// at the idle deadline, once.
#[test]
fn silent_client_is_reaped_at_the_idle_deadline_and_counted_once() {
    let idle = Duration::from_millis(200);
    let (server, _agent, _broker) = served_agent_with(ServerConfig {
        idle_timeout: idle,
        ..ServerConfig::default()
    });
    let connected = Instant::now();
    let mut silent = TcpStream::connect(server.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    silent.read_to_end(&mut buf).unwrap();
    assert!(buf.is_empty(), "no response to no request");
    assert!(connected.elapsed() >= idle, "closed before the deadline");
    wait_for(&server, "reap", |s| s.metrics().open_connections == 0);
    // Long enough for several more poll ticks to pass over it.
    std::thread::sleep(2 * idle);
    let m = server.metrics();
    assert_eq!(
        (m.accepted, m.reaped_idle, m.responses, m.bad_requests),
        (1, 1, 0, 0),
        "{m:?}"
    );
}

#[test]
fn unload_over_tcp_removes_the_instance() {
    let (server, agent, _broker) = served_agent();
    let addr = server.addr();
    let (code, _) = http_request(addr, Method::Delete, "/analytics/plugins/avg", b"").unwrap();
    assert_eq!(code, 204);
    assert!(agent.manager().units_of("avg").is_err());
    let (code, _) = http_request(addr, Method::Delete, "/analytics/plugins/avg", b"").unwrap();
    assert_eq!(code, 404);
}

#[test]
fn reload_over_tcp_rebinds_units() {
    let (server, agent, broker) = served_agent();
    let addr = server.addr();
    assert_eq!(agent.manager().units_of("avg").unwrap().len(), 2);

    // A third node starts reporting.
    broker
        .handle()
        .publish_readings(
            Topic::parse("/r0/n2/power").unwrap(),
            &[SensorReading::new(250, Timestamp::from_secs(21))],
        )
        .unwrap();
    agent.process_pending();

    let (code, _) = http_request(addr, Method::Put, "/analytics/plugins/avg/reload", b"").unwrap();
    assert_eq!(code, 200);
    assert_eq!(agent.manager().units_of("avg").unwrap().len(), 3);
}
