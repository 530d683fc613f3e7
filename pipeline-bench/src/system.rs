//! Builds the composed system under test — Pushers with tester
//! plugins, the broker, a Collect Agent over a durable backend, and
//! optionally its REST server — exactly as `src/bin/wintermute-sim.rs`
//! wires them, with the wrappers of [`crate::wrap`] slotted in at the
//! trait seams when the run is traced.

use crate::wrap::{Capture, TimedBus, TimedIo, TimedPlugin, TimedStorage};
use dcdb_bus::{Broker, MessageBus};
use dcdb_collectagent::{CollectAgent, CollectAgentConfig};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use dcdb_pusher::{MonitoringPlugin, Pusher, PusherConfig, TesterMonitoringPlugin};
use dcdb_rest::{RestServer, Router, ServerConfig};
use dcdb_storage::{DurableBackend, DurableConfig, StdIo, StorageEngine};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Shape of the write side: who samples what, how often.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub pushers: usize,
    pub sensors_per_pusher: usize,
    /// Sampling interval; tick `k` carries timestamp `k · interval`.
    pub interval_ms: u64,
    /// Collect Agent cache window in sampling intervals (the program's
    /// default is 180 s at 1 s).
    pub cache_intervals: u64,
}

impl Shape {
    pub fn readings_per_tick(&self) -> u64 {
        (self.pushers * self.sensors_per_pusher) as u64
    }

    pub fn tick_ts(&self, k: u64) -> Timestamp {
        Timestamp(k * self.interval_ms * 1_000_000)
    }

    /// The component path Pusher `p` samples under: sixteen nodes to a
    /// rack, so `/rack00/+/t000/value` fans out over sixteen series.
    pub fn prefix(&self, p: usize) -> Topic {
        Topic::parse(&format!("/rack{:02}/node{:02}", p / 16, p % 16)).expect("valid prefix")
    }

    /// Topic of sensor `s` of Pusher `p`, as `TesterMonitoringPlugin`
    /// names it.
    pub fn topic(&self, p: usize, s: usize) -> String {
        format!("{}/t{s:03}/value", self.prefix(p))
    }
}

/// The wrappers' shared state in a traced run.
pub struct Probes {
    pub capture: Arc<Capture>,
    pub storage: Arc<TimedStorage>,
    /// Duration of every fsync the engine issued, from any thread.
    pub sync_ns: Arc<Mutex<Vec<u64>>>,
}

/// One composed system. Field order is drop order: producers first,
/// then the server and agent that hold the engine, the broker last.
pub struct System {
    pub pushers: Vec<Pusher>,
    pub server: Option<RestServer>,
    pub agent: Arc<CollectAgent>,
    pub engine: Arc<DurableBackend>,
    pub probes: Option<Probes>,
    pub broker: Broker,
}

/// The `ServerConfig` every workload serves with: two workers on a
/// two-core box, everything else the program's default.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

impl System {
    /// Opens a fresh data directory and wires the system. `traced`
    /// installs the wrappers; `serve` mounts the agent's routes on a
    /// loopback REST server.
    pub fn build(dir: &Path, shape: Shape, traced: bool, serve: bool) -> System {
        let _ = std::fs::remove_dir_all(dir);
        let broker = Broker::new();
        let capture = Arc::new(Capture::default());
        let config = DurableConfig::default();
        let (engine, storage, probes): (_, Arc<dyn StorageEngine>, _) = if traced {
            let io = TimedIo::<StdIo>::default();
            let (sync_ns, segment_files) = (Arc::clone(&io.sync_ns), Arc::clone(&io.segment_files));
            let engine = Arc::new(
                DurableBackend::open_with(Arc::new(io), dir, config).expect("open durable backend"),
            );
            let timed = Arc::new(TimedStorage::new(
                Arc::clone(&engine),
                Arc::clone(&capture),
                segment_files,
            ));
            let probes = Probes {
                capture: Arc::clone(&capture),
                storage: Arc::clone(&timed),
                sync_ns,
            };
            (engine, timed, Some(probes))
        } else {
            let engine = Arc::new(DurableBackend::open(dir, config).expect("open durable backend"));
            (Arc::clone(&engine), engine, None)
        };
        let agent = Arc::new(
            CollectAgent::new(
                CollectAgentConfig {
                    cache_secs: shape.cache_intervals * shape.interval_ms / 1000,
                    expected_interval_ms: shape.interval_ms,
                    // One round of single-reading messages must fit.
                    ingest_budget: (shape.readings_per_tick() as usize).max(4096),
                    ..CollectAgentConfig::default()
                },
                &broker.handle(),
                storage,
            )
            .expect("collect agent"),
        );
        let server = serve.then(|| {
            let mut router = Router::new();
            agent.mount_routes(&mut router);
            RestServer::serve_with("127.0.0.1:0", router, server_config()).expect("REST server")
        });
        let pushers = (0..shape.pushers)
            .map(|p| {
                let config = PusherConfig {
                    sampling_interval_ms: shape.interval_ms,
                    cache_secs: shape.cache_intervals * shape.interval_ms / 1000,
                    ..PusherConfig::default()
                };
                let bus: Arc<dyn MessageBus> = if traced {
                    Arc::new(TimedBus {
                        inner: broker.handle(),
                        capture: Arc::clone(&capture),
                    })
                } else {
                    Arc::new(broker.handle())
                };
                let mut pusher = Pusher::with_bus(config, Some(bus));
                let tester: Box<dyn MonitoringPlugin> = Box::new(
                    TesterMonitoringPlugin::new(&shape.prefix(p), shape.sensors_per_pusher)
                        .expect("tester plugin"),
                );
                pusher.add_monitoring_plugin(if traced {
                    Box::new(TimedPlugin(tester))
                } else {
                    tester
                });
                pusher.refresh_sensor_tree();
                pusher
            })
            .collect();
        System {
            pushers,
            server,
            agent,
            engine,
            probes,
            broker,
        }
    }

    /// One untraced round, exactly the loop of `wintermute-sim`: every
    /// Pusher ticks, the router settles, the agent ticks.
    pub fn round(&self, now: Timestamp) {
        for pusher in &self.pushers {
            pusher.tick(now).expect("pusher tick");
        }
        self.broker.flush();
        self.agent.tick(now);
    }
}
