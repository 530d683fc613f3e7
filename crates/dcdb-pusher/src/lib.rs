//! # dcdb-pusher — the DCDB sampling daemon with embedded Wintermute
//!
//! Pushers run on every monitored component, sampling sensors through
//! monitoring plugins and publishing readings over MQTT (paper §IV-A).
//! With Wintermute integrated, they also host operators working on the
//! local sensor caches — the in-band, low-latency deployment location
//! (paper §IV-B a).
//!
//! * [`plugins`] — the monitoring-plugin interface plus the
//!   simulator-backed and tester plugins;
//! * [`delivery`] — the supervised bus connection (reconnect backoff,
//!   connection-state machine) and the bounded store-and-forward spool
//!   that rides out broker outages;
//! * [`pusher`] — the tick-driven Pusher itself.

#![warn(missing_docs)]

pub mod delivery;
pub mod plugins;
pub mod pusher;

pub use delivery::{
    BusConnection, DeliveryConfig, DeliveryMetricsSnapshot, DeliveryOutcome, SpoolConfig,
    SpoolMetricsSnapshot,
};
pub use plugins::{
    standard_plugin_set, ClassMonitoringPlugin, FlakyMonitoringPlugin, MonitoringPlugin,
    SensorClass, SharedNodeSampler, SimMonitoringPlugin, TesterMonitoringPlugin,
};
pub use pusher::{PluginMetricsSnapshot, Pusher, PusherConfig, PusherStats};
