//! # dcdb-bus — MQTT-like transport for DCDB
//!
//! DCDB moves all monitoring data over MQTT: Pushers publish sensor
//! frames, Collect Agents broker and consume them (paper §IV-A, Fig. 3).
//! This crate reproduces that transport in-process:
//!
//! * [`filter`] — MQTT topic filters with `+` / `#` wildcards;
//! * [`codec`] — the compact binary frame format for reading batches;
//! * [`queue`] — bounded delivery queues with overflow policies
//!   (block / drop-newest / drop-oldest) and lock-free metrics;
//! * [`broker`] — a QoS-0 [`Broker`](broker::Broker) with trie-based
//!   routing on the publisher's thread and a bounded queue on every
//!   subscription;
//! * [`chaos`] — a deterministic fault-injection wrapper
//!   ([`ChaosBus`](chaos::ChaosBus)) implementing the same
//!   [`MessageBus`](broker::MessageBus) surface: seeded refuse-publish
//!   windows, per-message drops, delivery delay and partitions, so
//!   outages replay bit-for-bit in tests and benches.
//!
//! The broker is deliberately faithful to how the paper uses MQTT —
//! topic-based fan-out with publisher/consumer decoupling and explicit
//! QoS-0 load shedding — while replacing sockets with queues; the frame
//! codec keeps the serialization cost on the data path.

#![warn(missing_docs)]

pub mod broker;
pub mod chaos;
pub mod codec;
pub mod filter;
pub mod queue;

pub use broker::{
    Broker, BusConfig, BusHandle, BusMetricsSnapshot, BusStatsSnapshot, Message, MessageBus,
    SubscribeOptions, Subscription, SubscriptionMetrics,
};
pub use chaos::{ChaosBus, ChaosConfig, ChaosMetricsSnapshot};
pub use codec::{decode_batch, encode_batch};
pub use filter::{FilterSegment, TopicFilter};
pub use queue::{OverflowPolicy, QueueMetricsSnapshot};
