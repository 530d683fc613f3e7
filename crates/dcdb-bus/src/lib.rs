//! # dcdb-bus — MQTT-like transport for DCDB
//!
//! DCDB moves all monitoring data over MQTT: Pushers publish sensor
//! frames, Collect Agents broker and consume them (paper §IV-A, Fig. 3).
//! This crate reproduces that transport in-process:
//!
//! * [`filter`] — MQTT topic filters with `+` / `#` wildcards;
//! * [`codec`] — the compact binary frames: a Pusher's node frame (one
//!   per tick and node prefix) and the one-sensor batch frame;
//! * [`queue`] — bounded delivery queues, one lock around a ring, that
//!   shed by policy (drop-newest / drop-oldest) and count every drop;
//! * [`broker`] — a QoS-0 [`Broker`] that matches each publish against
//!   one subscription list on the publisher's thread, with a bounded
//!   queue on every subscription (`--overflow` in `wintermute-sim`
//!   picks these queues' policy; a Pusher's spool, sized in ticks by
//!   `--spool-depth`, always evicts its oldest tick);
//! * [`chaos`] — a deterministic fault-injection wrapper ([`ChaosBus`])
//!   implementing the same [`MessageBus`] surface: seeded
//!   refuse-publish windows, per-message drops, delivery delay and
//!   partitions, so outages replay bit-for-bit in tests and benches.
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
pub use codec::{decode_batch, decode_frame, encode_batch, Frame, FrameBuilder};
pub use filter::{FilterSegment, TopicFilter};
pub use queue::{OverflowPolicy, QueueMetricsSnapshot};
