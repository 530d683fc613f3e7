//! # dcdb-common — shared primitives for the DCDB/Wintermute stack
//!
//! This crate holds the data model every other crate builds on, matching
//! the DCDB monitoring framework the Wintermute paper extends
//! (Netti et al., *DCDB Wintermute*, HPDC 2020):
//!
//! * [`time`] — nanosecond [`Timestamp`]s (the one virtual clock for
//!   simulation is [`sim::SimClock`]);
//! * [`reading`] — [`SensorReading`]s (value + timestamp) and
//!   single-pass aggregate statistics;
//! * [`batch`] — columnar [`ReadingBatch`]es, the one ingest currency:
//!   what the bus frames, the journal records and the storage engines
//!   insert;
//! * [`topic`] — MQTT-style sensor [`Topic`]s;
//! * [`cache`] — the per-sensor [`SensorCache`] ring buffer with O(1)
//!   relative and O(log N) absolute reads, shared without a lock
//!   (paper §V-B);
//! * [`regex`] — a from-scratch linear-time regular-expression engine
//!   used by Unit System filters (paper §III-B);
//! * [`sim`] — deterministic-simulation primitives: the shared
//!   [`SimClock`], the canonical [`EventTrace`] whose hash witnesses
//!   replay determinism, the [`SimScheduler`] event queue, and the
//!   splitmix64 [`derive_seed`] lane splitter;
//! * [`supervisor`] — the one failure detector ([`Supervisor`]: `Up` →
//!   `Degraded` → `Down` with capped backoff) every Pusher connection
//!   and every federation shard runs;
//! * [`config`] — typed and key-value configuration blocks;
//! * [`doc`] — control-plane documents rendered from snapshot structs;
//! * [`error`] — the shared [`DcdbError`] type.

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod config;
pub mod doc;
pub mod error;
pub mod reading;
pub mod regex;
pub mod sim;
pub mod supervisor;
pub mod time;
pub mod topic;

pub use batch::ReadingBatch;
pub use cache::{PushOutcome, SensorCache};
pub use config::{KvConfig, SamplingConfig};
pub use doc::document;
pub use error::{DcdbError, Result};
pub use reading::{decode_f64, encode_f64, ReadingStats, SensorReading, FIXED_POINT_SCALE};
pub use regex::Regex;
pub use sim::{derive_seed, EventTrace, SimClock, SimScheduler};
pub use supervisor::{ConnectionState, ReconnectConfig, Supervisor};
pub use time::{Timestamp, NS_PER_MS, NS_PER_SEC, NS_PER_US};
pub use topic::Topic;
