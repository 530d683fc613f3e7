//! # wintermute — online and holistic operational data analytics
//!
//! A from-scratch Rust implementation of the Wintermute ODA framework
//! (Netti et al., *DCDB Wintermute: Enabling Online and Holistic
//! Operational Data Analytics on HPC Systems*, HPDC 2020). Wintermute
//! is a plugin-based analytics layer embedded in the DCDB monitoring
//! components (Pushers and Collect Agents) that turns raw monitoring
//! data into actionable knowledge — regression, aggregation, clustering
//! — at any level of an HPC system, online or on demand.
//!
//! The crate mirrors the paper's architecture (Fig. 4):
//!
//! * [`tree`] — the **sensor tree** abstraction over MQTT-style topics
//!   (§III-A) with level-indexed navigation;
//! * [`mod@unit`] — the **Unit System**: pattern expressions, pattern units
//!   and their resolution into concrete units (§III-B/C, §V-C.2);
//! * [`query`] — the **Query Engine**: cache-first sensor access with
//!   relative (O(1)) and absolute (O(log N)) query modes (§V-B);
//! * [`operator`] — the **operator** abstraction: online/on-demand
//!   modes, sequential/parallel unit management, operator-level outputs
//!   (§IV-B, §V-C.1);
//! * [`plugin`] — plugin configurators and configuration files (§V-C.2);
//! * [`job`] — **job operators** with dynamic per-job units (§VI-C);
//! * [`manager`] — the **Operator Manager**: lifecycle, tick-based
//!   scheduling and the RESTful management API (§V-A); a tick returns
//!   its outputs for the host to forward.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use wintermute::prelude::*;
//! use dcdb_common::{SensorReading, Timestamp, Topic};
//!
//! // A query engine holding one sensor.
//! let qe = Arc::new(QueryEngine::new(64));
//! let power = Topic::parse("/node0/power").unwrap();
//! for s in 1..=10 {
//!     qe.insert(&power, SensorReading::new(100 + s as i64, Timestamp::from_secs(s)));
//! }
//! qe.rebuild_navigator();
//!
//! // The most recent reading, then an absolute range.
//! let latest = qe.query(&power, QueryMode::Latest);
//! assert_eq!(latest[0].value, 110);
//! let range = qe.query(&power, QueryMode::Absolute {
//!     t0: Timestamp::from_secs(3),
//!     t1: Timestamp::from_secs(5),
//! });
//! assert_eq!(range.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod job;
pub mod manager;
pub mod operator;
pub mod plugin;
pub mod query;
pub mod tree;
pub mod unit;

/// The commonly-used API surface in one import.
pub mod prelude {
    pub use crate::job::{JobDataSource, JobInfo, JobUnitBuilder, StaticJobSource};
    pub use crate::manager::{
        FaultPolicy, OperatorManager, OperatorMetricsSnapshot, OperatorTotals,
        PluginMetricsSnapshot, PluginStatus, TickReport,
    };
    pub use crate::operator::{
        compute_all_units, finite_output, ComputeContext, Operator, OperatorMode, Output, UnitMode,
    };
    pub use crate::plugin::{instantiate, OperatorPlugin, PluginConfig, WintermuteConfig};
    pub use crate::query::{
        AggFunc, AggPlan, AggSeries, KnownTopics, QueryEngine, QueryMode, QueryStats,
    };
    pub use crate::tree::{LevelSpec, SensorNavigator};
    pub use crate::unit::{resolve_units, PatternExpr, Resolution, Unit, UnitTemplate};
}

pub use prelude::*;
