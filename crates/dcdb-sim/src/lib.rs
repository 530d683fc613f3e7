//! # dcdb-sim — deterministic fault-simulation harness
//!
//! FoundationDB-style simulation testing for the Wintermute stack: one
//! seeded virtual-time event scheduler drives **every** chaos layer at
//! once — transport outages and silent drops ([`dcdb_bus::ChaosBus`]),
//! storage ENOSPC/EIO/fsync-poison windows ([`dcdb_storage::FaultIo`]),
//! operator panics and quarantine, shard kill/rejoin churn, island-scale
//! facility events, and flash-crowd query storms — all derived from a
//! single `--seed` via per-lane splitmix sub-seeds.
//!
//! Every injected event and every observed state transition (queue
//! shed, quarantine, health-state change, promotion, routed-down) is
//! appended to one canonical [`dcdb_common::sim::EventTrace`]; the
//! trace's FNV-1a hash is the run's **determinism witness**. Two runs of
//! the same `(scenario, seed, scale)` must produce byte-identical
//! witnesses and identical end-of-run counters, so any failure observed
//! anywhere — CI, the sim matrix, a 1500-node soak — is reproduced
//! exactly from three small values.
//!
//! ```
//! use dcdb_sim::{find, run_scenario, Scale};
//!
//! let scenario = find("bus_outage").unwrap();
//! let a = run_scenario(scenario, 42, Scale::Tiny);
//! let b = run_scenario(scenario, 42, Scale::Tiny);
//! assert_eq!(a.trace_hash, b.trace_hash);
//! assert!(a.identities.all());
//! ```

#![warn(missing_docs)]

mod harness;
pub mod ledger;
pub mod operators;
pub mod report;
pub mod scenario;

pub use harness::run_scenario;
pub use report::{CounterSummary, IdentityReport, ScenarioReport, SloReport};
pub use scenario::{find, LaneSet, Scale, Scenario, SCENARIOS};
