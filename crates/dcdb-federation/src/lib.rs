//! # dcdb-federation — multi-agent sharding and scatter-gather routing
//!
//! The paper's production DCDB is not one Collect Agent but a fleet:
//! pushers fan out across many agents, and the query tier above them
//! stitches the fleet back into one sensor space (§IV-A, §VI). This
//! crate reproduces that tier:
//!
//! * [`ring`] — a deterministic consistent-hash ring ([`ShardMap`])
//!   placing topic shard keys on agents with virtual nodes; join/leave
//!   moves ~1/N of the keyspace and nothing else;
//! * [`agent`] — [`FederatedAgent`], N broker + Collect Agent pairs
//!   behind one [`dcdb_bus::MessageBus`], with an epoch-numbered shard
//!   map swapped on every membership change, honest crash semantics for
//!   `kill`, and one failure detector per shard (the Pusher
//!   connection's [`dcdb_common::Supervisor`]) that fails the shard
//!   over when it crosses into `Down`;
//! * [`replica`] — the primary→standby stream within one shard: a
//!   [`NodeEngine`] streams each acked write onto a bounded
//!   [`ReplicaStream`], whose pump hands the standby one group per pass
//!   and runs the watermark-bounded catch-up a rejoin or an overflow
//!   asks for; the conservation identity is `acked ==
//!   durable_on_primary + replicating + durable_on_replica_only`;
//! * [`router`] — [`QueryRouter`], the scatter-gather front door
//!   serving the single-agent REST surface (`/sensors`, `/metrics`,
//!   `/health`, analytics) across shards, with per-shard deadlines that
//!   feed each shard's detector (a `Down` shard is skipped until its
//!   capped backoff admits a probe), and an envelope on every response whose
//!   accounting identity `shards_total == shards_ok + shards_timed_out
//!   + shards_down` makes partial results explicit instead of silent.

#![warn(missing_docs)]

pub mod agent;
pub mod replica;
pub mod ring;
pub mod router;

pub use agent::{FederatedAgent, FederationConfig, FederationStats, Shard};
pub use replica::{DrainLoss, NodeEngine, ReplicaStats, ReplicaStream};
pub use ring::{ShardMap, DEFAULT_VNODES};
pub use router::{
    merge_time_ordered, FederatedQuery, QueryEnvelope, QueryRouter, RouterConfig, RouterStats,
    ShardOutcome,
};
