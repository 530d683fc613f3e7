//! The consistent-hash ring over the sensor topic space.
//!
//! The paper's production deployment (§VI–§VII) is hierarchical: many
//! Collect Agents feed a query tier. This module provides the placement
//! function for that tier: a [`ShardMap`] hashing *topic shard keys*
//! (the first `shard_key_depth` path segments, see
//! [`dcdb_common::topic::Topic::prefix`]) onto agents through a ring of
//! virtual nodes.
//!
//! Properties the rest of the federation relies on:
//!
//! * **Deterministic** — placement depends only on `(agents, vnodes,
//!   shard_key_depth)`; two processes building a map from the same
//!   agent set agree on every assignment, so a map is rebuilt from
//!   those generators, never shipped around. (Placement metadata is
//!   cheap to recompute; the *data* a shard holds is what
//!   [`crate::replica`] replicates.)
//! * **Stable under churn** — removing one agent only moves the keys
//!   that agent owned; everything else stays put (the point of
//!   consistent hashing: a join/leave rebalances ~1/N of the space).
//! * **Component-affine** — keys are topic *prefixes*, so all sensors
//!   of one node (`/rack00/node03/...`) land on the same shard and a
//!   per-node analysis never fans out.

use dcdb_common::topic::Topic;

/// Default virtual nodes per agent: enough to keep the largest/smallest
/// shard ratio near 1 for small fleets.
pub const DEFAULT_VNODES: usize = 64;

/// 64-bit FNV-1a with a splitmix64 finalizer: tiny, dependency-free,
/// stable across platforms and process runs (unlike `std`'s
/// `DefaultHasher`, which is randomized). Raw FNV-1a mixes its high
/// bits poorly on short, similar strings (`agent-00#0` vs
/// `agent-00#1`), and ring placement orders by the *full* u64 — the
/// finalizer's avalanche is what makes vnode points actually
/// interleave instead of clustering per agent.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// A versioned, deterministic assignment of the topic space to agents.
///
/// Built with [`ShardMap::build`]; queried with [`ShardMap::assign`].
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Monotonic map version; bumped on every rebalance.
    pub epoch: u64,
    /// Virtual nodes per agent.
    pub vnodes: usize,
    /// How many leading topic segments form the shard key.
    pub shard_key_depth: usize,
    /// Member agent ids, sorted (placement is order-independent).
    pub agents: Vec<String>,
    /// Ring points: `(hash, agent index)`, sorted by hash. Derived from
    /// the fields above.
    points: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Builds the epoch-0 map for `agents`.
    pub fn build(agents: &[String], vnodes: usize, shard_key_depth: usize) -> ShardMap {
        ShardMap::build_at(0, agents, vnodes, shard_key_depth)
    }

    /// Builds a map at an explicit epoch (rebalances bump the epoch of
    /// the map they replace).
    pub fn build_at(
        epoch: u64,
        agents: &[String],
        vnodes: usize,
        shard_key_depth: usize,
    ) -> ShardMap {
        let vnodes = vnodes.max(1);
        let mut agents: Vec<String> = agents.to_vec();
        agents.sort();
        agents.dedup();
        let mut points = Vec::with_capacity(agents.len() * vnodes);
        for (idx, id) in agents.iter().enumerate() {
            for v in 0..vnodes {
                let point = fnv1a(format!("{id}#{v}").as_bytes());
                points.push((point, idx as u32));
            }
        }
        // Ties broken by agent index so placement stays deterministic
        // even on (astronomically unlikely) hash collisions.
        points.sort_unstable();
        ShardMap {
            epoch,
            vnodes,
            shard_key_depth: shard_key_depth.max(1),
            agents,
            points,
        }
    }

    /// A copy of this map with `agents` as the member set and the epoch
    /// bumped — the rebalance primitive.
    pub fn rebalanced(&self, agents: &[String]) -> ShardMap {
        ShardMap::build_at(self.epoch + 1, agents, self.vnodes, self.shard_key_depth)
    }

    /// The shard key of `topic`: its first `shard_key_depth` segments.
    pub fn shard_key(&self, topic: &Topic) -> Topic {
        topic.prefix(self.shard_key_depth)
    }

    /// The index (into [`ShardMap::agents`]) of the agent owning
    /// `topic`, or `None` for an empty map.
    pub fn assign(&self, topic: &Topic) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let key = fnv1a(self.shard_key(topic).as_str().as_bytes());
        // First ring point at or after the key, wrapping around.
        let at = self.points.partition_point(|&(h, _)| h < key);
        let (_, idx) = self.points[if at == self.points.len() { 0 } else { at }];
        Some(idx as usize)
    }

    /// The id of the agent owning `topic`.
    pub fn assign_id(&self, topic: &Topic) -> Option<&str> {
        self.assign(topic).map(|i| self.agents[i].as_str())
    }

    /// Number of member agents.
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// True when no agents are in the map.
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fraction of `topics` whose owner differs between `a` and `b`:
    /// the churn a rebalance causes.
    fn moved_fraction(a: &ShardMap, b: &ShardMap, topics: &[Topic]) -> f64 {
        let moved = topics
            .iter()
            .filter(|t| a.assign_id(t) != b.assign_id(t))
            .count();
        moved as f64 / topics.len() as f64
    }

    fn agents(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("agent-{i:02}")).collect()
    }

    fn topics() -> Vec<Topic> {
        let mut out = Vec::new();
        for rack in 0..4 {
            for node in 0..16 {
                for sensor in ["power", "temp", "cpu00/cycles", "cpu01/cycles"] {
                    out.push(
                        Topic::parse(&format!("/rack{rack:02}/node{node:02}/{sensor}")).unwrap(),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let a = ShardMap::build(&agents(4), 64, 2);
        let mut shuffled = agents(4);
        shuffled.reverse();
        let b = ShardMap::build(&shuffled, 64, 2);
        for t in topics() {
            assert_eq!(a.assign_id(&t), b.assign_id(&t), "{t}");
        }
    }

    #[test]
    fn all_sensors_of_one_component_colocate() {
        let map = ShardMap::build(&agents(8), 64, 2);
        for node in 0..16 {
            let owner = map
                .assign_id(&Topic::parse(&format!("/rack00/node{node:02}/power")).unwrap())
                .unwrap()
                .to_string();
            for sensor in ["temp", "memfree", "cpu03/cache-misses"] {
                let t = Topic::parse(&format!("/rack00/node{node:02}/{sensor}")).unwrap();
                assert_eq!(map.assign_id(&t), Some(owner.as_str()), "{t}");
            }
        }
    }

    #[test]
    fn load_spreads_across_agents() {
        let map = ShardMap::build(&agents(4), 64, 2);
        let mut counts = [0usize; 4];
        for t in topics() {
            counts[map.assign(&t).unwrap()] += 1;
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, topics().len());
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "agent {i} owns nothing: {counts:?}");
        }
        // With 64 vnodes the imbalance stays moderate.
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 4.0, "{counts:?}");
    }

    #[test]
    fn removing_one_agent_moves_only_its_keys() {
        let before = ShardMap::build(&agents(4), 64, 2);
        let after = before.rebalanced(&agents(4)[..3]);
        assert_eq!(after.epoch, 1);
        let ts = topics();
        for t in &ts {
            let old = before.assign_id(t).unwrap();
            let new = after.assign_id(t).unwrap();
            if old != "agent-03" {
                assert_eq!(old, new, "{t} moved although its owner stayed");
            } else {
                assert_ne!(new, "agent-03");
            }
        }
        // Churn ≈ 1/N, certainly nowhere near a full reshuffle.
        let moved = moved_fraction(&before, &after, &ts);
        assert!(moved > 0.0 && moved < 0.5, "moved {moved}");
    }

    #[test]
    fn rejoin_restores_previous_placement() {
        let before = ShardMap::build(&agents(4), 64, 2);
        let shrunk = before.rebalanced(&agents(4)[..3]);
        let rejoined = shrunk.rebalanced(&agents(4));
        assert_eq!(rejoined.epoch, 2);
        for t in topics() {
            assert_eq!(before.assign_id(&t), rejoined.assign_id(&t), "{t}");
        }
    }

    #[test]
    fn empty_map_assigns_nothing() {
        let map = ShardMap::build(&[], 64, 2);
        assert!(map.is_empty());
        assert_eq!(map.assign(&Topic::parse("/a/b").unwrap()), None);
    }

    #[test]
    fn single_agent_owns_everything() {
        let map = ShardMap::build(&agents(1), 64, 2);
        for t in topics() {
            assert_eq!(map.assign_id(&t), Some("agent-00"));
        }
    }
}
