//! Cluster topology: the component hierarchy behind the sensor tree.
//!
//! The paper's experiments run on CooLMUC-3: 148 compute nodes with 64
//! Xeon Phi cores each (§VI). The simulator reproduces that scale and
//! hands every component a slash-separated topic path, which is exactly
//! what the Wintermute sensor tree is built from (§III-A).

use dcdb_common::topic::Topic;
use serde::{Deserialize, Serialize};

/// Shape of a simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of racks.
    pub racks: usize,
    /// Compute nodes per rack.
    pub nodes_per_rack: usize,
    /// Nodes in the whole system (allows a ragged last rack, like the
    /// 148-node CooLMUC-3).
    pub total_nodes: usize,
    /// CPU cores per node.
    pub cores_per_node: usize,
    /// Machine islands (facility power/cooling domains). Racks split
    /// evenly across islands; with more than one island every topic
    /// gains an `/islandN` prefix, so island-scale facility events
    /// (power caps, cooling loss, rolling restarts) map to one topic
    /// subtree. `1` (the default, and what deserializing older configs
    /// yields) keeps the original single-island layout and paths.
    #[serde(default = "default_islands")]
    pub islands: usize,
}

fn default_islands() -> usize {
    1
}

impl Topology {
    /// A small topology for tests and examples.
    pub fn small() -> Topology {
        Topology {
            racks: 2,
            nodes_per_rack: 4,
            total_nodes: 8,
            cores_per_node: 4,
            islands: 1,
        }
    }

    /// The CooLMUC-3 production system: 148 nodes × 64 cores, laid out
    /// here as 4 racks of 37.
    pub fn coolmuc3() -> Topology {
        Topology {
            racks: 4,
            nodes_per_rack: 37,
            total_nodes: 148,
            cores_per_node: 64,
            islands: 1,
        }
    }

    /// A topology sized for a federated deployment of `agents` Collect
    /// Agents (clamped to 4–16, the range the federation scaling and
    /// failover-resilience benches and the CI smokes drive): one rack
    /// per agent, sixteen nodes per rack.
    /// With the federation's default shard key (`/rackNN/nodeNN`, depth
    /// 2) that yields sixteen times as many shard keys as agents — fine
    /// enough granularity for the consistent-hash ring to spread load
    /// evenly (the slowest shard bounds federated ingest) while keeping
    /// each node's sensors colocated on one agent.
    pub fn federated(agents: usize) -> Topology {
        let islands = agents.clamp(4, 16);
        Topology::new(islands, 16, 8)
    }

    /// A custom topology.
    pub fn new(racks: usize, nodes_per_rack: usize, cores_per_node: usize) -> Topology {
        assert!(racks > 0 && nodes_per_rack > 0 && cores_per_node > 0);
        Topology {
            racks,
            nodes_per_rack,
            total_nodes: racks * nodes_per_rack,
            cores_per_node,
            islands: 1,
        }
    }

    /// A production-scale multi-island machine for the deterministic
    /// simulation harness: 3 islands × 32 racks × 16 nodes = 1536 nodes
    /// (an SuperMUC-NG-style island layout an order of magnitude past
    /// the paper's 148-node CooLMUC-3 testbed).
    pub fn multi_island() -> Topology {
        Topology::new(96, 16, 8).with_islands(3)
    }

    /// Splits the racks across `islands` facility domains (racks must
    /// divide evenly). With more than one island every component path
    /// gains an `/islandN` prefix.
    pub fn with_islands(mut self, islands: usize) -> Topology {
        assert!(islands > 0, "at least one island");
        assert!(
            self.racks.is_multiple_of(islands),
            "racks ({}) must divide evenly across islands ({islands})",
            self.racks
        );
        self.islands = islands;
        self
    }

    /// Racks per island.
    pub fn racks_per_island(&self) -> usize {
        self.racks / self.islands
    }

    /// The island a rack belongs to.
    pub fn island_of_rack(&self, rack: usize) -> usize {
        rack / self.racks_per_island()
    }

    /// The island a node belongs to.
    pub fn island_of_node(&self, node: usize) -> usize {
        self.island_of_rack(self.locate(node).0)
    }

    /// The topic prefix of an island, e.g. `/island1` — the subtree a
    /// facility event (power cap, cooling loss) cuts or throttles.
    /// Panics on a single-island topology, which has no island prefix.
    pub fn island_topic(&self, island: usize) -> Topic {
        assert!(self.islands > 1, "single-island topology has no prefix");
        assert!(island < self.islands, "island {island} out of range");
        Topic::parse(&format!("/island{island}")).expect("valid path")
    }

    /// Global index -> (rack, node-in-rack).
    pub fn locate(&self, node: usize) -> (usize, usize) {
        (node / self.nodes_per_rack, node % self.nodes_per_rack)
    }

    /// The component path of a compute node: `/rack02/node05`, or
    /// `/island0/rack02/node05` on a multi-island topology.
    pub fn node_topic(&self, node: usize) -> Topic {
        assert!(node < self.total_nodes, "node {node} out of range");
        let (rack, slot) = self.locate(node);
        let path = if self.islands > 1 {
            format!(
                "/island{}/rack{rack:02}/node{slot:02}",
                self.island_of_rack(rack)
            )
        } else {
            format!("/rack{rack:02}/node{slot:02}")
        };
        Topic::parse(&path).expect("valid path")
    }

    /// The component path of a core, e.g. `/rack02/node05/cpu17`.
    pub fn core_topic(&self, node: usize, core: usize) -> Topic {
        assert!(core < self.cores_per_node, "core {core} out of range");
        self.node_topic(node)
            .child(&format!("cpu{core:02}"))
            .expect("valid path")
    }

    /// Iterates all node indices.
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.total_nodes
    }

    /// Every sensor topic a node's Pusher publishes: node-level sensors
    /// plus per-core counters. This is the ground truth the monitoring
    /// plugins register against.
    pub fn node_sensor_topics(&self, node: usize) -> Vec<Topic> {
        let node_topic = self.node_topic(node);
        let mut out = Vec::with_capacity(6 + self.cores_per_node * NODE_CORE_SENSORS.len());
        for s in NODE_LEVEL_SENSORS.iter().chain(NODE_OPA_SENSORS) {
            out.push(node_topic.child(s).expect("valid sensor"));
        }
        for core in 0..self.cores_per_node {
            let core_topic = self.core_topic(node, core);
            for s in NODE_CORE_SENSORS {
                out.push(core_topic.child(s).expect("valid sensor"));
            }
        }
        out
    }
}

/// Node-level sensor names (power supply, thermal, memory, idle time).
pub const NODE_LEVEL_SENSORS: &[&str] = &["power", "temp", "memfree", "cpu-idle"];

/// Omni-Path interconnect counters (the OPA plugin's sensor set).
pub const NODE_OPA_SENSORS: &[&str] = &["opa-xmit-bytes", "opa-rcv-bytes"];

/// Per-core performance-counter names (the perfevent plugin's set).
pub const NODE_CORE_SENSORS: &[&str] = &["cycles", "instructions", "cache-misses", "flops"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coolmuc3_scale() {
        let t = Topology::coolmuc3();
        assert_eq!(t.total_nodes, 148);
        assert_eq!(t.cores_per_node, 64);
        assert_eq!(t.nodes().count(), 148);
    }

    #[test]
    fn locate_is_consistent_with_topics() {
        let t = Topology::coolmuc3();
        assert_eq!(t.locate(0), (0, 0));
        assert_eq!(t.locate(36), (0, 36));
        assert_eq!(t.locate(37), (1, 0));
        assert_eq!(t.locate(147), (3, 36));
        assert_eq!(t.node_topic(147).as_str(), "/rack03/node36");
        assert_eq!(t.core_topic(0, 63).as_str(), "/rack00/node00/cpu63");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_bounds_checked() {
        Topology::coolmuc3().node_topic(148);
    }

    #[test]
    fn sensor_topics_cover_node_and_cores() {
        let t = Topology::small();
        let topics = t.node_sensor_topics(3);
        assert_eq!(topics.len(), 6 + 4 * 4);
        assert!(topics
            .iter()
            .any(|x| x.as_str() == "/rack00/node03/opa-xmit-bytes"));
        assert!(topics.iter().any(|x| x.as_str() == "/rack00/node03/power"));
        assert!(topics
            .iter()
            .any(|x| x.as_str() == "/rack00/node03/cpu02/cache-misses"));
        // All topics are unique.
        let mut dedup = topics.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), topics.len());
    }

    #[test]
    fn federated_topology_scales_with_the_agent_count() {
        for agents in 4..=16 {
            let t = Topology::federated(agents);
            assert_eq!(t.racks, agents);
            // Plenty of shard keys (nodes) per agent so the hash ring
            // spreads load evenly.
            assert!(t.total_nodes >= 16 * agents);
        }
        // Clamped at both ends.
        assert_eq!(Topology::federated(1).racks, 4);
        assert_eq!(Topology::federated(64).racks, 16);
    }

    #[test]
    fn custom_topology() {
        let t = Topology::new(3, 5, 2);
        assert_eq!(t.total_nodes, 15);
        assert_eq!(t.node_topic(14).as_str(), "/rack02/node04");
    }

    #[test]
    fn multi_island_reaches_production_scale_with_island_prefixes() {
        let t = Topology::multi_island();
        assert!(t.total_nodes >= 1500, "{} nodes", t.total_nodes);
        assert_eq!(t.islands, 3);
        assert_eq!(t.racks_per_island(), 32);
        assert_eq!(t.node_topic(0).as_str(), "/island0/rack00/node00");
        // Node 512 = rack 32 = first rack of island 1.
        assert_eq!(t.island_of_node(512), 1);
        assert_eq!(t.node_topic(512).as_str(), "/island1/rack32/node00");
        assert_eq!(t.island_topic(2).as_str(), "/island2");
        // Every sensor topic of a node lives under its island's subtree —
        // facility events cut one prefix.
        for n in t.nodes() {
            let island = t.island_topic(t.island_of_node(n));
            assert!(t.node_topic(n).as_str().starts_with(island.as_str()));
        }
    }

    #[test]
    fn single_island_topologies_keep_legacy_paths() {
        // islands=1 must not perturb any existing path (golden
        // compatibility for the seed-era tests and benches).
        let t = Topology::coolmuc3();
        assert_eq!(t.islands, 1);
        assert_eq!(t.node_topic(147).as_str(), "/rack03/node36");
        // And older serialized configs (no `islands` field) deserialize.
        let legacy = r#"{"racks":2,"nodes_per_rack":4,"total_nodes":8,"cores_per_node":4}"#;
        let parsed: Topology = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed, Topology::small());
    }
}
