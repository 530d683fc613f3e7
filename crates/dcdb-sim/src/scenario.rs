//! The named-scenario registry: which fault lanes each scenario arms,
//! and the scales a scenario can run at.
//!
//! A scenario is pure data — a name plus a [`LaneSet`] — and the
//! harness derives everything else (outage windows, fault windows,
//! kill schedules, storm rounds, facility events) from the single run
//! seed via per-lane splitmix sub-seeds. `wintermute-sim --scenario
//! <name> --seed <s>` and the `sim_matrix` binary both resolve names
//! through this registry, so a scenario observed anywhere replays
//! bit-identically everywhere.

use sim_cluster::Topology;

/// Which fault lanes a scenario arms. Every lane draws its schedule
/// from its own splitmix sub-seed ([`dcdb_common::sim::lanes`]), so
/// arming one lane never perturbs another's schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneSet {
    /// ChaosBus outages, silent drops and delivery delays.
    pub bus: bool,
    /// FaultIo ENOSPC / EIO / fsync-poison windows under the shard
    /// journals, which then fsync every write.
    pub io: bool,
    /// Seeded operator panics and errors driving quarantine.
    pub operators: bool,
    /// Shard kill/rejoin churn (runs shards as replica pairs).
    pub churn: bool,
    /// Flash-crowd query storm bursts against the router.
    pub storm: bool,
    /// Island-scale facility events: power outages (island partitions),
    /// thermal throttles (publish decimation), rolling restarts
    /// (kill/rejoin sweeps). Forces a multi-island topology.
    pub facility: bool,
}

/// One named, replayable scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry key (`wintermute-sim --scenario <name>`).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The fault lanes this scenario arms.
    pub lanes: LaneSet,
}

/// Every named scenario, in registry order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "bus_outage",
        summary: "broker outage windows, silent drops and delivery delays on the transport",
        lanes: LaneSet {
            bus: true,
            ..quiet_lanes()
        },
    },
    Scenario {
        name: "storage_faults",
        summary: "ENOSPC / EIO / fsync-poison windows under every shard journal",
        lanes: LaneSet {
            io: true,
            ..quiet_lanes()
        },
    },
    Scenario {
        name: "operator_faults",
        summary: "seeded operator panics and errors driving containment and quarantine",
        lanes: LaneSet {
            operators: true,
            ..quiet_lanes()
        },
    },
    Scenario {
        name: "shard_churn",
        summary: "replica-pair shards killed and rejoined on a seeded schedule",
        lanes: LaneSet {
            churn: true,
            ..quiet_lanes()
        },
    },
    Scenario {
        name: "query_storm",
        summary: "flash-crowd query bursts against the scatter-gather router",
        lanes: LaneSet {
            storm: true,
            ..quiet_lanes()
        },
    },
    Scenario {
        name: "island_blackout",
        summary: "facility events: island power loss, thermal throttling, rolling restarts",
        lanes: LaneSet {
            facility: true,
            ..quiet_lanes()
        },
    },
    Scenario {
        name: "compound",
        summary: "every fault lane at once, from one seed",
        lanes: LaneSet {
            bus: true,
            io: true,
            operators: true,
            churn: true,
            storm: true,
            facility: true,
        },
    },
];

const fn quiet_lanes() -> LaneSet {
    LaneSet {
        bus: false,
        io: false,
        operators: false,
        churn: false,
        storm: false,
        facility: false,
    }
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// How big a run is: topology, federation width, and round count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Property-test size: 16 nodes, 2 agents, 10 rounds.
    Tiny,
    /// CI size: 64 nodes, 4 agents, 24 rounds.
    Small,
    /// Production size: a 1536-node, 3-island machine, 12 agents.
    Large,
}

impl Scale {
    /// Parses the CLI form.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Canonical lower-case label.
    pub fn as_str(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Large => "large",
        }
    }

    /// The topology a scenario runs over at this scale. Facility-lane
    /// scenarios need islands, so they get a multi-island variant of
    /// the same size class.
    pub fn topology(&self, lanes: &LaneSet) -> Topology {
        match (self, lanes.facility) {
            (Scale::Tiny, false) => Topology::new(2, 8, 4),
            (Scale::Tiny, true) => Topology::new(2, 8, 4).with_islands(2),
            (Scale::Small, false) => Topology::federated(4),
            (Scale::Small, true) => Topology::new(4, 16, 8).with_islands(2),
            // ≥ 1500 nodes across 3 islands — the production scale the
            // sim matrix certifies.
            (Scale::Large, _) => Topology::multi_island(),
        }
    }

    /// Collect Agents in the federation.
    pub fn agents(&self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Small => 4,
            Scale::Large => 12,
        }
    }

    /// Ingest rounds.
    pub fn rounds(&self) -> u64 {
        match self {
            Scale::Tiny => 10,
            Scale::Small => 24,
            Scale::Large => 12,
        }
    }

    /// Virtual milliseconds one round represents.
    pub fn round_ms(&self) -> u64 {
        match self {
            Scale::Tiny => 250,
            Scale::Small => 250,
            Scale::Large => 500,
        }
    }

    /// The virtual horizon of a run at this scale, nanoseconds.
    pub fn horizon_ns(&self) -> u64 {
        self.rounds() * self.round_ms() * 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for s in SCENARIOS {
            assert_eq!(find(s.name).unwrap().name, s.name);
            assert_eq!(
                SCENARIOS.iter().filter(|o| o.name == s.name).count(),
                1,
                "duplicate scenario name {}",
                s.name
            );
        }
        assert!(find("no_such_scenario").is_none());
        assert!(SCENARIOS.len() >= 6, "at least six fault classes");
    }

    #[test]
    fn large_scale_reaches_the_production_node_count() {
        let lanes = find("compound").unwrap().lanes;
        let topo = Scale::Large.topology(&lanes);
        assert!(topo.total_nodes >= 1500, "{}", topo.total_nodes);
        assert!(topo.islands >= 3);
    }

    #[test]
    fn facility_scenarios_always_get_islands() {
        let lanes = find("island_blackout").unwrap().lanes;
        for scale in [Scale::Tiny, Scale::Small, Scale::Large] {
            assert!(scale.topology(&lanes).islands >= 2, "{scale:?}");
        }
    }
}
