//! Facility-scale event lanes: the correlated failures a machine room
//! inflicts on a multi-island system.
//!
//! The paper validates Wintermute on a single 148-node island; the
//! production ODA literature (PAPERS.md) is blunt that what breaks
//! deployments is *correlated* facility events — a power cap or cooling
//! loss taking out a whole island's transport at once, or a
//! maintenance window rolling restarts through every node of an
//! island. This module generates those schedules deterministically
//! from one seed, as plain data: the `dcdb-sim` harness translates
//! each event into concrete fault-layer actions (an island-prefix bus
//! partition, publish decimation, a kill/rejoin sweep).
//!
//! Schedules are pure functions of `(topology, seed, horizon)`: the
//! same inputs always yield the same event list, in a canonical order
//! (start time, then island, then kind), so they feed straight into
//! the event trace that witnesses replay determinism.

use crate::topology::Topology;
use dcdb_common::sim::{derive_seed, lanes, xorshift};

/// What kind of facility event hits an island.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FacilityEventKind {
    /// Facility power event: the island's transport is cut for the
    /// window (the harness partitions the island's topic prefix).
    PowerOutage,
    /// Cooling degradation: the island runs thermally throttled for the
    /// window (the harness decimates the island's publish rate by
    /// `1/throttle_factor`).
    ThermalThrottle,
    /// Maintenance sweep: the island's nodes restart one after another
    /// across the window (the harness kills and rejoins shards in
    /// sequence).
    RollingRestart,
}

impl FacilityEventKind {
    /// Canonical lower-case name, used in trace lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            FacilityEventKind::PowerOutage => "power-outage",
            FacilityEventKind::ThermalThrottle => "thermal-throttle",
            FacilityEventKind::RollingRestart => "rolling-restart",
        }
    }

    fn order(&self) -> u8 {
        match self {
            FacilityEventKind::PowerOutage => 0,
            FacilityEventKind::ThermalThrottle => 1,
            FacilityEventKind::RollingRestart => 2,
        }
    }
}

/// One scheduled facility event against one island.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FacilityEvent {
    /// Island hit by the event.
    pub island: usize,
    /// Event class.
    pub kind: FacilityEventKind,
    /// Window start, virtual nanoseconds.
    pub from_ns: u64,
    /// Window end (exclusive), virtual nanoseconds.
    pub until_ns: u64,
    /// For [`FacilityEventKind::ThermalThrottle`]: publish every Nth
    /// sample only (≥ 2). For [`FacilityEventKind::RollingRestart`]:
    /// how many nodes restart together per step. `1` otherwise.
    pub factor: u64,
}

impl FacilityEvent {
    /// Canonical one-line form for the event trace:
    /// `island<I> <kind> <from>..<until> x<factor>`.
    pub fn describe(&self) -> String {
        format!(
            "island{} {} {}..{} x{}",
            self.island,
            self.kind.as_str(),
            self.from_ns,
            self.until_ns,
            self.factor
        )
    }
}

/// A deterministic facility-event schedule over a horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacilitySchedule {
    events: Vec<FacilityEvent>,
}

fn draw_range(state: &mut u64, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        return lo;
    }
    lo + xorshift(state) % (hi - lo)
}

impl FacilitySchedule {
    /// Generates one power, one thermal and one rolling-restart window
    /// per island inside `[0, horizon_ns)`, all derived from `seed` on
    /// the facility lane. Windows of the *same* island never overlap
    /// (each island's horizon is sliced in three); windows of different
    /// islands may — correlated cross-island stress is the point.
    pub fn seeded(topology: &Topology, seed: u64, horizon_ns: u64) -> FacilitySchedule {
        let mut events = Vec::with_capacity(topology.islands * 3);
        let lane_seed = derive_seed(seed, lanes::FACILITY);
        // Each island draws from its own sub-stream so adding an island
        // never perturbs the others' schedules.
        for island in 0..topology.islands {
            let mut rng = derive_seed(lane_seed, island as u64);
            let slot = horizon_ns / 3;
            for (i, kind) in [
                FacilityEventKind::PowerOutage,
                FacilityEventKind::ThermalThrottle,
                FacilityEventKind::RollingRestart,
            ]
            .into_iter()
            .enumerate()
            {
                let slot_start = i as u64 * slot;
                // Window length: 10–30% of the slot, placed with slack.
                let len = draw_range(&mut rng, slot / 10, (slot * 3 / 10).max(slot / 10 + 1));
                let start = slot_start + draw_range(&mut rng, 0, slot.saturating_sub(len).max(1));
                let factor = match kind {
                    FacilityEventKind::ThermalThrottle => draw_range(&mut rng, 2, 5),
                    FacilityEventKind::RollingRestart => 1,
                    FacilityEventKind::PowerOutage => 1,
                };
                events.push(FacilityEvent {
                    island,
                    kind,
                    from_ns: start,
                    until_ns: start + len,
                    factor,
                });
            }
        }
        events.sort_by_key(|e| (e.from_ns, e.island, e.kind.order()));
        FacilitySchedule { events }
    }

    /// All events, in canonical (start, island, kind) order.
    pub fn events(&self) -> &[FacilityEvent] {
        &self.events
    }

    /// Events whose window starts inside `[from_ns, until_ns)` — what a
    /// harness tick activates.
    pub fn starting_in(&self, from_ns: u64, until_ns: u64) -> Vec<FacilityEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.from_ns >= from_ns && e.from_ns < until_ns)
            .collect()
    }

    /// Events whose window covers the instant `at_ns`.
    pub fn active_at(&self, at_ns: u64) -> Vec<FacilityEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.from_ns <= at_ns && at_ns < e.until_ns)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: u64 = 60_000_000_000; // 60 s

    #[test]
    fn schedule_is_a_pure_function_of_inputs() {
        let topo = Topology::multi_island();
        let a = FacilitySchedule::seeded(&topo, 42, HORIZON);
        let b = FacilitySchedule::seeded(&topo, 42, HORIZON);
        assert_eq!(a, b, "same inputs, same schedule");
        let c = FacilitySchedule::seeded(&topo, 43, HORIZON);
        assert_ne!(a, c, "different seed diverges");
    }

    #[test]
    fn every_island_gets_all_three_event_classes_inside_the_horizon() {
        let topo = Topology::multi_island();
        let sched = FacilitySchedule::seeded(&topo, 7, HORIZON);
        assert_eq!(sched.events().len(), topo.islands * 3);
        for island in 0..topo.islands {
            for kind in [
                FacilityEventKind::PowerOutage,
                FacilityEventKind::ThermalThrottle,
                FacilityEventKind::RollingRestart,
            ] {
                let evs: Vec<_> = sched
                    .events()
                    .iter()
                    .filter(|e| e.island == island && e.kind == kind)
                    .collect();
                assert_eq!(evs.len(), 1, "island {island} {kind:?}");
                let e = evs[0];
                assert!(e.from_ns < e.until_ns && e.until_ns <= HORIZON);
                if kind == FacilityEventKind::ThermalThrottle {
                    assert!(e.factor >= 2, "throttle decimates: {e:?}");
                }
            }
        }
        // Same-island windows never overlap.
        for island in 0..topo.islands {
            let mut windows: Vec<_> = sched
                .events()
                .iter()
                .filter(|e| e.island == island)
                .map(|e| (e.from_ns, e.until_ns))
                .collect();
            windows.sort_unstable();
            for w in windows.windows(2) {
                assert!(w[0].1 <= w[1].0, "island {island} overlap: {windows:?}");
            }
        }
    }

    #[test]
    fn adding_an_island_never_perturbs_earlier_islands() {
        let three = FacilitySchedule::seeded(&Topology::multi_island(), 9, HORIZON);
        let six = FacilitySchedule::seeded(&Topology::new(96, 16, 8).with_islands(6), 9, HORIZON);
        for island in 0..3 {
            let a: Vec<_> = three
                .events()
                .iter()
                .filter(|e| e.island == island)
                .collect();
            let b: Vec<_> = six.events().iter().filter(|e| e.island == island).collect();
            assert_eq!(a, b, "island {island} schedule changed");
        }
    }

    #[test]
    fn window_queries_select_the_right_events() {
        let topo = Topology::multi_island();
        let sched = FacilitySchedule::seeded(&topo, 11, HORIZON);
        let first = sched.events()[0];
        assert_eq!(
            sched.starting_in(first.from_ns, first.from_ns + 1)[0],
            first
        );
        assert!(sched.active_at(first.from_ns).contains(&first));
        assert!(sched.starting_in(HORIZON, HORIZON * 2).is_empty());
        // describe() is canonical and parseable-by-eye.
        assert!(first.describe().contains(first.kind.as_str()));
    }
}
