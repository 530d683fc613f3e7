//! Per-node hardware simulation.
//!
//! A [`NodeSimulator`] produces every sensor a CooLMUC-3 Pusher samples
//! on a real node — node power / temperature / free memory / CPU idle
//! time plus per-core performance counters — as deterministic functions
//! of the application model currently scheduled on the node and the
//! node's behavioural profile. Counters (cycles, instructions, cache
//! misses, flops) are **monotonic**, exactly like perfevent counters;
//! derived metrics such as CPI are computed downstream by the
//! perfmetrics plugin from counter deltas, as in the paper (§VI-C).

use crate::apps::{hash01, AppModel};
use crate::topology::Topology;
use dcdb_common::reading::{encode_f64, SensorReading};
use dcdb_common::time::Timestamp;
use dcdb_common::topic::Topic;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Nominal KNL core clock (Xeon Phi 7210 @ 1.3 GHz).
pub const CORE_HZ: f64 = 1.3e9;
/// Node idle power draw in watts.
pub const IDLE_POWER_W: f64 = 45.0;
/// Maximum dynamic power on top of idle, in watts.
pub const DYNAMIC_POWER_W: f64 = 230.0;
/// Inlet temperature in °C.
pub const AMBIENT_C: f64 = 38.0;
/// Node RAM in MiB (96 GB per CooLMUC-3 node).
pub const TOTAL_MEM_MIB: f64 = 96.0 * 1024.0;

/// Long-term behavioural class of a node, driving the clustering case
/// study's structure (paper §VI-D: one under-utilized cluster, one
/// normal, one heavily loaded, plus outliers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProfileClass {
    /// Scheduled rarely: high CPU idle time, low power and temperature.
    Underutilized,
    /// Typical duty cycle.
    Normal,
    /// Almost always busy; average power up to ~200 W.
    Heavy,
    /// Anomaly: draws ~20 % more power than its idle time predicts
    /// (the concerning outlier the paper reports investigating).
    ExcessPower,
}

impl ProfileClass {
    /// Fraction of time the node runs jobs under this profile.
    pub fn duty_cycle(self) -> f64 {
        match self {
            ProfileClass::Underutilized => 0.15,
            ProfileClass::Normal => 0.55,
            ProfileClass::Heavy => 0.95,
            ProfileClass::ExcessPower => 0.55,
        }
    }

    /// Multiplier applied to the node's power draw.
    pub fn power_factor(self) -> f64 {
        match self {
            ProfileClass::ExcessPower => 1.22,
            _ => 1.0,
        }
    }

    /// Assigns the paper-like profile mix across `n` nodes
    /// deterministically: ~20 % under-utilized, ~62 % normal, ~16 %
    /// heavy, plus a couple of anomalous nodes.
    pub fn assign(n: usize, seed: u64) -> Vec<ProfileClass> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let u = hash01(i as u64, seed);
            out.push(if u < 0.20 {
                ProfileClass::Underutilized
            } else if u < 0.82 {
                ProfileClass::Normal
            } else {
                ProfileClass::Heavy
            });
        }
        // Plant exactly two anomalous nodes (deterministic positions).
        if n >= 8 {
            let a = (hash01(seed, 1) * n as f64) as usize % n;
            let mut b = (hash01(seed, 2) * n as f64) as usize % n;
            if b == a {
                b = (b + 1) % n;
            }
            out[a] = ProfileClass::ExcessPower;
            out[b] = ProfileClass::ExcessPower;
        }
        out
    }
}

/// One sampled sensor value with its topic.
pub type Sample = (Topic, SensorReading);

/// Simulates one compute node's sensors.
#[derive(Debug)]
pub struct NodeSimulator {
    topology: Topology,
    profile: ProfileClass,
    rng: StdRng,
    app: Option<AppModel>,
    app_start: Timestamp,
    /// Monotonic per-core counters.
    cycles: Vec<u64>,
    instructions: Vec<u64>,
    cache_misses: Vec<u64>,
    flops: Vec<u64>,
    /// Monotonic idle-time accumulator (milliseconds).
    idle_ms: u64,
    /// Monotonic Omni-Path byte counters.
    opa_xmit: u64,
    opa_rcv: u64,
    last_tick: Option<Timestamp>,
    /// Cached topics (computed once; sampling is on the hot path).
    node_topics: NodeTopics,
}

#[derive(Debug)]
struct NodeTopics {
    power: Topic,
    temp: Topic,
    memfree: Topic,
    cpu_idle: Topic,
    opa_xmit: Topic,
    opa_rcv: Topic,
    cores: Vec<CoreTopics>,
}

#[derive(Debug)]
struct CoreTopics {
    cycles: Topic,
    instructions: Topic,
    cache_misses: Topic,
    flops: Topic,
}

impl NodeSimulator {
    /// Creates the simulator for `node` in `topology`.
    pub fn new(topology: Topology, node: usize, profile: ProfileClass, seed: u64) -> Self {
        let cores = topology.cores_per_node;
        let node_topic = topology.node_topic(node);
        let node_topics = NodeTopics {
            power: node_topic.child("power").unwrap(),
            temp: node_topic.child("temp").unwrap(),
            memfree: node_topic.child("memfree").unwrap(),
            cpu_idle: node_topic.child("cpu-idle").unwrap(),
            opa_xmit: node_topic.child("opa-xmit-bytes").unwrap(),
            opa_rcv: node_topic.child("opa-rcv-bytes").unwrap(),
            cores: (0..cores)
                .map(|c| {
                    let ct = topology.core_topic(node, c);
                    CoreTopics {
                        cycles: ct.child("cycles").unwrap(),
                        instructions: ct.child("instructions").unwrap(),
                        cache_misses: ct.child("cache-misses").unwrap(),
                        flops: ct.child("flops").unwrap(),
                    }
                })
                .collect(),
        };
        NodeSimulator {
            topology,
            profile,
            rng: StdRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37)),
            app: None,
            app_start: Timestamp::ZERO,
            cycles: vec![0; cores],
            instructions: vec![0; cores],
            cache_misses: vec![0; cores],
            flops: vec![0; cores],
            idle_ms: 0,
            opa_xmit: 0,
            opa_rcv: 0,
            last_tick: None,
            node_topics,
        }
    }

    /// The application currently running, if any.
    pub fn current_app(&self) -> Option<AppModel> {
        self.app
    }

    /// Starts an application run at `now` (replaces any current one).
    pub fn start_app(&mut self, app: AppModel, now: Timestamp) {
        self.app = Some(app);
        self.app_start = now;
    }

    /// Stops the running application (node goes idle).
    pub fn stop_app(&mut self) {
        self.app = None;
    }

    /// Samples every sensor at `now`, advancing internal counters by the
    /// time elapsed since the previous tick.
    ///
    /// Values are encoded like DCDB would publish them:
    /// * `power` — watts (integer);
    /// * `temp` — fixed-point °C ([`encode_f64`]);
    /// * `memfree` — MiB (integer);
    /// * `cpu-idle` — monotonic idle milliseconds;
    /// * counters — raw monotonic counts.
    pub fn sample(&mut self, now: Timestamp) -> Vec<Sample> {
        let dt_s = match self.last_tick {
            Some(prev) => (now.elapsed_since(prev)) as f64 / 1e9,
            None => 0.0,
        };
        self.last_tick = Some(now);

        let app = self.app.unwrap_or(AppModel::Idle);
        let t_in_run = (now.elapsed_since(self.app_start)) as f64 / 1e9;
        let mut out = Vec::with_capacity(6 + self.node_topics.cores.len() * 4);

        // --- Advance per-core counters. ---
        let n_cores = self.node_topics.cores.len();
        let mut busy_frac_sum = 0.0;
        for core in 0..n_cores {
            let noise: f64 = self.rng.gen();
            let cpi = app.core_cpi(core, t_in_run, noise).max(0.25);
            let idle_frac = app.idle_fraction(t_in_run, noise).clamp(0.0, 1.0);
            busy_frac_sum += 1.0 - idle_frac;
            let d_cycles = (CORE_HZ * dt_s * (1.0 - idle_frac)) as u64;
            let d_instr = (d_cycles as f64 / cpi) as u64;
            // Cache misses rise with CPI (stalls) — a plausible coupling
            // that gives perfmetrics a second derived metric to chew on.
            let miss_rate = (0.001 * cpi).min(0.2);
            let d_miss = (d_instr as f64 * miss_rate) as u64;
            let d_flops = (d_instr as f64 * 0.35) as u64;
            self.cycles[core] += d_cycles;
            self.instructions[core] += d_instr;
            self.cache_misses[core] += d_miss;
            self.flops[core] += d_flops;

            let ct = &self.node_topics.cores[core];
            out.push((
                ct.cycles.clone(),
                SensorReading::new(self.cycles[core] as i64, now),
            ));
            out.push((
                ct.instructions.clone(),
                SensorReading::new(self.instructions[core] as i64, now),
            ));
            out.push((
                ct.cache_misses.clone(),
                SensorReading::new(self.cache_misses[core] as i64, now),
            ));
            out.push((
                ct.flops.clone(),
                SensorReading::new(self.flops[core] as i64, now),
            ));
        }
        let busy_frac = if n_cores > 0 {
            busy_frac_sum / n_cores as f64
        } else {
            0.0
        };

        // --- Node-level sensors. ---
        let u = app.power_utilization(t_in_run, self.rng.gen());
        // Short-lived turbo/noise spikes the paper's model fails to
        // predict (§VI-B): rare, brief, additive.
        let spike = if self.rng.gen::<f64>() < 0.03 {
            self.rng.gen_range(5.0..25.0)
        } else {
            0.0
        };
        let power_w = (IDLE_POWER_W + DYNAMIC_POWER_W * u) * self.profile.power_factor()
            + spike
            + self.rng.gen_range(-2.0..2.0);
        let temp_c = AMBIENT_C + 0.055 * power_w + self.rng.gen_range(-0.4..0.4);
        let mem_used = TOTAL_MEM_MIB * (0.08 + 0.6 * busy_frac);
        let memfree = (TOTAL_MEM_MIB - mem_used).max(0.0);
        let idle_now = 1.0 - busy_frac;
        self.idle_ms += (dt_s * 1000.0 * idle_now) as u64;
        // Omni-Path byte counters: symmetric traffic with a small skew.
        let net_rate = app.network_bytes_per_s(t_in_run, self.rng.gen());
        self.opa_xmit += (net_rate * dt_s) as u64;
        self.opa_rcv += (net_rate * dt_s * 0.97) as u64;

        out.push((
            self.node_topics.power.clone(),
            SensorReading::new(power_w.round() as i64, now),
        ));
        out.push((
            self.node_topics.temp.clone(),
            SensorReading::new(encode_f64(temp_c), now),
        ));
        out.push((
            self.node_topics.memfree.clone(),
            SensorReading::new(memfree.round() as i64, now),
        ));
        out.push((
            self.node_topics.cpu_idle.clone(),
            SensorReading::new(self.idle_ms as i64, now),
        ));
        out.push((
            self.node_topics.opa_xmit.clone(),
            SensorReading::new(self.opa_xmit as i64, now),
        ));
        out.push((
            self.node_topics.opa_rcv.clone(),
            SensorReading::new(self.opa_rcv as i64, now),
        ));
        out
    }

    /// Samples only the four node-level sensors (power, temp, memfree,
    /// cpu-idle), skipping the per-core counters. Long-horizon
    /// experiments that never read counters (the clustering case study)
    /// use this to avoid paying for 256 counter updates per node-tick.
    pub fn sample_node_level(&mut self, now: Timestamp) -> Vec<Sample> {
        let dt_s = match self.last_tick {
            Some(prev) => (now.elapsed_since(prev)) as f64 / 1e9,
            None => 0.0,
        };
        self.last_tick = Some(now);
        let app = self.app.unwrap_or(AppModel::Idle);
        let t_in_run = (now.elapsed_since(self.app_start)) as f64 / 1e9;

        let noise: f64 = self.rng.gen();
        let idle_frac = app.idle_fraction(t_in_run, noise).clamp(0.0, 1.0);
        let busy_frac = 1.0 - idle_frac;
        let u = app.power_utilization(t_in_run, self.rng.gen());
        let spike = if self.rng.gen::<f64>() < 0.03 {
            self.rng.gen_range(5.0..25.0)
        } else {
            0.0
        };
        let power_w = (IDLE_POWER_W + DYNAMIC_POWER_W * u) * self.profile.power_factor()
            + spike
            + self.rng.gen_range(-2.0..2.0);
        let temp_c = AMBIENT_C + 0.055 * power_w + self.rng.gen_range(-0.4..0.4);
        let mem_used = TOTAL_MEM_MIB * (0.08 + 0.6 * busy_frac);
        let memfree = (TOTAL_MEM_MIB - mem_used).max(0.0);
        self.idle_ms += (dt_s * 1000.0 * idle_frac) as u64;

        vec![
            (
                self.node_topics.power.clone(),
                SensorReading::new(power_w.round() as i64, now),
            ),
            (
                self.node_topics.temp.clone(),
                SensorReading::new(encode_f64(temp_c), now),
            ),
            (
                self.node_topics.memfree.clone(),
                SensorReading::new(memfree.round() as i64, now),
            ),
            (
                self.node_topics.cpu_idle.clone(),
                SensorReading::new(self.idle_ms as i64, now),
            ),
        ]
    }

    /// The topology this node belongs to.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> NodeSimulator {
        NodeSimulator::new(Topology::small(), 1, ProfileClass::Normal, 42)
    }

    fn tick_many(sim: &mut NodeSimulator, ticks: usize) -> Vec<Vec<Sample>> {
        (0..ticks)
            .map(|i| sim.sample(Timestamp::from_secs(1 + i as u64)))
            .collect()
    }

    #[test]
    fn sample_covers_all_sensors() {
        let mut s = sim();
        let samples = s.sample(Timestamp::from_secs(1));
        // 4 node-level + 2 OPA + 4 cores × 4 counters.
        assert_eq!(samples.len(), 6 + 4 * 4);
        let topics: Vec<&str> = samples.iter().map(|(t, _)| t.as_str()).collect();
        assert!(topics.contains(&"/rack00/node01/power"));
        assert!(topics.contains(&"/rack00/node01/cpu03/flops"));
    }

    #[test]
    fn counters_are_monotonic() {
        let mut s = sim();
        s.start_app(AppModel::Lammps, Timestamp::from_secs(1));
        let runs = tick_many(&mut s, 20);
        let idx_cycles = runs[0]
            .iter()
            .position(|(t, _)| t.as_str() == "/rack00/node01/cpu00/cycles")
            .unwrap();
        let mut prev = -1i64;
        for r in &runs {
            let v = r[idx_cycles].1.value;
            assert!(v >= prev, "cycles went backwards: {prev} -> {v}");
            prev = v;
        }
        assert!(prev > 0, "cycles never advanced");
    }

    #[test]
    fn idle_node_draws_little_power() {
        let mut s = sim();
        let runs = tick_many(&mut s, 10);
        let powers: Vec<i64> = runs
            .iter()
            .flat_map(|r| r.iter())
            .filter(|(t, _)| t.name() == "power")
            .map(|(_, r)| r.value)
            .collect();
        let avg = powers.iter().sum::<i64>() as f64 / powers.len() as f64;
        assert!(avg < 90.0, "idle avg power {avg}");
    }

    #[test]
    fn busy_node_draws_much_more_power() {
        let mut s = sim();
        s.start_app(AppModel::Hpl, Timestamp::from_secs(1));
        let runs = tick_many(&mut s, 10);
        let powers: Vec<i64> = runs
            .iter()
            .flat_map(|r| r.iter())
            .filter(|(t, _)| t.name() == "power")
            .map(|(_, r)| r.value)
            .collect();
        let avg = powers.iter().sum::<i64>() as f64 / powers.len() as f64;
        assert!(avg > 220.0, "HPL avg power {avg}");
    }

    #[test]
    fn temperature_tracks_power() {
        let mut idle = NodeSimulator::new(Topology::small(), 0, ProfileClass::Normal, 1);
        let mut busy = NodeSimulator::new(Topology::small(), 0, ProfileClass::Normal, 1);
        busy.start_app(AppModel::Hpl, Timestamp::from_secs(1));
        let temp_of = |runs: &Vec<Vec<Sample>>| {
            let vals: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.iter())
                .filter(|(t, _)| t.name() == "temp")
                .map(|(_, r)| dcdb_common::reading::decode_f64(r.value))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let ti = temp_of(&tick_many(&mut idle, 10));
        let tb = temp_of(&tick_many(&mut busy, 10));
        assert!(tb > ti + 5.0, "busy {tb} vs idle {ti}");
    }

    #[test]
    fn excess_power_profile_draws_more() {
        let mut normal = NodeSimulator::new(Topology::small(), 0, ProfileClass::Normal, 9);
        let mut anomalous = NodeSimulator::new(Topology::small(), 0, ProfileClass::ExcessPower, 9);
        normal.start_app(AppModel::Lammps, Timestamp::from_secs(1));
        anomalous.start_app(AppModel::Lammps, Timestamp::from_secs(1));
        let avg_power = |runs: &Vec<Vec<Sample>>| {
            let vals: Vec<i64> = runs
                .iter()
                .flat_map(|r| r.iter())
                .filter(|(t, _)| t.name() == "power")
                .map(|(_, r)| r.value)
                .collect();
            vals.iter().sum::<i64>() as f64 / vals.len() as f64
        };
        let pn = avg_power(&tick_many(&mut normal, 20));
        let pa = avg_power(&tick_many(&mut anomalous, 20));
        assert!(pa > pn * 1.12, "anomalous {pa} vs normal {pn}");
    }

    #[test]
    fn idle_counter_grows_only_when_idle() {
        let mut s = sim();
        s.start_app(AppModel::Hpl, Timestamp::from_secs(1));
        let runs = tick_many(&mut s, 5);
        let idle_vals: Vec<i64> = runs
            .iter()
            .flat_map(|r| r.iter())
            .filter(|(t, _)| t.name() == "cpu-idle")
            .map(|(_, r)| r.value)
            .collect();
        // Busy node: idle accumulates very slowly (< 10% of wall time).
        let total_idle = *idle_vals.last().unwrap();
        assert!(total_idle < 400, "idle ms {total_idle} over 4 s busy");
    }

    #[test]
    fn profile_assignment_mix() {
        let profiles = ProfileClass::assign(148, 7);
        let count = |p: ProfileClass| profiles.iter().filter(|&&x| x == p).count();
        let under = count(ProfileClass::Underutilized);
        let normal = count(ProfileClass::Normal);
        let heavy = count(ProfileClass::Heavy);
        let anom = count(ProfileClass::ExcessPower);
        assert_eq!(anom, 2);
        assert!(under > 15 && under < 45, "under {under}");
        assert!(normal > 70, "normal {normal}");
        assert!(heavy > 10, "heavy {heavy}");
        assert_eq!(under + normal + heavy + anom, 148);
    }

    #[test]
    fn node_level_sampling_matches_full_sampling_statistically() {
        let mut full = NodeSimulator::new(Topology::small(), 0, ProfileClass::Normal, 3);
        let mut lite = NodeSimulator::new(Topology::small(), 0, ProfileClass::Normal, 3);
        full.start_app(AppModel::Hpl, Timestamp::from_secs(1));
        lite.start_app(AppModel::Hpl, Timestamp::from_secs(1));
        let mut p_full = 0.0;
        let mut p_lite = 0.0;
        for s in 1..=30u64 {
            for (t, r) in full.sample(Timestamp::from_secs(s)) {
                if t.name() == "power" {
                    p_full += r.value as f64;
                }
            }
            let samples = lite.sample_node_level(Timestamp::from_secs(s));
            assert_eq!(samples.len(), 4);
            for (t, r) in samples {
                if t.name() == "power" {
                    p_lite += r.value as f64;
                }
            }
        }
        // Same app, same profile: averages agree within a few percent
        // (different RNG consumption, same model).
        let (a, b) = (p_full / 30.0, p_lite / 30.0);
        assert!((a - b).abs() / a < 0.05, "full {a} vs node-level {b}");
    }

    #[test]
    fn node_level_idle_counter_is_monotonic() {
        let mut sim = NodeSimulator::new(Topology::small(), 1, ProfileClass::Normal, 4);
        let mut prev = -1i64;
        for s in 1..=10u64 {
            let samples = sim.sample_node_level(Timestamp::from_secs(s));
            let idle = samples
                .iter()
                .find(|(t, _)| t.name() == "cpu-idle")
                .unwrap()
                .1
                .value;
            assert!(idle >= prev);
            prev = idle;
        }
        // Node is idle: counter grows near 1000 ms per second.
        assert!(prev > 8000, "idle {prev}");
    }

    #[test]
    fn deterministic_given_seed() {
        let runs_a = tick_many(
            &mut NodeSimulator::new(Topology::small(), 2, ProfileClass::Heavy, 5),
            5,
        );
        let runs_b = tick_many(
            &mut NodeSimulator::new(Topology::small(), 2, ProfileClass::Heavy, 5),
            5,
        );
        for (a, b) in runs_a.iter().zip(runs_b.iter()) {
            assert_eq!(a, b);
        }
    }
}
