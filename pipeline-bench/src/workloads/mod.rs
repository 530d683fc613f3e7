//! The four workloads. Each exposes `run(cfg, traced, scale)`, one
//! pass: build the system and warm it up (timed: `setup_s`), run the
//! measured phase at `scale` of the full size, check every output
//! against the oracle, and return what it measured.

pub mod ingest;
pub mod operators;
pub mod paced;
pub mod query;

use crate::metrics::Values;
use crate::oracle::Ledger;
use crate::sys;
use std::path::PathBuf;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ingest_steady",
        "closed loop at saturation, writes only: 32 Pushers x 100 sensors, one reading per message, through bus, agent, WAL, memtable, rollups, seals, compaction; REST and operators idle",
    ),
    (
        "query_mixed",
        "closed loop, 2 clients, reads only: five request classes over loopback REST split cache hit from sealed-segment scan and rollup tier from raw fold; Pusher, bus and WAL idle",
    ),
    (
        "paced_mixed",
        "open loop at fixed rates: 32 000 readings/s ingested beside 100 queries/s, timed from when each was due, so lock holding, deferred work and stalls show that closed loops hide",
    ),
    (
        "operator_tick",
        "closed loop, one thread, no bus, storage or REST: the operator runtime at CooLMUC-3 unit counts (9 472 per-core units feeding 148 per-node aggregates); bypasses every I/O layer",
    ),
];

/// What one invocation asked for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase the sizes are scaled to.
    pub seconds: f64,
    /// Toy sizes: the same shapes, a whole run in a few seconds.
    pub smoke: bool,
    /// Scratch directory for data directories; removed when the run ends.
    pub work: PathBuf,
    /// Where trace files and summaries go.
    pub out: PathBuf,
}

/// What one pass over a workload — build, warm up, measure, check —
/// brought back.
#[derive(Debug, Default)]
pub struct Measured {
    pub ledger: Ledger,
    pub phase: Phase,
    /// Per-layer metrics; a traced pass only.
    pub layers: Values,
    /// The traced pass's reconciliation table and trace file body.
    pub reconciliation: Option<String>,
    pub trace_json: Option<String>,
}

/// A measured phase, start to end: what it completed, how long each
/// operation took, and what it cost.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every timed operation (a round, a request, a tick).
    pub latencies_ms: Vec<f64>,
    /// Work items completed (readings, requests, units).
    pub items: u64,
    /// Length of the whole phase on its time axis: wall time from the
    /// first operation to the last thing the phase waits for (the
    /// final `flush()` on the write path), or busy time where only
    /// busy time counts.
    pub span_s: f64,
    /// CPU time the phase consumed.
    pub cpu_ns: u64,
    pub setup_s: f64,
    /// Bytes held per reading retained when the phase ended.
    pub stored_bytes_per_reading: f64,
}

impl Phase {
    /// Wall nanoseconds of the phase per work item.
    pub fn ns_per_item(&self) -> f64 {
        self.span_s * 1e9 / self.items as f64
    }

    /// The phases of a run's passes as one: every operation of every
    /// pass, their items, time and CPU summed, the median set-up time.
    pub fn pooled(parts: Vec<Phase>) -> Phase {
        let setups: Vec<f64> = parts.iter().map(|p| p.setup_s).collect();
        let mut all = Phase {
            setup_s: crate::stats::median(&setups),
            ..Phase::default()
        };
        for part in parts {
            all.latencies_ms.extend(part.latencies_ms);
            all.items += part.items;
            all.span_s += part.span_s;
            all.cpu_ns += part.cpu_ns;
            all.stored_bytes_per_reading = part.stored_bytes_per_reading;
        }
        all
    }

    /// Nearest-rank percentile of the operations' latencies.
    pub fn latency_ms(&self, p: f64) -> f64 {
        crate::stats::percentile(&crate::stats::sorted(self.latencies_ms.clone()), p)
    }

    /// CPU microseconds per work item.
    pub fn cpu_us_per_item(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.items as f64
    }

    /// The end-to-end metrics every workload reports, each over the
    /// whole phase: nothing a run did is left out of them.
    pub fn end_to_end(&self) -> Values {
        let mut values = Values::default();
        values.set("throughput_per_s", self.items as f64 / self.span_s);
        values.set("latency_ms_p50", self.latency_ms(50.0));
        values.set("rss_mb_peak", sys::rss_peak_mb());
        values.set("stored_bytes_per_reading", self.stored_bytes_per_reading);
        values.set("setup_s", self.setup_s);
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 400 ops of 5 items: half take 10 ms, half 20 ms, then a 2 s
    /// flush nothing else accounts for.
    fn part(setup_s: f64) -> Phase {
        let mut phase = Phase {
            setup_s,
            stored_bytes_per_reading: 3.25,
            ..Phase::default()
        };
        for i in 0..400 {
            let ms = if i % 2 == 0 { 10.0 } else { 20.0 };
            phase.latencies_ms.push(ms);
            phase.span_s += ms / 1e3;
            phase.cpu_ns += (ms * 1e6) as u64;
            phase.items += 5;
        }
        phase.span_s += 2.0;
        phase
    }

    #[test]
    fn the_whole_phase_is_reported_and_passes_pool() {
        let all = Phase::pooled(vec![part(0.5), part(2.5), part(1.5)]);
        assert_eq!((all.items, all.latencies_ms.len()), (6000, 1200));
        assert_eq!(all.latency_ms(90.0), 20.0);
        // 6 s of CPU over 2000 items, in each part and in all.
        assert_eq!(all.cpu_us_per_item(), 3000.0);
        for v in [part(1.5).end_to_end(), all.end_to_end()] {
            assert_eq!(v.get("latency_ms_p50"), Some(10.0));
            // 2000 items in 6 s of ops + 2 s of flush.
            assert!((v.get("throughput_per_s").expect("set") - 250.0).abs() < 1e-9);
            assert_eq!(v.get("stored_bytes_per_reading"), Some(3.25));
            assert_eq!(v.get("setup_s"), Some(1.5));
        }
    }
}
