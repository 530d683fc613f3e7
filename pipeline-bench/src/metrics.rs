//! The metric catalog: every name `BENCHMARK.json` lists, with its
//! unit, direction, the layer it belongs to and the end-to-end metric
//! it is expected to move. a test in `main.rs` holds this table and
//! `BENCHMARK.json` to each other.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees, reported by
/// every workload and gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds are set from sets of ten runs on the two-core sandbox
/// (README, "Baseline and spread"): the box's speed drifts by 10–25 %
/// for minutes at a time, so the interquartile spread of a whole-phase
/// time over ten runs is 4–13 % in a quiet set and reaches 20 % in a
/// bad one, and a bound below that would reject the benchmark against
/// itself. Memory and stored bytes do not drift.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb_peak",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "stored_bytes_per_reading",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric. Reported by every workload in a traced run; a
/// workload that bypasses the layer reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate (or seam) the number belongs to.
    pub layer: &'static str,
    /// `end-to-end metric @ workload` pairs it should move.
    pub moves: &'static str,
    /// The workloads that report it, one bit per index into
    /// `WORKLOADS`; the others bypass the layer and print 0.
    pub on: u8,
}

impl PerLayer {
    pub fn reported_by(&self, workload_index: usize) -> bool {
        self.on & (1 << workload_index) != 0
    }
}

const I: u8 = 1; // ingest_steady
const Q: u8 = 2; // query_mixed
const P: u8 = 4; // paced_mixed
const O: u8 = 8; // operator_tick
const ALL: u8 = I | Q | P | O;

const fn lo(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: u8,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        layer,
        moves,
        on,
    }
}

const fn hi(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: u8,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        layer,
        moves,
        on,
    }
}

const INGEST: &str = "throughput_per_s @ ingest_steady (and phase.cpu_us_per_item)";
const INGEST_PACED: &str = "throughput_per_s @ ingest_steady; latency_ms_p50 @ paced_mixed";
const QUERY: &str = "latency_ms_p50, throughput_per_s @ query_mixed";
const OPS: &str = "latency_ms_p50, throughput_per_s @ operator_tick";
const RSS: &str = "rss_mb_peak @ ingest_steady";
const NONE: &str = "none (validity counter; non-zero fails the run)";
const TAIL: &str = "phase.latency_ms_p90 @ paced_mixed (a tail, no bound)";

pub const PER_LAYER: &[PerLayer] = &[
    // dcdb-pusher
    lo(
        "pusher.tick_ns_per_reading",
        "ns",
        "dcdb-pusher",
        INGEST,
        I | P | O,
    ),
    lo(
        "pusher.sample_ns_per_reading",
        "ns",
        "dcdb-pusher",
        INGEST,
        I | P | O,
    ),
    lo(
        "pusher.tick_self_ns_per_reading",
        "ns",
        "dcdb-pusher",
        INGEST,
        I | P | O,
    ),
    lo(
        "pusher.tick_residue_ns_per_reading",
        "ns",
        "dcdb-pusher",
        INGEST,
        I | P,
    ),
    lo(
        "pusher.cpu_pct",
        "%",
        "dcdb-pusher",
        "phase.cpu_us_per_item @ ingest_steady (the paper's <=1.2 % of a core)",
        I | P | O,
    ),
    hi("pusher.published", "count", "dcdb-pusher", NONE, I | P),
    lo("pusher.publish_errors", "count", "dcdb-pusher", NONE, I | P),
    lo("pusher.spool_dropped", "count", "dcdb-pusher", NONE, I | P),
    lo("pusher.cache_bytes", "B", "dcdb-pusher", RSS, I | P | O),
    // dcdb-bus
    lo("bus.encode_ns_per_reading", "ns", "dcdb-bus", INGEST, I | P),
    lo(
        "bus.frame_bytes_per_reading",
        "B",
        "dcdb-bus",
        INGEST,
        I | P,
    ),
    lo(
        "bus.publish_ns_per_msg",
        "ns",
        "dcdb-bus",
        INGEST_PACED,
        I | P,
    ),
    lo(
        "bus.settle_ns_per_msg",
        "ns",
        "dcdb-bus",
        INGEST_PACED,
        I | P,
    ),
    lo("bus.decode_ns_per_reading", "ns", "dcdb-bus", INGEST, I | P),
    lo("bus.router_high_water", "count", "dcdb-bus", NONE, I | P),
    lo("bus.sub_high_water", "count", "dcdb-bus", NONE, I | P),
    lo("bus.dropped", "count", "dcdb-bus", NONE, I | P),
    // dcdb-collectagent
    lo(
        "agent.process_pending_ns_per_reading",
        "ns",
        "dcdb-collectagent",
        INGEST_PACED,
        I | P,
    ),
    lo(
        "agent.process_pending_self_ns_per_reading",
        "ns",
        "dcdb-collectagent",
        INGEST_PACED,
        I | P,
    ),
    lo(
        "agent.process_pending_residue_ns_per_reading",
        "ns",
        "dcdb-collectagent",
        INGEST_PACED,
        I | P,
    ),
    lo(
        "agent.operators_ns_per_tick",
        "ns",
        "dcdb-collectagent",
        INGEST,
        I | P,
    ),
    lo(
        "agent.maintain_ms_p50",
        "ms",
        "dcdb-collectagent",
        INGEST,
        I | P,
    ),
    lo(
        "agent.maintain_ms_max",
        "ms",
        "dcdb-collectagent",
        TAIL,
        I | P,
    ),
    lo(
        "agent.backlog_max",
        "count",
        "dcdb-collectagent",
        NONE,
        I | P,
    ),
    lo(
        "agent.budget_exhausted",
        "count",
        "dcdb-collectagent",
        NONE,
        I | P,
    ),
    lo(
        "agent.decode_errors",
        "count",
        "dcdb-collectagent",
        NONE,
        I | P,
    ),
    // wintermute::query
    lo(
        "cache.insert_ns_per_reading",
        "ns",
        "wintermute::query",
        INGEST,
        I | P,
    ),
    hi(
        "cache.hit_share",
        "ratio",
        "wintermute::query",
        QUERY,
        Q | P | O,
    ),
    hi(
        "query.agg_tier_bucket_share",
        "ratio",
        "wintermute::query",
        QUERY,
        Q | P,
    ),
    lo(
        "query.dispatch_ms_p50.raw_recent",
        "ms",
        "wintermute::query",
        QUERY,
        Q,
    ),
    lo(
        "query.dispatch_ms_p50.raw_cold",
        "ms",
        "wintermute::query",
        QUERY,
        Q,
    ),
    lo(
        "query.dispatch_ms_p50.agg_tier",
        "ms",
        "wintermute::query",
        QUERY,
        Q,
    ),
    lo(
        "query.dispatch_ms_p50.agg_raw",
        "ms",
        "wintermute::query",
        QUERY,
        Q,
    ),
    lo(
        "query.dispatch_ms_p50.agg_fanout",
        "ms",
        "wintermute::query",
        QUERY,
        Q,
    ),
    lo(
        "query.ms_p50.raw_recent",
        "ms",
        "wintermute::query",
        QUERY,
        Q | P,
    ),
    lo(
        "query.ms_p50.raw_cold",
        "ms",
        "wintermute::query",
        QUERY,
        Q | P,
    ),
    lo(
        "query.ms_p50.agg_tier",
        "ms",
        "wintermute::query",
        QUERY,
        Q | P,
    ),
    lo(
        "query.ms_p50.agg_raw",
        "ms",
        "wintermute::query",
        QUERY,
        Q | P,
    ),
    lo(
        "query.ms_p50.agg_fanout",
        "ms",
        "wintermute::query",
        QUERY,
        Q | P,
    ),
    lo(
        "query.ms_p99",
        "ms",
        "wintermute::query",
        "phase.latency_ms_p90 @ query_mixed",
        Q | P,
    ),
    // dcdb-storage
    lo(
        "storage.insert_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | P,
    ),
    lo(
        "storage.insert_self_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | P,
    ),
    lo(
        "storage.insert_residue_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | P,
    ),
    lo(
        "storage.wal_append_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | P,
    ),
    lo(
        "storage.memtable_insert_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | P,
    ),
    lo(
        "storage.rollup_fold_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | P,
    ),
    lo(
        "storage.compress_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | Q | P,
    ),
    lo(
        "storage.decompress_ns_per_reading",
        "ns",
        "dcdb-storage",
        QUERY,
        I | Q | P,
    ),
    lo(
        "storage.compressed_bytes_per_reading",
        "B",
        "dcdb-storage",
        "storage.disk_bytes_per_reading",
        I | Q | P,
    ),
    lo("storage.seal_ms_p50", "ms", "dcdb-storage", TAIL, I | P),
    lo(
        "storage.seal_ns_per_reading",
        "ns",
        "dcdb-storage",
        INGEST,
        I | P,
    ),
    lo(
        "storage.scan_ns_per_reading",
        "ns",
        "dcdb-storage",
        QUERY,
        Q | P,
    ),
    lo(
        "storage.frames_ns_per_frame",
        "ns",
        "dcdb-storage",
        QUERY,
        Q | P,
    ),
    lo("storage.flush_ms", "ms", "dcdb-storage", INGEST, I | P),
    lo(
        "storage.recovery_ms",
        "ms",
        "dcdb-storage",
        "none (restart cost; reported beside setup_s)",
        I,
    ),
    hi(
        "storage.recovered_readings",
        "count",
        "dcdb-storage",
        NONE,
        I,
    ),
    lo("storage.write_amp", "ratio", "dcdb-storage", INGEST, I | P),
    lo(
        "storage.disk_bytes_per_reading",
        "B",
        "dcdb-storage",
        "none (space; trades against scan and write cost)",
        I | Q | P,
    ),
    lo("storage.seals", "count", "dcdb-storage", INGEST, I | Q | P),
    lo(
        "storage.compactions",
        "count",
        "dcdb-storage",
        INGEST,
        I | Q | P,
    ),
    lo(
        "storage.rollup_recomputes",
        "count",
        "dcdb-storage",
        INGEST,
        I | Q | P,
    ),
    lo(
        "storage.read_errors",
        "count",
        "dcdb-storage",
        NONE,
        I | Q | P,
    ),
    // io seam
    lo("io.writes_per_kreading", "count", "io", INGEST, I | P),
    lo("io.write_bytes_per_reading", "B", "io", INGEST, I | P),
    lo("io.write_ns_per_reading", "ns", "io", INGEST, I | P),
    lo("io.fsyncs_per_kreading", "count", "io", INGEST, I | P),
    lo("io.fsync_ns_per_reading", "ns", "io", INGEST, I | P),
    lo("io.fsync_ms_p50", "ms", "io", TAIL, I | P),
    lo("io.reads_per_query", "count", "io", QUERY, Q | P),
    lo("io.read_bytes_per_query", "B", "io", QUERY, Q | P),
    // dcdb-rest
    lo("rest.parse_ns_per_request", "ns", "dcdb-rest", QUERY, Q | P),
    lo("rest.wire_ms_p50", "ms", "dcdb-rest", QUERY, Q),
    lo(
        "rest.response_bytes_per_query",
        "B",
        "dcdb-rest",
        QUERY,
        Q | P,
    ),
    lo("rest.accept_errors", "count", "dcdb-rest", NONE, Q | P),
    lo("rest.bad_requests", "count", "dcdb-rest", NONE, Q | P),
    lo("rest.reaped_idle", "count", "dcdb-rest", NONE, Q | P),
    // wintermute + wintermute-plugins
    lo(
        "wintermute.resolve_units_ms",
        "ms",
        "wintermute",
        "setup_s @ operator_tick",
        O,
    ),
    lo("wintermute.tick_ns_per_unit", "ns", "wintermute", OPS, O),
    lo(
        "wintermute.tick_self_ns_per_unit",
        "ns",
        "wintermute",
        OPS,
        O,
    ),
    lo(
        "wintermute.tick_ms_p99",
        "ms",
        "wintermute",
        "phase.latency_ms_p90 @ operator_tick",
        O,
    ),
    lo(
        "plugins.perfmetrics_ns_per_unit",
        "ns",
        "wintermute-plugins",
        OPS,
        O,
    ),
    lo(
        "plugins.aggregator_ns_per_unit",
        "ns",
        "wintermute-plugins",
        OPS,
        O,
    ),
    lo(
        "plugins.smoother_ns_per_unit",
        "ns",
        "wintermute-plugins",
        OPS,
        O,
    ),
    lo(
        "plugins.tester_ns_per_query",
        "ns",
        "wintermute-plugins",
        "pusher.cpu_pct @ operator_tick",
        O,
    ),
    lo("wintermute.errors", "count", "wintermute", NONE, O),
    lo("wintermute.panics", "count", "wintermute", NONE, O),
    lo("wintermute.overruns", "count", "wintermute", NONE, O),
    // paced_mixed diagnostics and the tracer's own cost
    lo(
        "paced.query_ms_p50",
        "ms",
        "paced",
        "latency_ms_p50 @ query_mixed (same mix beside writes)",
        P,
    ),
    lo("paced.fresh_ms_p95", "ms", "paced", TAIL, P),
    lo("paced.query_ms_p99", "ms", "paced", TAIL, P),
    lo(
        "paced.late_ms_p95",
        "ms",
        "paced",
        "none (generator lateness)",
        P,
    ),
    lo("paced.stall_ms_max", "ms", "paced", TAIL, P),
    lo(
        "paced.transient_mismatches",
        "count",
        "paced",
        "none (reads that raced a seal: wrong once, right when repeated)",
        P,
    ),
    // the whole untraced phase: what repeats too poorly for a bound
    lo(
        "phase.latency_ms_p90",
        "ms",
        "phase",
        "none (the tail of latency_ms_p50's operations, no bound)",
        ALL,
    ),
    lo(
        "phase.cpu_us_per_item",
        "us",
        "phase",
        "none (CPU of all threads per item: shows work moved off the timed thread, no bound)",
        ALL,
    ),
    lo(
        "trace.overhead_pct",
        "%",
        "trace",
        "none (cost of the wrappers and spans)",
        ALL,
    ),
    lo(
        "trace.unattributed_pct",
        "%",
        "trace",
        "none (round time no span covers)",
        I | P,
    ),
];

/// The contents of the repository's `BENCHMARK.json`, generated from
/// this catalog so the two cannot drift (`--benchmark-json` prints it;
/// a test compares it with the committed file).
pub fn benchmark_json(workloads: &[(&str, &str)], run_seconds: u32) -> String {
    let workloads: Vec<String> = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \"pipeline-bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"pipeline-bench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// A flat metric sink: workloads `set` values by name, the report reads
/// them back in catalog order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the catalog"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

/// `a / b`, or 0 when the layer did no work.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
