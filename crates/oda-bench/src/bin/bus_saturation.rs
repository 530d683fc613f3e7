//! Bus saturation: bounded queues under publisher overload.
//!
//! ```text
//! cargo run --release -p oda-bench --bin bus_saturation            # full run
//! cargo run --release -p oda-bench --bin bus_saturation -- --quick # smoke run
//! ```

use oda_bench::bus_saturation::{run, BusSaturationConfig};
use oda_bench::{write_json_report, BenchMeta};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        BusSaturationConfig::quick()
    } else {
        BusSaturationConfig::paper()
    };

    println!(
        "bus saturation bench: bound {} msgs, consumer drains {}/tick ({} ticks of {} us)\n",
        config.bound, config.drain_per_tick, config.ticks, config.tick_us
    );
    let started = std::time::Instant::now();
    let result = run(&config);

    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>9} {:>8} {:>7}",
        "policy", "factor", "published", "consumed", "dropped", "highwater", "drop%", "ok"
    );
    for c in &result.cells {
        println!(
            "{:<12} {:>5}x {:>10} {:>10} {:>10} {:>9} {:>7.2}% {:>7}",
            c.policy,
            c.factor,
            c.published,
            c.consumed,
            c.dropped,
            c.high_water,
            c.drop_ratio * 100.0,
            if c.bound_respected && c.conserved && c.ordered {
                "yes"
            } else {
                "NO"
            },
        );
    }

    let all_ok = result
        .cells
        .iter()
        .all(|c| c.bound_respected && c.conserved && c.ordered);
    let meta = BenchMeta::new("bus_saturation", None, &config, started);
    let path = write_json_report(&meta, &result).expect("write json");
    println!("\nraw data -> {}", path.display());
    if !all_ok {
        eprintln!("FAIL: an invariant was violated (see table)");
        std::process::exit(1);
    }
    println!(
        "all invariants held: depth <= bound at every overload factor, all messages accounted"
    );
}
