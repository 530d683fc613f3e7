//! Determinism property test for the fault-simulation harness: every
//! named scenario, run twice per seed across many seeds, must produce a
//! byte-identical trace witness and identical end-of-run conservation
//! counters. This is the property the whole `dcdb-sim` layer exists
//! for — a failure observed under any seed is reproducible from that
//! seed alone — so any nondeterminism (thread-timing leaking into the
//! trace, wall-clock values in counters, unseeded randomness) fails
//! here first. Every run must also hold all seven identities: the six
//! conservation laws and the final answers against the ledger.

use dcdb_wintermute::dcdb_sim::{run_scenario, Scale, SCENARIOS};

const SEEDS: u64 = 16;

#[test]
fn every_scenario_replays_bit_identically_across_seeds() {
    // Scenarios are independent; run them on worker threads so the
    // 2 × SEEDS × |SCENARIOS| harness runs don't serialize.
    let handles: Vec<_> = SCENARIOS
        .iter()
        .map(|scenario| {
            std::thread::spawn(move || {
                for seed in 1..=SEEDS {
                    let a = run_scenario(scenario, seed, Scale::Tiny);
                    let b = run_scenario(scenario, seed, Scale::Tiny);
                    assert_eq!(
                        a.trace_hash, b.trace_hash,
                        "{} diverged under seed {seed}:\nfirst tail: {:#?}\nsecond tail: {:#?}",
                        scenario.name, a.trace_tail, b.trace_tail
                    );
                    assert_eq!(
                        a.counters, b.counters,
                        "{} counters diverged under seed {seed}",
                        scenario.name
                    );
                    assert_eq!(
                        a.answers, b.answers,
                        "{} final answers diverged under seed {seed}",
                        scenario.name
                    );
                    assert!(
                        a.identities.all() && a.identities == b.identities,
                        "{} seed {seed}: an identity failed: {:?}\nanswers vs the ledger: {:?}",
                        scenario.name,
                        a.identities,
                        a.answers
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("scenario worker panicked");
    }
}

#[test]
fn seeds_actually_steer_the_fault_schedule() {
    // Two different seeds must not share a witness for a fault-armed
    // scenario — otherwise the lanes aren't reading the seed at all.
    let compound = SCENARIOS
        .iter()
        .find(|s| s.name == "compound")
        .expect("compound scenario registered");
    let a = run_scenario(compound, 101, Scale::Tiny);
    let b = run_scenario(compound, 102, Scale::Tiny);
    assert_ne!(a.trace_hash, b.trace_hash);
}
