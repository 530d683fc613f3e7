#!/usr/bin/env bash
# Runs every workload RUNS times (default 10), each with another seed,
# untraced, and folds the results into OUT/summary.json — the flat
# {"<workload>.<metric>": {median, q1, q3, max, n}} map `--compare` reads.
# Exits non-zero if any run did.
# Run from the repository root:
#   pipeline-bench/measure.sh pipeline-bench/results/a 10 100
#   pipeline-bench/measure.sh pipeline-bench/results/b 10 200
#   cargo run --release --manifest-path pipeline-bench/Cargo.toml -- \
#       --compare pipeline-bench/results/a/summary.json pipeline-bench/results/b/summary.json
set -euo pipefail
out=${1:?usage: measure.sh OUT_DIR [RUNS] [FIRST_SEED] [TRACE]}
runs=${2:-10}
first_seed=${3:-1}
trace=${4:-0}
cargo build --release --offline --manifest-path pipeline-bench/Cargo.toml
bin=${CARGO_TARGET_DIR:-pipeline-bench/target}/release/pipeline
mkdir -p "$out"
failed=0
# Seeds outside, workloads inside: a slow quarter of an hour on the box
# then touches every workload's set alike, not one workload's alone.
for ((i = 0; i < runs; i++)); do
    seed=$((first_seed + i))
    for workload in ingest_steady query_mixed paced_mixed operator_tick; do
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" \
            >"$out/stdout_${workload}_s${seed}.txt" 2>"$out/stderr_${workload}_s${seed}.txt" || {
            echo "FAILED: $workload seed $seed (see $out/stderr_${workload}_s${seed}.txt)" >&2
            failed=$((failed + 1))
        }
    done
done
"$bin" --summarize "$out/summary.json" "$out"/run_*_t"$trace".json
if ((failed > 0)); then
    echo "$failed runs failed: the summary does not stand" >&2
    exit 1
fi
