#!/usr/bin/env bash
# Prints a baseline result set on standard output: all five workloads of
# the benchmark harness, untraced, --seconds 12, seeds 1-3, as one JSON
# array of the harness's own result files (15 runs, about 5 minutes) —
# the form `bash benchmark/run.sh -compare a.json b.json` reads.
# BENCH_PR17.json is this script's output:
#   bash scripts/bench-baseline.sh > BENCH_PR17.json
# Timings only compare between sets taken on one machine, close together.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
sep='['
for w in table6-glp table6-directed serve-zipf sharded-batch update-mixed; do
  for seed in 1 2 3; do
    bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 12 --trace 0 >&2
    printf '%s\n' "$sep"
    cat ".bench_build/results/$w-seed$seed-trace0.json"
    sep=','
  done
done
printf ']\n'
