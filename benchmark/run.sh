#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the command in
# BENCHMARK.json: the driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and reads the last line of standard output.
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go build cache, the binary, index and shard files, span
# files, result files). The benchmark is its own module (benchmark/go.mod)
# that replaces module repro with the checkout root, so in a directory
# holding only BENCHMARK.json and benchmark/ the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOTOOLCHAIN=local
# The go command keeps telemetry counters under the user config
# directory; keep those inside the checkout as well.
export XDG_CONFIG_HOME="$build/config"
(cd benchmark && go build -o "$build/hopdb-benchmark" .) >&2
exec "$build/hopdb-benchmark" --scratch "$build" "$@"
