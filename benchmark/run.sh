#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it. Everything
# the build writes (binary, Go build cache) stays under .bench_build/ so a run
# reads and writes only inside its checkout. Invoked from the repo root:
#
#   bash benchmark/run.sh --workload live_dashboard --seed 7 --seconds 10 --trace 0
set -euo pipefail

root="$PWD"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/go-cache"
export GOTOOLCHAIN=local

go build -o "${build}/dio-benchmark" ./benchmark
exec "${build}/dio-benchmark" "$@"
