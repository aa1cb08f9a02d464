#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source with
# every Go cache and temporary file inside the checkout, then runs it with
# the driver's arguments (--workload, --seed, --seconds, --trace).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/geobench" ./bench
exec "$build/geobench" "$@"
