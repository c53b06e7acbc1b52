#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source and runs
# it with the arguments given. Everything the toolchain writes (build cache,
# temporary files, the binary) stays inside the checkout, under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
cd "$bench"
go build -o "$build/tmdb-bench" .
exec "$build/tmdb-bench" "$@"
