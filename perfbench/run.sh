#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Start it from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the binary, span dumps, exact-count records and the
# job WAL directories of service-mix.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
