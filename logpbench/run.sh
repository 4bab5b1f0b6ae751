#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash logpbench/run.sh --workload jobs-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache and the binary) goes under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go -C logpbench build -o "$out/logpbench" .
exec "$out/logpbench" "$@"
