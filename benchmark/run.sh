#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build leaves behind stays inside the checkout: the binary,
# the Go build cache, GOPATH and the toolchain's telemetry counters all live
# under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	go build -C benchmark -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
