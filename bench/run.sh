#!/usr/bin/env bash
# Launcher named by BENCHMARK.json. It builds the benchmark from source and
# runs it, keeping everything the Go toolchain writes (build cache, link
# temporaries, its telemetry counters, the binary) under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it. `go run -C bench .
# <flags>` is the same program with the toolchain's default locations.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$build/bin/hydra-benchmark" .)
cd "$root"
exec "$build/bin/hydra-benchmark" "$@"
