#!/usr/bin/env bash
# Builds the hotperf benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
#
# Everything the run writes (Go build cache, the go command's own config and
# telemetry, binaries, scratch data) stays under .bench_build/ in the
# repository, and nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$build/bin" "$GOTMPDIR"
(cd "$root/bench" && go build -o "$build/bin/hotperf" ./hotperf)
exec "$build/bin/hotperf" "$@"
