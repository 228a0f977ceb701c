#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash vifbench/run.sh --workload spoof-flood --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# the traced run's spans stay under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/vifbench" && go build -o "$out/vifbench" .) >&2
exec "$out/vifbench" "$@"
