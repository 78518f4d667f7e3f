#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# flags, from the repository root:
#
#   bash bench/run.sh --workload figures --seed 9 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (Go
# build cache, temporary files, profiles).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/bench" && go build -o "$build/memfwd-bench" .)
exec "$build/memfwd-bench" "$@"
