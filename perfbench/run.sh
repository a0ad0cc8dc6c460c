#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tune-gemm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, the data
# directories and the span files.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -build "$build" "$@"
