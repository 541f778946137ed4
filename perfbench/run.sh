#!/usr/bin/env bash
# Builds the benchmark and kvserver from this checkout, then runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload lib-ops --seed 1 --seconds 10 --trace 0
#
# The binaries, the Go build cache and span dumps go to .bench_build/.
# The last line of standard output is the result (see perfbench/README.md).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/out"
# Keep every file the go command writes inside the checkout, and never
# reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C perfbench -buildvcs=false -o "$build/perfbench" .
go build -buildvcs=false -o "$build/kvserver" ./cmd/kvserver
exec "$build/perfbench" --kvserver "$build/kvserver" --out "$build/out" "$@"
