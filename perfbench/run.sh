#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload wire_point --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build cache, binary and scratch
# stores all stay under .bench_build in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/engine || ! -d vendor ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/engine and vendor/ not found)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
