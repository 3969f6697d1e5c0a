#!/usr/bin/env bash
# Builds the benchmark, and with it the program, from the source in this
# checkout, then runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" "$@"
