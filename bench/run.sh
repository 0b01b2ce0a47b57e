#!/usr/bin/env bash
# Builds the harness from source and runs it, from the repository root:
#
#   bash bench/run.sh --workload wire_reads --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go's build cache, its temporary files, the
# binary) goes under .bench_build/ in the checkout, and everything a run
# writes under bench/out/, so nothing outside the checkout is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# The harness is its own module (bench/go.mod) that replaces the deepdive
# module with the checkout it sits in, so it builds against whatever
# commit it has been copied into.
go build -C bench -o "$build/kbbench" .
exec "$build/kbbench" "$@"
