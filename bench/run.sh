#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload round-10k --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the checkout, and the toolchain is kept offline: the module has no
# dependencies outside the repository.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C bench build -o "$build/aggbench" .
exec "$build/aggbench" "$@"
