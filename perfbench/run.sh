#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload abilene-drl --seed 1 --seconds 10 --trace 0
#
# The binary and Go's build cache go to .bench_build, so a run reads and
# writes only inside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
