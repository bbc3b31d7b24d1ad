#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Called as
# BENCHMARK.json's command from the root of a checkout:
#
#   bash bench/run.sh --workload open_storm --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache, the binary) stays inside
# the checkout, under .bench_build/.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTOOLCHAIN=local
export GOPROXY=off

# The build's own messages go to stderr: stdout carries the report only.
go build -o "$build/ecnp-bench" ./bench 1>&2
exec "$build/ecnp-bench" "$@"
