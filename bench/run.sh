#!/usr/bin/env bash
# Builds iguard-bench from this checkout and runs it with the given flags.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload churn-scan --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root,
# so the first run compiles everything and later runs reuse it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/iguard-bench" ./bench/cmd/iguard-bench
exec "$build/iguard-bench" "$@"
