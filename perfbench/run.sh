#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-vm --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh -compare <base-dir> <new-dir>
#
# The Go build cache, temporary files, the binary, the workloads' stores and
# the traced run's spans all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/spans"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -data "$build/data-$$" -spans "$build/spans" "$@"
