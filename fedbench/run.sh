#!/usr/bin/env bash
# Builds fedbench from this checkout's sources and runs one workload.
# Run from the repository root; every build and run artifact stays under
# .bench_build there.
#
#   bash fedbench/run.sh --workload fed-mixed-memory --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off GOENV=off
(cd "$root/fedbench" && go build -o "$build/fedbench" .)
exec "$build/fedbench" -dir "$build/data" "$@"
