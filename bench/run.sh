#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. The binary and
# the Go build cache live in .bench_build/ at the root of the checkout, so a
# run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$root/.bench_build/ppbench" .
exec "$root/.bench_build/ppbench" "$@"
