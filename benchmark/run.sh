#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ (Go's
# build cache too, so nothing is written outside the checkout) and runs it
# with the given arguments from the checkout's root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-buildvcs=false
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/benchmark" && go build -ldflags "-X main.commit=$commit" -o "$root/.bench_build/benchmark" .)
exec "$root/.bench_build/benchmark" "$@"
