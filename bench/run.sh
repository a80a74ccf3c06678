#!/usr/bin/env bash
# Builds the benchmark harness from source into <checkout>/.bench_build and
# runs it from the caller's directory. Every toolchain write (build cache,
# temp files, the binary) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bwbench" .)
exec "$build/bwbench" "$@"
