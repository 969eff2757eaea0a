#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source into
# .bench_build/ at the checkout root (go caches and temp files included,
# so nothing is written outside the checkout) and runs it with the
# caller's arguments from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
