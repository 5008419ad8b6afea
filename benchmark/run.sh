#!/usr/bin/env bash
# Builds the benchmark harness into .bench_build/ under the checkout root
# (Go build cache included, so nothing is written outside the checkout)
# and runs it with the given arguments. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
