#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything it writes stays under the checkout: the Go build cache and the
# binary in .bench_build/, stores and trace files in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -o "$build/prism-benchmark" .
exec "$build/prism-benchmark" "$@"
