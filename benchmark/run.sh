#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repository root. Everything building and running leave behind
# (binary, Go build cache, trace files, temporary log directories) goes under
# benchmark/out/, so nothing outside the checkout is read or written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$here/out
mkdir -p "$out"
export GOCACHE=$out/_gocache GOTOOLCHAIN=local
go build -C "$here" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
