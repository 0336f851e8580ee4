#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload divide-bulk --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build in the working directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
