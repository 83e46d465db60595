#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build products, the Go build cache and run artefacts stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
