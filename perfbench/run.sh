#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload warehouse_sql --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh saturate --seed 1 --seconds 10
#   bash perfbench/run.sh compare -benchmark BENCHMARK.json DIR_A DIR_B
# Build outputs, the Go build cache and the go command's own state stay
# under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
case "${1:-}" in
compare | saturate) exec "$out/perfbench" "$@" ;;
esac
exec "$out/perfbench" -workdir "$out" "$@"
