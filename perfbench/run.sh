#!/usr/bin/env bash
# Builds the benchmark and cmd/ifair-server from source into .bench_build
# and runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-batch64 --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local
go build -o "$out/ifair-server" ./cmd/ifair-server >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/ifair-server" -work "$out/work" "$@"
