#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash oscarbench/run.sh --workload table1-analytic --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go caches, the Go
# configuration directory and the traced runs' Chrome traces all stay under
# .bench_build/ there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local
go -C oscarbench build -o "$out/oscarbench" .
exec "$out/oscarbench" "$@"
