#!/usr/bin/env bash
# Builds the ndperf benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash ndperf/run.sh --workload suite-crowd --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact (Go build cache,
# module cache, the binary) and every scratch file stays under .bench_build/
# in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/engine" ]]; then
	echo "ndperf: run from the repository root (no go.mod with internal/engine in $root)" >&2
	exit 2
fi
out="$root/.bench_build/ndperf"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
go -C "$root/ndperf" build -o "$out/ndperf" .
cd "$root"
exec "$out/ndperf" --scratch "$out" "$@"
