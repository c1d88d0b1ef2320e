#!/usr/bin/env bash
# Builds the PDMS benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash pdmsbench/run.sh --workload lookup_zipf --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, durable stores,
# trace files) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/pdmsbench" && go build -o "$out/pdmsbench" .)
exec "$out/pdmsbench" -dir "$out" "$@"
