#!/usr/bin/env bash
# Builds the federation benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash fedbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay in
# .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/fedbench" .)
exec "$out/fedbench" "$@"
