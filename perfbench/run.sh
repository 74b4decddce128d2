#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload block-decrypt --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare -base <dir> -head <dir>
#
# Run it from the repository root. Every build artifact (Go build cache,
# temporary files, the binary) and every result record stays under
# .bench_build/ in the current directory; build output goes to stderr so
# the last line of stdout is the result object.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
