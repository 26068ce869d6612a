#!/usr/bin/env bash
# Builds the relmac benchmark from the source of this checkout and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-density --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the span files stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
