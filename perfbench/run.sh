#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the checkout's root:
#
#   bash perfbench/run.sh --workload ann-disk --seed 1 --seconds 18 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, the binary, the stores a run creates (removed when it
# ends) and the span files of traced runs.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/data" "$@"
