#!/usr/bin/env bash
# Builds PIER's benchmark from this checkout and runs it. Run it from
# the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload join4k --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selfcheck
#
# Build outputs and the Go caches stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f $root/go.mod || ! -f $root/perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a PIER checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
