#!/usr/bin/env bash
# Builds the vliwbind benchmark from the checkout's sources and runs one
# workload. Every build product, cache and temporary file stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
#
#   bash perfbench/run.sh --workload table-regen --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/work"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
