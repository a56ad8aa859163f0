#!/usr/bin/env bash
# Serving-path benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 40 --trace 0
#
# It builds perfbench (a module of its own that imports the serving stack
# from the enclosing module) from this checkout's sources and runs it with
# the given arguments. Every build product, Go cache and trace file stays
# under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
