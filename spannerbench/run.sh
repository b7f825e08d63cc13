#!/usr/bin/env bash
# Builds the spannerd benchmark from source and runs it. Run from the
# repository root:
#
#   bash spannerbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache and the go command's config and
# telemetry included). The benchmark binary replaces this shell (exec),
# so no process outlives the run.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C spannerbench -o "$out/spannerbench" .
exec "$out/spannerbench" "$@"
