#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload evaluate-mix --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, module cache, temporary
# files) stays under .bench_build in the checkout. Build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
