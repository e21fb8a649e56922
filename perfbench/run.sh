#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload small_mem --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build in
# the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
