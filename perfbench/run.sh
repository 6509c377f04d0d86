#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh check -runs 10 -out perfbench/steadiness.txt
#
# Everything it writes (Go build cache, binary, span files, cycle records)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
