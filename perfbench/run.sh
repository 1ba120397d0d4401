#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-quick --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build in the working directory. It fails without printing a
# result when the program's sources are not next to perfbench/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
