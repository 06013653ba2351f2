#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload people-search --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# files) lands in .bench_build/ under the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

# The build needs the repository's own module one directory up; without it
# the build fails and the benchmark exits non-zero before printing a result.
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
