#!/usr/bin/env bash
# Builds nbtibench from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout root:
#
#   bash cmd/nbtibench/run.sh -workload grid -seed 1 -seconds 20 -trace 0
#   bash cmd/nbtibench/run.sh -seed 1 -runs 5 -out bench.json
#
# The Go build cache, the toolchain's temporary and configuration files
# and the binary live under .bench_build in the checkout, so nothing is
# written outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/cmd/nbtibench" && go build -buildvcs=false -o "$build/nbtibench" .)
cd "$root"
exec "$build/nbtibench" "$@"
