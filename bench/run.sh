#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of
# the checkout (the only place it writes besides bench/out/) and runs
# it from there with the arguments given. See README.md.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep every byte the toolchain writes inside the checkout, and never
# let it reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench" && go build -buildvcs=false -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
