#!/usr/bin/env bash
# Builds the churn benchmark from source and runs it; every argument is
# passed through (-workload, -seed, -seconds, -trace). Run it from the
# repository root. The Go build cache and the binary live in
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
