#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything the Go toolchain writes (build cache, module cache,
# telemetry, the binary) stays under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/doceph-benchmark" .
cd "$root"
exec "$build/doceph-benchmark" "$@"
