#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. It pins every file the Go toolchain
# writes (build cache, module cache, temporary binaries) inside the checkout
# under .bench_build/, then runs the benchmark program with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# go 1.23+ keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
exec go run -C "$here/system" . "$@"
