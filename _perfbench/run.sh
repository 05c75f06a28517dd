#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. from the repository root:
#
#   bash _perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, results) stays under
# .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gopath" "$build/bin"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off
export CGO_ENABLED=0

(cd "$root/_perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
