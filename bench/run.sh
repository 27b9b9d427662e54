#!/usr/bin/env bash
# Builds gstmbench from source inside the checkout and runs it. Everything
# the build writes (Go build cache, binary) stays under .bench_build/.
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$build/gstmbench" ./cmd/gstmbench)
exec "$build/gstmbench" "$@"
