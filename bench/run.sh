#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every file it writes — Go's
# build cache, the binary, the store's data, results — stays inside the
# checkout that holds this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$here" && go build -o "$build/pkvbench" .)
exec "$build/pkvbench" -out "$here/out" "$@"
