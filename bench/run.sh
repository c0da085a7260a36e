#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go). Run it from anywhere; it works at the
# root of the checkout. The Go build cache, the go command's own files
# and the binary stay under .bench_build/ at that root, and the build
# never reaches for the network: the benchmark needs nothing but the
# standard library and this repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
