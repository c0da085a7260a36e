#!/usr/bin/env sh
# Perf regression gate: compares BenchmarkReplaySweep/replay in a
# freshly generated BENCH json (see scripts/bench.sh) against the
# BENCH_pr5.json baseline and fails on a >10% ns/op slowdown of the
# replay path.
#
#   scripts/bench.sh && scripts/perfgate.sh BENCH_pr10.json
#   scripts/perfgate.sh /tmp/bench-ci.json          # CI
#   BASELINE=BENCH_pr9.json scripts/perfgate.sh NEW.json
#
# Pass candidate paths absolute or relative to the repo root.
set -eu

new="${1:?usage: scripts/perfgate.sh CANDIDATE.json}"
base="${BASELINE:-BENCH_pr5.json}"
pct="${MAX_REGRESSION:-10}"

case "$new" in /*) ;; *) new="$(pwd)/$new" ;; esac
cd "$(dirname "$0")/.."

go run ./cmd/perfgate -baseline "$base" -max-regression "$pct" "$new"
