#!/usr/bin/env sh
# Runs the top-level benchmarks once each (-benchtime=1x) and records
# the results as JSON, seeding the repository's perf trajectory.
#
#   scripts/bench.sh                         # full suite -> BENCH_pr10.json
#   BENCH='ReplaySweep|Record' scripts/bench.sh   # filtered
#   OUT=/tmp/bench.json scripts/bench.sh     # alternate output path
#
# The raw `go test` output is kept next to the JSON (same path, .txt)
# so b.Log tables remain inspectable. BENCH_pr6.json through
# BENCH_pr10.json also record BenchmarkObsOverhead, the replay sweep
# with instrumentation on and off (the halves read within 0.1% of each
# other in BENCH_pr6.json and BENCH_pr10.json). It is gone with the
# off switch: instrumentation is always on.
# BENCH_pr7.json recorded BenchmarkFailoverOverhead, the two-worker
# sweep with and without the background health prober. It is gone:
# BenchmarkDistributedSweep/distributed-2workers runs with the prober
# on and fails if a healthy fleet ever retries or loses a worker.
# BENCH_pr9.json adds BenchmarkMemoizedSweep: the full geometry grid
# replayed with no memo vs a cold memo vs a warm memo. no-memo and
# cold must stay within noise of each other (the memo's write path is
# a map insert per cell); warm must be orders of magnitude below both
# (every cell served from memoized stats, zero replays).
# BENCH_pr10.json adds BenchmarkReplayOnly/serial: one full-trace
# hierarchy replay of a CIF capture, recorded in a second pass at 3
# iterations (a one-iteration replay is within GC noise); its 1x line
# from the main pass is dropped from the record.
set -eu

BENCH="${BENCH:-.}"
OUT="${OUT:-BENCH_pr10.json}"

cd "$(dirname "$0")/.."

raw="${OUT%.json}.txt"
go test -run '^$' -bench "$BENCH" -benchtime=1x -timeout 60m . \
  | grep -v '^BenchmarkReplayOnly' | tee "$raw"
if printf 'BenchmarkReplayOnly/serial' | grep -Eq "$BENCH"; then
  go test -run '^$' -bench 'BenchmarkReplayOnly' -benchtime=3x -timeout 60m . \
    | grep '^BenchmarkReplayOnly' | tee -a "$raw"
fi
go run ./cmd/benchjson < "$raw" > "$OUT"
echo "wrote $OUT (raw log in $raw)" >&2
