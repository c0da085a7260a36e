#!/usr/bin/env sh
# Runs the top-level benchmarks once each (-benchtime=1x) and records
# the results as JSON, seeding the repository's perf trajectory.
#
#   scripts/bench.sh                         # full suite -> BENCH_pr9.json
#   BENCH='ReplaySweep|Record' scripts/bench.sh   # filtered
#   OUT=/tmp/bench.json scripts/bench.sh     # alternate output path
#
# The raw `go test` output is kept next to the JSON (same path, .txt)
# so b.Log tables remain inspectable. BENCH_pr6.json added
# BenchmarkObsOverhead: the BenchmarkReplaySweep/replay sweep with
# instrumentation on vs obs.SetEnabled(false) — both halves must stay
# within 2% of BENCH_pr5.json's BenchmarkReplaySweep/replay, the proof
# that the observability layer costs nothing on the replay hot path.
# That 2% bound is tighter than single-iteration machine noise, so
# ObsOverhead alone is recorded in a second pass at 10 iterations per
# half; its 1x lines from the main pass are dropped from the record.
# BENCH_pr7.json adds BenchmarkFailoverOverhead: the two-worker
# distributed sweep with the self-healing scheduler (breakers +
# background health prober) vs DisableReadmission — on a healthy fleet
# the two halves must match BenchmarkDistributedSweep, the proof that
# resilience costs nothing unless faults actually happen.
# BENCH_pr9.json adds BenchmarkMemoizedSweep: the full geometry grid
# replayed with no memo vs a cold memo vs a warm memo. no-memo and
# cold must stay within noise of each other (the memo's write path is
# a map insert per cell); warm must be orders of magnitude below both
# (every cell served from memoized stats, zero replays).
# BENCH_pr10.json adds BenchmarkReplayOnly/serial: one full-trace
# hierarchy replay of a CIF capture, recorded like ObsOverhead at 3
# iterations (a one-iteration replay is within GC noise).
set -eu

BENCH="${BENCH:-.}"
OUT="${OUT:-BENCH_pr10.json}"

cd "$(dirname "$0")/.."

raw="${OUT%.json}.txt"
go test -run '^$' -bench "$BENCH" -benchtime=1x -timeout 60m . \
  | grep -v '^BenchmarkObsOverhead' | grep -v '^BenchmarkReplayOnly' | tee "$raw"
if printf 'BenchmarkObsOverhead/instrumented' | grep -Eq "$BENCH"; then
  go test -run '^$' -bench 'BenchmarkObsOverhead' -benchtime=10x -timeout 60m . \
    | grep '^BenchmarkObsOverhead' | tee -a "$raw"
fi
if printf 'BenchmarkReplayOnly/serial' | grep -Eq "$BENCH"; then
  go test -run '^$' -bench 'BenchmarkReplayOnly' -benchtime=3x -timeout 60m . \
    | grep '^BenchmarkReplayOnly' | tee -a "$raw"
fi
go run ./cmd/benchjson < "$raw" > "$OUT"
echo "wrote $OUT (raw log in $raw)" >&2
