package main

import (
	"strings"
	"testing"
)

// scaled returns ten samples around base, each off by its share in
// noise (a fixed pattern, so the tests are deterministic).
func scaled(base float64, noise float64) []float64 {
	pattern := []float64{0, 0.3, -0.5, 0.8, -0.2, 1, -1, 0.4, -0.7, 0.1}
	out := make([]float64, len(pattern))
	for i, p := range pattern {
		out[i] = base * (1 + noise*p)
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "op_p50_s", bound: 0.10}
	higher := metricDef{name: "cells_per_s", higher: true, bound: 0.10}
	steady := scaled(1, 0.01)
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"faster", lower, steady, scaled(0.8, 0.01), verdictBetter},
		{"unchanged", lower, steady, scaled(1.01, 0.01), verdictSame},
		{"slower within the bound", lower, steady, scaled(1.05, 0.01), verdictSame},
		{"slower past the bound", lower, steady, scaled(1.2, 0.01), verdictWorse},
		{"lower throughput past the bound", higher, steady, scaled(0.8, 0.01), verdictWorse},
		{"higher throughput", higher, steady, scaled(1.25, 0.01), verdictBetter},
		{"noisy baseline", lower, scaled(1, 0.4), scaled(1.02, 0.01), verdictUnresolved},
		{"noisy change", lower, steady, scaled(1.3, 0.4), verdictUnresolved},
		// Every change run beats every baseline run, but the medians
		// differ by less than the baseline's own spread: not a gain,
		// yet not a regression either.
		{"noisy but all better", lower,
			[]float64{1.0, 1.01, 1.02, 1.03, 1.04, 1.5, 1.6, 1.7, 1.8, 1.9}, scaled(0.95, 0.01), verdictSame},
		// One pair has no spread to measure: a faster run proves nothing.
		{"one pair", lower, []float64{1}, []float64{0.8}, verdictUnresolved},
		{"nine pairs", lower, steady[:9], scaled(0.8, 0.01)[:9], verdictUnresolved},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	a := scaled(1, 0.01)
	b := scaled(0.8, 0.01)
	b[0], b[1] = 2, 2 // two of ten pairs lost
	if got := judge(metricDef{name: "op_p50_s", bound: 0.5}, a, b); got == verdictBetter {
		t.Errorf("8 of 10 pairs won judged %s", got)
	}
}

func runs(workload string, nproc int, seeds ...int64) []*record {
	var out []*record
	for _, s := range seeds {
		out = append(out, &record{
			Workload: workload, Seed: s, Seconds: 15, Frames: 6,
			Host:    host{NProc: nproc},
			Metrics: metricSet{"op_p50_s": {Value: 1, Unit: "s"}},
		})
	}
	return out
}

func TestPairRunsRefuses(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b []*record
		want string
	}{
		{"cpu count", runs("paper", 2, 1, 2), runs("paper", 4, 1, 2), "CPUs"},
		{"seed", runs("paper", 2, 1, 2), runs("paper", 2, 1, 3), "seed"},
		{"run count", runs("paper", 2, 1, 2), runs("paper", 2, 1), "runs against"},
		{"workloads", runs("paper", 2, 1), runs("trace-sweep", 2, 1), "runs against"},
	} {
		_, _, _, err := pairRuns(c.a, c.b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, _, _, err := pairRuns(runs("paper", 2, 1, 2), runs("paper", 2, 1, 2)); err != nil {
		t.Errorf("comparable runs refused: %v", err)
	}
}
