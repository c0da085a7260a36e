package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs,
// n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{2.5, 2.5, 2.5, 2.5, 2.5}, 2.5, 2.5},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	if _, _, ok := tailPercentile(make([]float64, 10)); ok {
		t.Error("ten samples cannot have ten beyond a percentile")
	}
	xs := make([]float64, 24)
	for i := range xs {
		xs[i] = float64(24 - i) // descending: sorting must happen
	}
	v, pct, ok := tailPercentile(xs)
	if !ok || v != 14 || !near(pct, 100*14.0/24) {
		t.Errorf("tailPercentile(1..24) = %g at p%.1f (ok %v), want 14 at p58.3", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 10},
		{Name: "a", ID: 2, Parent: 1, Start: 1, End: 4},
		{Name: "b", ID: 3, Parent: 1, Start: 5, End: 9},
		{Name: "a", ID: 4, Parent: 3, Start: 6, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 3, "a": 4, "b": 3}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self time of %s = %g, want %g", name, got[name], w)
		}
	}
	if c := opSpanCoverage(spans); !near(c, 0.7) {
		t.Errorf("coverage = %g, want 0.7", c)
	}
}
