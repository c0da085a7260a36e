package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of compare, per (workload, metric).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest pairs of runs judge reaches a verdict on.
const minPairs = 10

// judge compares a metric's runs of a baseline (a) and a change (b),
// paired by index. Fewer than minPairs pairs leave it unresolved.
// Better needs b to win at least nine tenths of the pairs, ties
// counting for neither, and the medians to differ by more than the
// distance between a's quartiles. A spread wider than the bound on
// either side leaves the metric unresolved, unless every run of b
// reads better than every run of a. Otherwise b is worse when its
// median is worse than a's by more than the bound.
func judge(d metricDef, a, b []float64) string {
	if len(a) < minPairs {
		return verdictUnresolved
	}
	better := func(x, y float64) bool {
		if d.higher {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	if 10*wins >= 9*len(a) && math.Abs(mb-ma) > q3-q1 {
		return verdictBetter
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		if better(minMax(b, !d.higher), minMax(a, d.higher)) {
			return verdictSame
		}
		return verdictUnresolved
	}
	worseBy := (mb - ma) / math.Abs(ma)
	if d.higher {
		worseBy = -worseBy
	}
	if worseBy > d.bound {
		return verdictWorse
	}
	return verdictSame
}

// minMax returns the largest value of xs when max is set, else the
// smallest.
func minMax(xs []float64, max bool) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if (max && x > v) || (!max && x < v) {
			v = x
		}
	}
	return v
}

// loadRecords reads run records: each file holds one record or a JSON
// list of them. Traced runs are skipped; they carry no end-to-end
// metrics.
func loadRecords(paths []string) ([]*record, error) {
	var out []*record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var recs []*record
		if err := json.Unmarshal(raw, &recs); err != nil {
			var one record
			if err := json.Unmarshal(raw, &one); err != nil {
				return nil, fmt.Errorf("%s: not a run record: %w", p, err)
			}
			recs = []*record{&one}
		}
		for _, r := range recs {
			if !r.Trace {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// pairRuns groups two sets of records by workload and checks that they
// can be compared: the same machine size and run length everywhere, and
// per workload the same number of runs with the same seed and frame
// count at each position.
func pairRuns(a, b []*record) (workloads []string, byA, byB map[string][]*record, err error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, nil, errors.New("both sides need untraced run records")
	}
	ref := a[0]
	for _, r := range append(append([]*record(nil), a...), b...) {
		switch {
		case r.Host.NProc != ref.Host.NProc:
			return nil, nil, nil, fmt.Errorf("runs on %d and %d CPUs", ref.Host.NProc, r.Host.NProc)
		case r.Seconds != ref.Seconds:
			return nil, nil, nil, fmt.Errorf("runs of %gs and %gs", ref.Seconds, r.Seconds)
		}
	}
	byA, byB = map[string][]*record{}, map[string][]*record{}
	for _, r := range a {
		if len(byA[r.Workload]) == 0 {
			workloads = append(workloads, r.Workload)
		}
		byA[r.Workload] = append(byA[r.Workload], r)
	}
	for _, r := range b {
		byB[r.Workload] = append(byB[r.Workload], r)
	}
	for _, w := range workloads {
		ra, rb := byA[w], byB[w]
		if len(ra) != len(rb) {
			return nil, nil, nil, fmt.Errorf("%s: %d runs against %d", w, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Seed != rb[i].Seed || ra[i].Frames != rb[i].Frames {
				return nil, nil, nil, fmt.Errorf("%s: run %d has seed %d, frames %d against seed %d, frames %d",
					w, i+1, ra[i].Seed, ra[i].Frames, rb[i].Seed, rb[i].Frames)
			}
		}
	}
	if len(byB) != len(byA) {
		return nil, nil, nil, errors.New("the two sides ran different workloads")
	}
	return workloads, byA, byB, nil
}

// compareMain implements "bench compare A.json... -- B.json...": one
// verdict per (workload, end-to-end metric). It exits 1 when any metric
// is worse and 2 when the runs cannot be compared.
func compareMain(args []string, w io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASELINE.json... -- CHANGE.json...")
		return 2
	}
	a, err := loadRecords(args[:split])
	if err == nil {
		var b []*record
		if b, err = loadRecords(args[split+1:]); err == nil {
			return report(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func report(w io.Writer, a, b []*record) int {
	names, byA, byB, err := pairRuns(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: refusing:", err)
		return 2
	}
	fmt.Fprintf(w, "%-15s %-20s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "change", "A IQR", "B IQR", "verdict")
	code := 0
	for _, name := range names {
		for _, d := range endToEnd {
			va, vb := values(byA[name], d.name), values(byB[name], d.name)
			if len(va) != len(byA[name]) || len(vb) != len(byB[name]) {
				fmt.Fprintf(w, "%-15s %-20s missing from some runs\n", name, d.name)
				continue
			}
			v := judge(d, va, vb)
			if v == verdictWorse {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-15s %-20s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				name, d.name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*spread(va), 100*spread(vb), v)
		}
	}
	return code
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
