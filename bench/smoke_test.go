package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smokeFrames keeps the smoke runs short: two frames (one I and one P
// VOP), one for the paper, whose operation is the longest.
func smokeFrames(w *workload) int {
	if w.name == "paper" {
		return 1
	}
	return 2
}

// checkCoverage asserts that a ladder's stages account for the
// operation they re-drive. The band is wider than the 0.9-1.1 a full
// run shows, because a two-frame operation is short and its fixed
// costs weigh more.
func checkCoverage(t *testing.T, coverage float64) {
	t.Helper()
	if coverage < 0.8 || coverage > 1.2 {
		t.Errorf("ladder coverage %.3f, want 0.8-1.2", coverage)
	}
}

// TestSmoke runs every workload for its minimum of operations with all
// output checks. The trace-sweep run is traced, so the stage ledger,
// the ladder and the spans file run too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			o := runOptions{seed: 1, seconds: 1e-3, frames: smokeFrames(w), trace: w.name == "trace-sweep", outDir: dir}
			rec, err := run(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted < minOps {
				t.Fatalf("correct %v after %d operations: %v", rec.Correct, rec.Attempted, rec.Failures)
			}
			defs := endToEnd
			if o.trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := rec.Metrics[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%d metrics, want %d", len(rec.Metrics), len(defs))
			}
			// Every operation of fleet-cold after the first gets a new
			// deployment, and its set-up counts in setup_s.
			wantSetups := setupRounds
			if w.name == "fleet-cold" {
				wantSetups += rec.Attempted - 1
			}
			if len(rec.SetupS) != wantSetups {
				t.Errorf("%d set-ups timed over %d operations, want %d", len(rec.SetupS), rec.Attempted, wantSetups)
			}
			if o.trace {
				checkCoverage(t, rec.Metrics["ladder.coverage"].Value)
				if _, err := os.Stat(filepath.Join(dir, "spans-"+w.name+".json")); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestFleetColdLadderCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet study twice")
	}
	w, err := workloadByName("fleet-cold")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.setup(context.Background(), params{seed: 1, frames: smokeFrames(w)})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	coverage, err := w.ladder(context.Background(), inst, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	checkCoverage(t, coverage)
}

// Every seed's fleet study must pass the service's own validation, and
// seeds must actually vary it.
func TestFleetSpecSeeds(t *testing.T) {
	axes := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		spec := fleetSpec(params{seed: seed, frames: 6})
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raw, err := json.Marshal(spec.Experiments)
		if err != nil {
			t.Fatal(err)
		}
		axes[string(raw)] = true
	}
	if len(axes) < 20 {
		t.Errorf("40 seeds gave %d distinct studies", len(axes))
	}
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json must describe exactly the workloads and metrics this
// program runs and reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command %q, want %q", bf.Command, want)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	want := func(defs []metricDef, bounds bool) []benchmarkMetric {
		var out []benchmarkMetric
		for _, d := range defs {
			m := benchmarkMetric{Name: d.name, Unit: d.unit, Better: "lower"}
			if d.higher {
				m.Better = "higher"
			}
			if bounds {
				b := d.bound
				m.Bound = &b
			}
			out = append(out, m)
		}
		return out
	}
	if got, w := bf.EndToEnd, want(endToEnd, true); !reflect.DeepEqual(got, w) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's:\n got %+v\nwant %+v", got, w)
	}
	if got, w := bf.PerLayer, want(perLayer, false); !reflect.DeepEqual(got, w) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's:\n got %+v\nwant %+v", got, w)
	}
}
