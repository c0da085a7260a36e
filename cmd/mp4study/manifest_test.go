package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/harness"
)

// TestManifestRejectsReplayFieldAndTrailingData: a manifest that still
// names the removed "replay" setting, or that has anything after its
// JSON object, fails before any experiment runs, in local mode and in
// -service mode alike.
func TestManifestRejectsReplayFieldAndTrailingData(t *testing.T) {
	const geometry = `{"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512]}`
	for _, tc := range []struct {
		name, manifest, want string
	}{
		{"replay field", `{"frames": 1, "replay": false, "experiments": [` + geometry + `]}`, `unknown field "replay"`},
		{"trailing data", `{"frames": 1, "experiments": [` + geometry + `]} {"experiments": oops`, "data after the JSON value"},
		{"trailing value", `{"frames": 1, "experiments": [` + geometry + `]} {}`, "data after the JSON value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "m.json")
			if err := os.WriteFile(path, []byte(tc.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			study := harness.NewStudy(true)
			_, err := runManifest(harness.WithStudy(context.Background(), study), path, 0, 0, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("local: err = %v, want %q", err, tc.want)
			}
			if u := study.Usage(); !u.Zero() {
				t.Fatalf("a rejected manifest still simulated: %+v", u)
			}

			svc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				t.Errorf("rejected manifest reached the service: %s %s", r.Method, r.URL)
				http.Error(w, "unexpected", http.StatusTeapot)
			}))
			defer svc.Close()
			err = runServiceStudy(context.Background(), svc.URL, path, 0, "", "", false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("-service: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// manifestSeeds seed FuzzManifest: the manifests of this command's doc
// comment and of the README walkthrough, a trailing-data body, a
// manifest naming the removed "replay" field, and malformed ones.
var manifestSeeds = []string{
	`{
  "frames": 6,
  "parallel": 8,
  "experiments": [
    {"table": 2}, {"table": 8},
    {"figure": 3},
    {"sweep": "ratio"}, {"sweep": "coloring"},
    {"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512, 1024]}
  ]
}
`,
	`{
  "frames": 2,
  "experiments": [
    {"table": 2},
    {"figure": 2},
    {"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512, 1024]}
  ]
}
`,
	`{"priority": "batch", "experiments": [{"sweep": "policy", "policies": ["lru", "fifo"], "l2_kb": [512]}]}`,
	`{"experiments":[{"table":1}]} {"experiments": oops`,
	`{"frames": 1, "replay": false, "experiments": [{"table": 1}]}`,
	`{}`,
	`{"experiments": [`,
	`{"experiments": [{"table": 2, "figure": 3}]}`,
	`{"experiments": [{"sweep": "geometry", "l1": [{"size": 48111, "line": 48, "ways": 3}]}]}`,
	`{"experiments": [{"sweep": "geometry", "policies": ["plru"], "l1": [{"size": 98304, "line": 32, "ways": 3}]}]}`,
}

// FuzzManifest drives readManifest and each experiment's Validate with
// arbitrary files; no simulation runs. Neither may panic, and a
// manifest both accept must re-marshal to a file they accept again,
// naming the same experiments.
func FuzzManifest(f *testing.F) {
	for _, m := range manifestSeeds {
		f.Add([]byte(m))
	}
	path := filepath.Join(f.TempDir(), "m.json")
	accept := func(t *testing.T, data []byte) (manifestFile, bool) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mf, err := readManifest(path)
		if err != nil {
			return mf, false
		}
		for _, e := range mf.Experiments {
			if e.Validate() != nil {
				return mf, false
			}
		}
		return mf, true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mf, ok := accept(t, data)
		if !ok {
			return
		}
		raw, err := json.Marshal(mf)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, ok := accept(t, raw)
		if !ok {
			t.Fatalf("re-marshalled manifest %s is rejected", raw)
		}
		if got, want := manifestLabels(again), manifestLabels(mf); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-marshalled experiments %q, want %q", got, want)
		}
	})
}

func manifestLabels(mf manifestFile) []string {
	labels := make([]string, len(mf.Experiments))
	for i, e := range mf.Experiments {
		labels[i] = e.Label()
	}
	return labels
}

// TestRunBatchReleasesCaptureAfterLastSweep: a manifest's concurrent
// sweeps share one capture, and the last of them to finish releases it,
// so a later request captures anew.
func TestRunBatchReleasesCaptureAfterLastSweep(t *testing.T) {
	exps := []harness.ExperimentSpec{
		{Sweep: "geometry", L1s: []cache.Config{{SizeBytes: 32 << 10, LineBytes: 32, Ways: 2}}, L2KB: []int{512}},
		{Sweep: "policy", Policies: []string{"lru", "fifo"}, L2KB: []int{512}},
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	s := harness.NewStudy(true)
	err = runBatch(harness.WithStudy(context.Background(), s), farm.New(farm.Config{Workers: 2}), exps, 1)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.Traces != 1 {
		t.Fatalf("two sweeps of one workload made %d captures, want 1", u.Traces)
	}
	if _, err := s.EncodeTrace(harness.Workload{W: 352, H: 288, Frames: 1}); err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.Traces != 2 {
		t.Fatal("the capture outlived the manifest's last sweep")
	}
}
