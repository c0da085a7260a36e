package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
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
	"repro/internal/memo"
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

// TestManifestReleasesCaptureAfterLastSweep: a manifest's sweeps share
// one capture, released after the last of them, so a later request
// captures anew.
func TestManifestReleasesCaptureAfterLastSweep(t *testing.T) {
	exps := []harness.ExperimentSpec{
		{Sweep: "geometry", L1s: []cache.Config{{SizeBytes: 32 << 10, LineBytes: 32, Ways: 2}}, L2KB: []int{512}},
		{Sweep: "policy", Policies: []string{"lru", "fifo"}, L2KB: []int{512}},
	}
	s := harness.NewStudy(true)
	ctx := harness.WithStudy(context.Background(), s)
	if err := runExperiments(ctx, farm.New(farm.Config{Workers: 2}), exps, 1, io.Discard); err != nil {
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

// TestManifestSweepsShareTheirCommonRow: on a cold memo, a manifest's
// policy sweep finds its lru row, the geometry sweep's 32 KB 2-way row,
// in the memo, because the sweeps run in list order: 7 L1-filtered
// traces and 42 replays, not 8 and 48. The output is the fleet
// workloads' golden study.
func TestManifestSweepsShareTheirCommonRow(t *testing.T) {
	mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	s := harness.NewStudy(true)
	s.SetMemo(mc)
	var out bytes.Buffer
	exps := []harness.ExperimentSpec{{Sweep: "geometry"}, {Sweep: "policy"}}
	if err := runExperiments(harness.WithStudy(context.Background(), s), farm.Default(), exps, 6, &out); err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.L2Traces != 7 || u.Replays != 42 || u.MemoHits != 6 || u.MemoHits+u.MemoMisses != 48 {
		t.Fatalf("usage %+v, want 7 L1-filtered traces, 42 replays and 6/48 memo hits", u)
	}
	golden, err := os.ReadFile("../../bench/golden/fleet-resubmit-seed1.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())), strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("stdout SHA-256 %s, want %s", got, want)
	}
}
