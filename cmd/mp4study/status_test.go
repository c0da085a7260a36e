package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

// TestStatusWriterSeam checks that the status stream respects the
// statusW seam: swap the writer, and every status helper lands there
// instead of on os.Stderr.
func TestStatusWriterSeam(t *testing.T) {
	var sb strings.Builder
	old := statusW
	statusW = &sb
	defer func() { statusW = old }()

	statusf("total time: %v (%d workers)\n", "1s", 4)
	reportTraceUsage(harness.TraceUsage{}) // zero usage: must print nothing

	out := sb.String()
	if !strings.Contains(out, "total time: 1s (4 workers)") {
		t.Errorf("statusf did not reach the seam: %q", out)
	}
	if strings.Contains(out, "traces:") {
		t.Errorf("zero trace usage still reported: %q", out)
	}
}

// TestWriteMetricsSnapshot checks the -metrics-out implementation:
// the file is valid JSON in the obs snapshot schema and contains the
// process registry's metrics.
func TestWriteMetricsSnapshot(t *testing.T) {
	obs.Default().Counter("mp4study_test_marker_total").Inc()

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := writeMetricsSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot file invalid: %v", err)
	}
	if snap.Counters["mp4study_test_marker_total"] == 0 {
		t.Error("snapshot missing registry contents")
	}
}

// TestManifestRejectsRemovedReplayField: a manifest that still names
// the removed "replay" setting fails to decode, naming the field,
// before any experiment runs.
func TestManifestRejectsRemovedReplayField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	manifest := `{"frames": 1, "replay": false, "experiments": [` +
		`{"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512]}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	study := harness.NewStudy(true)
	_, err := runManifest(harness.WithStudy(context.Background(), study), path, 0, 0, false)
	if err == nil || !strings.Contains(err.Error(), `unknown field "replay"`) {
		t.Fatalf("manifest naming replay: err = %v, want an unknown-field error", err)
	}
	if u := study.Usage(); !u.Zero() {
		t.Fatalf("a rejected manifest still simulated: %+v", u)
	}
}
