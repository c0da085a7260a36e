package dist

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/trace"
)

// TestDistributedSweepParallelReplayIdentical: a two-worker sweep whose
// workers split each row's L2 configs across four goroutines returns
// points byte-identical to the local sweep replaying them on one.
func TestDistributedSweepParallelReplayIdentical(t *testing.T) {
	defer trace.SetReplayWorkers(0)
	wl := harness.Workload{W: 160, H: 128, Frames: 3}
	l1s, l2Sizes := sweepAxes()

	trace.SetReplayWorkers(1)
	localPoints, err := harness.RunGeometrySweep(wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}

	trace.SetReplayWorkers(4)
	srv1 := httptest.NewServer(NewWorker(WorkerConfig{Workers: 2}).Handler())
	defer srv1.Close()
	srv2 := httptest.NewServer(NewWorker(WorkerConfig{Workers: 2}).Handler())
	defer srv2.Close()
	coord := &Coordinator{Workers: []string{srv1.URL, srv2.URL}}
	distPoints, _, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(distPoints) != len(localPoints) {
		t.Fatalf("%d distributed points vs %d local", len(distPoints), len(localPoints))
	}
	for i := range distPoints {
		if !reflect.DeepEqual(distPoints[i], localPoints[i]) {
			t.Fatalf("point %d differs\ndist (4 replay workers) %+v\nlocal (1 replay worker) %+v",
				i, distPoints[i], localPoints[i])
		}
	}
}
