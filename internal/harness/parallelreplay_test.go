package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// TestParallelReplayEndToEndIdentical checks the fused pass's config
// fan-out end to end: geometry and policy sweeps of one capture produce
// byte-identical points whether each row's L2 configs replay on one
// goroutine (-replay-workers 1) or split across four.
func TestParallelReplayEndToEndIdentical(t *testing.T) {
	defer trace.SetReplayWorkers(0)
	capture, err := RecordEncodeIn(simmem.NewSpace(0), Workload{W: 176, H: 144, Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := farm.Default()
	sweep := func(workers int, l1s []cache.Config, l2Sizes []int) []GeometryPoint {
		t.Helper()
		trace.SetReplayWorkers(workers)
		pts, err := RunGeometrySweepFromTrace(context.Background(), pool, capture.Enc, l1s, l2Sizes)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}

	l1s := GeometryL1Configs()[:2]
	l2Sizes := []int{256 << 10, 1 << 20, 2 << 20}
	serial, fanned := sweep(1, l1s, l2Sizes), sweep(4, l1s, l2Sizes)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], fanned[i]) {
			t.Fatalf("geometry point %d differs\n1 worker  %+v\n4 workers %+v", i, serial[i], fanned[i])
		}
	}

	pl1s := PolicyAxisConfigs([]cache.Policy{
		cache.PolicyLRU, cache.PolicyPLRU, cache.PolicyFIFO, cache.PolicyRandom, cache.PolicyVictim,
	})
	pSizes := []int{512 << 10, 1 << 20}
	if !reflect.DeepEqual(sweep(1, pl1s, pSizes), sweep(4, pl1s, pSizes)) {
		t.Fatal("policy sweeps differ between 1 and 4 replay workers")
	}
}
