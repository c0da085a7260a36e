package dist

// Tests of the coordinator's row queue: one batch per row with a
// missing cell, pulled by whichever worker is free, so each row's trace
// moves once, a slow worker holds only the rows it took, and a batch
// that spends its budget still reports the worker it was lost on.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/harness"
	"repro/internal/obs"
)

// TestQueueUploadsEachRowOnce: a healthy two-worker sweep of a 3-row
// grid ships each row's trace to one worker and replays it in one call,
// whatever the number of workers.
func TestQueueUploadsEachRowOnce(t *testing.T) {
	l1s := harness.GeometryL1Configs()
	_, l2Sizes := faultAxes()
	coord := faultCoordinator(goodWorker(t).URL, goodWorker(t).URL)
	points, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Uploads + stats.UploadsDeduped; got != len(l1s) {
		t.Errorf("%d uploads + %d deduped probes for %d rows, want one per row", stats.Uploads, stats.UploadsDeduped, len(l1s))
	}
	if stats.Replays != len(l1s) {
		t.Errorf("%d replay calls for %d rows, want one per row", stats.Replays, len(l1s))
	}
	local, err := harness.RunGeometrySweep(faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, local) {
		t.Fatal("fleet sweep differs from local")
	}
}

// TestQueueFastWorkerServesMoreRows: with one of two workers slowed on
// every replay, the fast worker keeps taking rows from the queue while
// the slow one holds the row it started on, so the fast worker serves
// more of the five-policy grid's shards.
func TestQueueFastWorkerServesMoreRows(t *testing.T) {
	slow, fast := goodWorker(t), goodWorker(t)
	ft := faultnet.New(1, nil, &faultnet.Rule{
		Name:    "slow-replay",
		Match:   faultnet.And(faultnet.Host(slow.URL), faultnet.Path("/v1/replay")),
		Latency: 500 * time.Millisecond,
	})
	coord := chaosCoordinator(ft, slow.URL, fast.URL)
	l1s := harness.PolicyAxisConfigs(nil)
	_, l2Sizes := faultAxes()
	points, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if nSlow, nFast := stats.ShardsByWorker[slow.URL], stats.ShardsByWorker[fast.URL]; nFast <= nSlow {
		t.Errorf("fast worker served %d shards, slow worker %d; want the fast one ahead", nFast, nSlow)
	}
	local, err := harness.RunGeometrySweep(faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, local) {
		t.Fatal("fleet sweep differs from local")
	}
}

// TestQueueSpentBudgetDropsWorker: when a batch spends its attempt
// budget on the only worker, which refuses every connection, the sweep
// drops that worker before the local fallback rescues it, and counts
// it as lost like a breaker trip would.
func TestQueueSpentBudgetDropsWorker(t *testing.T) {
	dead := goodWorker(t)
	dead.Close()
	coord := &Coordinator{
		Workers:        []string{dead.URL},
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
		FallbackLocal:  true,
	}
	failures := func() uint64 { return obs.Default().Snapshot().Counters["dist_worker_failures_total"] }
	before := failures()
	l1s, l2Sizes := faultAxes()
	points, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatalf("fallback did not rescue the dead fleet: %v", err)
	}
	if stats.DeadWorkers != 1 || len(stats.WorkerFailures) != 1 {
		t.Errorf("%d workers lost, failures %q; want the one worker lost once", stats.DeadWorkers, stats.WorkerFailures)
	}
	if got := failures() - before; got != 1 {
		t.Errorf("dist_worker_failures_total grew by %d, want 1", got)
	}
	if stats.FallbackShards != len(l1s) {
		t.Errorf("%d shards replayed through the fallback, want %d", stats.FallbackShards, len(l1s))
	}
	if !reflect.DeepEqual(points, localBaseline(t)) {
		t.Fatal("fallback sweep differs from local")
	}
}
