package farm

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestMetricsConcurrentRuns hammers the process-wide farm metrics from
// several concurrent Run calls (the production shape: nested sweeps and
// parallel studies share one pool type and one registry). Under -race
// this doubles as the data-race check on the instrumentation; the
// arithmetic checks prove the delta discipline — counters advance by
// exactly the work done, gauges return to zero.
func TestMetricsConcurrentRuns(t *testing.T) {
	reg := obs.Default()
	before := reg.Snapshot()

	const runs = 8
	const jobsPerRun = 24
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := New(Config{Workers: 3})
			_, err := Map(context.Background(), p, make([]struct{}, jobsPerRun),
				func(ctx context.Context, env Env, _ struct{}) (int, error) {
					return env.Index, nil
				})
			if err != nil {
				t.Errorf("run %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()

	after := reg.Snapshot()
	wantDone := uint64(runs * jobsPerRun)
	if got := after.Counters["farm_jobs_completed_total"] - before.Counters["farm_jobs_completed_total"]; got != wantDone {
		t.Errorf("completed delta = %d, want %d", got, wantDone)
	}
	if got := after.Histograms["farm_job_seconds"].Count - before.Histograms["farm_job_seconds"].Count; got != wantDone {
		t.Errorf("job_seconds delta = %d, want %d", got, wantDone)
	}
	if got := after.Gauges["farm_queue_depth"]; got != 0 {
		t.Errorf("queue depth after drain = %d, want 0", got)
	}
	if got := after.Gauges["farm_jobs_inflight"]; got != 0 {
		t.Errorf("in-flight after drain = %d, want 0", got)
	}
}

// TestMetricsFailureAccounting checks the outcome split: the failing
// job counts as failed, and every submitted job lands in exactly one of
// completed/failed/skipped (how many skip depends on how fast the
// fail-fast cancellation lands — the worker may pick up another queued
// job before the collector cancels, so only the sum is deterministic).
func TestMetricsFailureAccounting(t *testing.T) {
	reg := obs.Default()
	before := reg.Snapshot()

	boom := errors.New("boom")
	p := New(Config{Workers: 1})
	const n = 5
	_, err := Map(context.Background(), p, make([]struct{}, n),
		func(ctx context.Context, env Env, _ struct{}) (int, error) {
			if env.Index == 1 {
				return 0, boom
			}
			return env.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}

	after := reg.Snapshot()
	delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	if got := delta("farm_jobs_failed_total"); got != 1 {
		t.Errorf("failed delta = %d, want 1", got)
	}
	if got := delta("farm_jobs_completed_total"); got < 1 { // job 0 runs before the failure
		t.Errorf("completed delta = %d, want >= 1", got)
	}
	total := delta("farm_jobs_completed_total") + delta("farm_jobs_failed_total") + delta("farm_jobs_skipped_total")
	if total != n {
		t.Errorf("outcome total = %d, want %d (every job in exactly one bucket)", total, n)
	}
	if got := after.Gauges["farm_queue_depth"]; got != 0 {
		t.Errorf("queue depth after failure = %d, want 0", got)
	}
}
