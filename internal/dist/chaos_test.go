package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/harness"
	"repro/internal/memo"
)

// The chaos suite drives the self-healing coordinator through
// faultnet's seeded fault injection: timeout/5xx/mid-body-reset soups,
// deterministic down-then-healed schedules for re-admission, total
// fleet loss for the local fallback, and injected 4xx for the
// fail-fast path. The contract under test is the acceptance criterion:
// every sweep either completes byte-identical to the local sweep or
// fails with a classified, budget-bounded error.

// chaosCoordinator wires a coordinator to a fault-injecting client
// with retry/breaker knobs tightened so a chaos run costs
// milliseconds of backoff, not the production defaults.
func chaosCoordinator(ft *faultnet.Transport, urls ...string) *Coordinator {
	return &Coordinator{
		Workers:        urls,
		Client:         &http.Client{Transport: ft},
		UploadTimeout:  10 * time.Second,
		ReplayTimeout:  60 * time.Second,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
		ProbeInterval:  10 * time.Millisecond,
		ProbeTimeout:   time.Second,
		Seed:           1,
	}
}

// localBaseline computes the local sweep the chaos sweeps must match.
func localBaseline(t *testing.T) []harness.GeometryPoint {
	t.Helper()
	l1s, l2Sizes := faultAxes()
	points, err := harness.RunGeometrySweep(faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestChaosSweepSurvivesFaultSoup: under a seeded mix of injected
// timeouts, 503 bursts, and mid-body connection resets on every
// worker, each sweep must either complete byte-identical to the local
// sweep or fail with a classified, budget-bounded error — never hang,
// never return silently wrong points.
func TestChaosSweepSurvivesFaultSoup(t *testing.T) {
	local := localBaseline(t)
	l1s, l2Sizes := faultAxes()
	injected := 0
	for _, seed := range []uint64{3, 17, 1001} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w1, w2 := goodWorker(t), goodWorker(t)
			ft := faultnet.New(seed, nil, &faultnet.Rule{
				Name:        "soup",
				TimeoutRate: 0.12,
				StatusRate:  0.12,
				ResetRate:   0.12,
				ResetAfter:  64,
			})
			coord := chaosCoordinator(ft, w1.URL, w2.URL)
			// High budget and threshold: this test exercises the
			// retry/backoff path under sustained noise; the breaker and
			// re-admission paths get their own deterministic tests.
			coord.MaxAttempts = 10
			coord.BreakerThreshold = 10
			points, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
			injected += ft.InjectedTotal()
			if err != nil {
				// A loss is acceptable only if it is classified and
				// budget-bounded — the one shape the scheduler may give up in.
				msg := err.Error()
				if !strings.Contains(msg, "attempt budget") &&
					!strings.Contains(msg, "workers failed") &&
					!strings.Contains(msg, "permanent") {
					t.Fatalf("unclassified chaos failure: %v", err)
				}
				t.Logf("sweep failed within budget (acceptable): %v", err)
				return
			}
			if !reflect.DeepEqual(points, local) {
				t.Fatalf("chaos sweep differs from local (injected=%d, stats=%+v)",
					ft.InjectedTotal(), stats)
			}
			t.Logf("survived: injected=%d retries=%d failovers=%d dead=%d readmitted=%d",
				ft.InjectedTotal(), stats.Retries, stats.Failovers, stats.DeadWorkers, stats.Readmissions)
		})
	}
	if injected == 0 {
		t.Error("fault soup injected nothing across all seeds — rates are not exercising the scheduler")
	}
}

// TestChaosWorkerDownThenHealedIsReadmitted is the deterministic
// in-process re-admission test: worker 0 refuses its first four
// requests (two upload attempts trip the breaker, two health probes
// fail) and then heals; worker 1 is slowed so work remains when the
// prober's next probe succeeds. The sweep must re-admit worker 0
// mid-sweep, hand it queued work, and still match the local sweep.
func TestChaosWorkerDownThenHealedIsReadmitted(t *testing.T) {
	w0, w1 := goodWorker(t), goodWorker(t)
	ft := faultnet.New(1, nil,
		&faultnet.Rule{Name: "down-then-heal", Match: faultnet.Host(w0.URL), FailFirst: 4},
		&faultnet.Rule{
			Name:    "slow-survivor",
			Match:   faultnet.And(faultnet.Host(w1.URL), faultnet.Path("/v1/replay")),
			Latency: 300 * time.Millisecond,
		},
	)
	coord := chaosCoordinator(ft, w0.URL, w1.URL)
	coord.BreakerThreshold = 2
	coord.BreakerCooldown = time.Millisecond
	l1s, l2Sizes := faultAxes()

	points, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatalf("sweep did not survive the down-then-healed worker: %v (stats %+v)", err, stats)
	}
	if !reflect.DeepEqual(points, localBaseline(t)) {
		t.Fatal("re-admission sweep differs from local")
	}
	if stats.DeadWorkers != 1 || stats.BreakerTrips == 0 {
		t.Errorf("expected worker 0 breaker-dropped once, got %+v", stats)
	}
	if stats.Readmissions < 1 {
		t.Errorf("worker 0 healed but was never re-admitted: %+v", stats)
	}
	if stats.Probes < 1 {
		t.Errorf("re-admission without probes recorded: %+v", stats)
	}
	if stats.ShardsByWorker[w0.URL] == 0 {
		t.Errorf("re-admitted worker served no shards: %+v", stats.ShardsByWorker)
	}
}

// TestChaosFallbackLocalCompletes: with the whole fleet unreachable,
// FallbackLocal must replay every shard through the local harness path
// and return byte-identical results instead of failing the sweep.
func TestChaosFallbackLocalCompletes(t *testing.T) {
	w0, w1 := goodWorker(t), goodWorker(t)
	ft := faultnet.New(1, nil, &faultnet.Rule{Name: "fleet-down", ErrRate: 1})
	coord := chaosCoordinator(ft, w0.URL, w1.URL)
	coord.FallbackLocal = true
	l1s, l2Sizes := faultAxes()

	points, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatalf("fallback did not rescue the dead fleet: %v", err)
	}
	if !reflect.DeepEqual(points, localBaseline(t)) {
		t.Fatal("fallback sweep differs from local")
	}
	if stats.FallbackShards == 0 {
		t.Errorf("no shards attributed to the fallback path: %+v", stats)
	}
	if stats.DeadWorkers != 2 {
		t.Errorf("expected both workers dropped before the fallback, got %+v", stats)
	}

	// Without FallbackLocal the same fleet loss must stay a classified
	// failure — degradation is opt-in.
	strict := chaosCoordinator(faultnet.New(1, nil, &faultnet.Rule{Name: "fleet-down", ErrRate: 1}), w0.URL, w1.URL)
	_, _, err = strict.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err == nil || !strings.Contains(err.Error(), "workers failed") {
		t.Errorf("without FallbackLocal, want a classified fleet-loss error, got %v", err)
	}
}

// TestChaosFallbackCellsReachMemo: cells the local fallback rescues
// are memoized in the coordinator's memo like cells a worker replayed,
// so the next identical sweep is served entirely from the memo.
func TestChaosFallbackCellsReachMemo(t *testing.T) {
	w0, w1 := goodWorker(t), goodWorker(t)
	l1s, l2Sizes := faultAxes()
	cells := len(l1s) * len(l2Sizes)
	mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() ([]harness.GeometryPoint, SweepStats) {
		t.Helper()
		coord := chaosCoordinator(faultnet.New(1, nil, &faultnet.Rule{Name: "fleet-down", ErrRate: 1}), w0.URL, w1.URL)
		coord.FallbackLocal = true
		coord.Memo = mc
		points, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
		if err != nil {
			t.Fatalf("fallback did not rescue the dead fleet: %v", err)
		}
		return points, stats
	}

	cold, s1 := sweep()
	if s1.FallbackShards == 0 {
		t.Fatalf("no shards went through the fallback: %+v", s1)
	}
	if mc.Len() != cells {
		t.Fatalf("memo holds %d cells after the rescued sweep, want %d", mc.Len(), cells)
	}
	warm, s2 := sweep()
	if s2.MemoHits != cells || s2.MemoMisses != 0 || s2.FallbackShards != 0 {
		t.Errorf("second sweep: %d hits, %d misses, %d fallback shards; want %d, 0, 0",
			s2.MemoHits, s2.MemoMisses, s2.FallbackShards, cells)
	}
	if !reflect.DeepEqual(warm, cold) || !reflect.DeepEqual(cold, localBaseline(t)) {
		t.Fatal("memo-served sweep differs from the rescued sweep or from local")
	}
}

// TestChaosPermanentErrorFailsFast: an injected 4xx is a permanent
// failure — the sweep must abort with the classification in the error,
// without dropping workers or burning the retry budget.
func TestChaosPermanentErrorFailsFast(t *testing.T) {
	w0, w1 := goodWorker(t), goodWorker(t)
	ft := faultnet.New(1, nil, &faultnet.Rule{Name: "reject", StatusRate: 1, Status: http.StatusBadRequest})
	coord := chaosCoordinator(ft, w0.URL, w1.URL)
	l1s, l2Sizes := faultAxes()

	_, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err == nil || !strings.Contains(err.Error(), "permanent") {
		t.Fatalf("want a permanent-classified failure, got %v", err)
	}
	if stats.DeadWorkers != 0 {
		t.Errorf("permanent error blamed on workers: %+v", stats)
	}
	if stats.Retries != 0 {
		t.Errorf("permanent error was retried %d times", stats.Retries)
	}
}

// TestChaosCancellationDuringBackoff: caller cancellation must abort a
// sweep parked in a retry backoff immediately — classified as
// cancellation, not as worker failure — proving the sweep context
// reaches every wait point, not just the in-flight requests.
func TestChaosCancellationDuringBackoff(t *testing.T) {
	w0 := goodWorker(t)
	ft := faultnet.New(1, nil, &faultnet.Rule{Name: "refuse", ErrRate: 1})
	coord := chaosCoordinator(ft, w0.URL)
	coord.RetryBaseDelay = time.Minute // park the retry in backoff
	coord.RetryMaxDelay = time.Minute
	l1s, l2Sizes := faultAxes()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var stats SweepStats
	start := time.Now()
	go func() {
		var err error
		_, stats, err = coord.GeometrySweepWithStats(ctx, faultWorkload, l1s, l2Sizes)
		done <- err
	}()
	// Cancel once the first injected failure has happened — i.e. while
	// the scheduler sits in its minute-long backoff.
	for ft.Injected("refuse") == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not abort the backoff sleep")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
	if stats.DeadWorkers != 0 || len(stats.WorkerFailures) != 0 {
		t.Errorf("cancellation reported as worker failure: %+v", stats)
	}
}

// TestChaosHealthzCarriesProberState pins the worker half of the
// re-admission protocol: /v1/healthz lists resident trace IDs (what
// the prober reconciles the upload cache against) and the in-flight
// shard count.
func TestChaosHealthzCarriesProberState(t *testing.T) {
	w := NewWorker(WorkerConfig{Workers: 1})
	w.mu.Lock()
	w.traces["trace-0002"] = &storedTrace{}
	w.traces["trace-0001"] = &storedTrace{}
	w.mu.Unlock()
	w.inFlight.Add(3)

	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	var hs HealthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &hs); err != nil {
		t.Fatalf("healthz: %v (%s)", err, rec.Body.String())
	}
	if !hs.OK || hs.Traces != 2 {
		t.Errorf("healthz = %+v, want ok with 2 traces", hs)
	}
	if !reflect.DeepEqual(hs.TraceIDs, []string{"trace-0001", "trace-0002"}) {
		t.Errorf("trace IDs = %v, want sorted [trace-0001 trace-0002]", hs.TraceIDs)
	}
	if hs.InFlightShards != 3 {
		t.Errorf("in-flight shards = %d, want 3", hs.InFlightShards)
	}
	if hs.Version.GoVersion == "" {
		t.Error("healthz lost the build identity")
	}
}
