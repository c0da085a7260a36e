package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/simmem"
)

// The fault-injection suite drives the coordinator against misbehaving
// in-process workers: ones that hang, reject uploads, echo shard
// indices they were never assigned, or die mid-replay. In every case
// the sweep must either complete through the surviving workers with
// results identical to the local sweep, or fail cleanly inside the
// retry budget.

// faultAxes is the compact grid the fault tests sweep: two L1s by two
// L2 sizes so multi-payload failover paths are exercised while the
// simulations stay small.
func faultAxes() ([]cache.Config, []int) {
	return harness.GeometryL1Configs()[:2], []int{512 << 10, 1 << 20}
}

var faultWorkload = harness.Workload{W: 96, H: 80, Frames: 2}

// faultCoordinator returns a coordinator with deadlines tight enough
// that a hung worker costs the test milliseconds, not minutes.
func faultCoordinator(urls ...string) *Coordinator {
	return &Coordinator{
		Workers:       urls,
		UploadTimeout: 500 * time.Millisecond,
		ReplayTimeout: 30 * time.Second,
	}
}

// goodWorker boots a real in-process worker server.
func goodWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// assertSweepMatchesLocal runs the distributed sweep on coord and
// requires results identical to the local sweep of the same axes.
func assertSweepMatchesLocal(t *testing.T, coord *Coordinator) SweepStats {
	t.Helper()
	l1s, l2Sizes := faultAxes()
	distPoints, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatalf("sweep did not survive the fault: %v", err)
	}
	localPoints, err := harness.RunGeometrySweep(faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(distPoints, localPoints) {
		t.Fatalf("failover sweep differs from local\ndist  %+v\nlocal %+v", distPoints, localPoints)
	}
	return stats
}

// TestFailoverHangingWorker: a worker that accepts the TCP connection
// and then never answers must be timed out by the per-attempt deadline
// and its shards re-planned, not stall the sweep forever.
func TestFailoverHangingWorker(t *testing.T) {
	unblock := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the request until the client gives up. The test-owned
		// channel (not just the request context) guarantees the handler
		// returns before Server.Close waits on active connections.
		select {
		case <-r.Context().Done():
		case <-unblock:
		}
	}))
	defer hung.Close()
	defer close(unblock)
	good := goodWorker(t)

	stats := assertSweepMatchesLocal(t, faultCoordinator(hung.URL, good.URL))
	if stats.DeadWorkers != 1 || stats.Failovers == 0 {
		t.Errorf("expected the hung worker dropped and its batches re-planned, got %+v", stats)
	}
}

// TestFailoverUploadRejected: a worker refusing every upload (full
// store, disk pressure, ...) is dropped; the sweep completes on the
// rest.
func TestFailoverUploadRejected(t *testing.T) {
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInsufficientStorage)
		json.NewEncoder(w).Encode(errorBody{Error: "store full"})
	}))
	defer rejecting.Close()
	good := goodWorker(t)

	stats := assertSweepMatchesLocal(t, faultCoordinator(rejecting.URL, good.URL))
	if stats.DeadWorkers != 1 {
		t.Errorf("expected the rejecting worker dropped, got %+v", stats)
	}
}

// TestFailoverWrongShardIndex: a worker echoing back a shard index it
// was never assigned (buggy or stale) must be treated as failed — its
// fabricated points must never reach the merged results.
func TestFailoverWrongShardIndex(t *testing.T) {
	buggy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/traces":
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(TraceInfo{ID: "trace-0001", Kind: KindL2Trace})
		case r.Method == http.MethodPost && r.URL.Path == "/v1/replay":
			json.NewEncoder(w).Encode(ReplayResponse{Results: []ShardResult{{
				Index:  9999,
				Points: []harness.GeometryPoint{{Label: "fabricated"}},
			}}})
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer buggy.Close()
	good := goodWorker(t)

	stats := assertSweepMatchesLocal(t, faultCoordinator(buggy.URL, good.URL))
	if stats.DeadWorkers != 1 {
		t.Errorf("expected the index-scrambling worker dropped, got %+v", stats)
	}
}

// TestFailoverWorkerStripsStats: a worker whose results carry points
// but no stats breaks the protocol — the study would have nothing to
// memoize for its cells. It is barred, its shards fail over to the good
// worker, the sweep equals the local one byte for byte, and the study's
// memo holds every cell with the stats the local sweep memoizes.
func TestFailoverWorkerStripsStats(t *testing.T) {
	target, err := url.Parse(goodWorker(t).URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != "/v1/replay" || resp.StatusCode != http.StatusOK {
			return nil
		}
		var rr ReplayResponse
		err := json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil {
			return err
		}
		for i := range rr.Results {
			rr.Results[i].Stats = nil
		}
		body, err := json.Marshal(rr)
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		return nil
	}
	stripping := httptest.NewServer(proxy)
	defer stripping.Close()
	good := goodWorker(t)

	l1s, l2Sizes := faultAxes()
	ctx, _, distMemo := memoStudy(t)
	distPoints, stats, err := faultCoordinator(stripping.URL, good.URL).GeometrySweepWithStats(ctx, faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _, localMemo := memoStudy(t)
	localPoints, err := harness.RunGeometrySweepPool(ctx, nil, faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats.BarredWorkers, []string{stripping.URL}) {
		t.Errorf("barred workers %v, want the stats-stripping worker %s", stats.BarredWorkers, stripping.URL)
	}
	if got, want := harness.GeometrySweepReport("sweep", distPoints), harness.GeometrySweepReport("sweep", localPoints); got != want {
		t.Fatalf("sweep differs from local\n--- fleet ---\n%s\n--- local ---\n%s", got, want)
	}
	if n := distMemo.Len(); n != len(l1s)*len(l2Sizes) {
		t.Errorf("study memo holds %d cells, want %d", n, len(l1s)*len(l2Sizes))
	}
	id := harness.CaptureProvenance(faultWorkload)
	for _, l1 := range l1s {
		for _, size := range l2Sizes {
			key := harness.GeometryMemoKey(id, l1, size)
			got, ok := distMemo.Get(key)
			want, _ := localMemo.Get(key)
			if !ok || got != want {
				t.Errorf("memo cell %dK L2 under L1 %dK: %+v (present %t), want the local sweep's %+v",
					size>>10, l1.SizeBytes>>10, got, ok, want)
			}
		}
	}
}

// TestFailoverWorkerDiesMidReplay: a worker whose connection drops
// mid-replay (process crash) fails over; the sweep completes on the
// survivor.
func TestFailoverWorkerDiesMidReplay(t *testing.T) {
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/traces" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(TraceInfo{ID: "trace-0001", Kind: KindL2Trace})
			return
		}
		// Crash: sever the TCP connection without an HTTP response.
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server does not support hijacking")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer dying.Close()
	good := goodWorker(t)

	stats := assertSweepMatchesLocal(t, faultCoordinator(dying.URL, good.URL))
	if stats.DeadWorkers != 1 || stats.Failovers == 0 {
		t.Errorf("expected the crashed worker dropped and its batches re-planned, got %+v", stats)
	}
}

// TestSweepFailsWithinBudgetLeavesStoresBounded: when every worker
// rejects every replay, the sweep must fail (bounded, with the worker's
// diagnostic). The traces that landed stay on the workers, and each
// store's own bound keeps repeated failing sweeps from filling it.
func TestSweepFailsWithinBudgetLeavesStoresBounded(t *testing.T) {
	// Both workers are real (uploads land in a real bounded store)
	// wrapped so that every replay fails.
	var workers []*Worker
	var urls []string
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{Workers: 1, MaxTraces: 1})
		inner := w.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/replay" {
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(rw).Encode(errorBody{Error: "replay refused"})
				return
			}
			inner.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		workers = append(workers, w)
		urls = append(urls, srv.URL)
	}

	coord := faultCoordinator(urls...)
	_, l2Sizes := faultAxes()
	// One failing sweep per L1 row: three distinct traces per worker
	// against a store that holds one.
	for _, l1 := range harness.GeometryL1Configs() {
		_, _, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, []cache.Config{l1}, l2Sizes)
		if err == nil {
			t.Fatal("sweep succeeded against workers that refuse every replay")
		}
		if !strings.Contains(err.Error(), "replay refused") {
			t.Errorf("worker diagnostic lost: %v", err)
		}
		for i, w := range workers {
			w.mu.Lock()
			n := len(w.traces)
			w.mu.Unlock()
			if n > 1 {
				t.Errorf("worker %d holds %d traces after a failed sweep, bound 1", i, n)
			}
		}
	}
}

// TestRetryBudgetBoundsAttempts: with many identical failing workers
// and MaxAttempts below the worker count, the sweep gives up after
// MaxAttempts tries of one batch instead of burning the whole fleet.
func TestRetryBudgetBoundsAttempts(t *testing.T) {
	var replays atomic.Int32
	fail := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost && r.URL.Path == "/v1/traces" {
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(TraceInfo{ID: "trace-0001"})
			return
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/replay" {
			replays.Add(1)
		}
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(errorBody{Error: "always failing"})
	})
	var urls []string
	for i := 0; i < 4; i++ {
		srv := httptest.NewServer(fail)
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	coord := faultCoordinator(urls...)
	coord.MaxAttempts = 2
	_, _, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, harness.GeometryL1Configs()[:1], []int{1 << 20})
	if err == nil {
		t.Fatal("sweep succeeded against always-failing workers")
	}
	if !strings.Contains(err.Error(), "attempt budget 2") {
		t.Errorf("error does not carry the retry budget: %v", err)
	}
	if n := replays.Load(); n > 2 {
		t.Errorf("batch was attempted %d times, budget is 2", n)
	}
}

// TestBadAxesRejectedBeforeCapture: invalid sweep axes fail at
// ingress — no encode, no uploads, no workers blamed.
func TestBadAxesRejectedBeforeCapture(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	coord := faultCoordinator(srv.URL)
	for name, run := range map[string]func() error{
		"bad l1": func() error {
			_, _, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload,
				[]cache.Config{{SizeBytes: 31, LineBytes: 7, Ways: 3}}, []int{1 << 20})
			return err
		},
		"bad l2 size": func() error {
			_, _, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload,
				harness.GeometryL1Configs()[:1], []int{12345})
			return err
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "axis") {
			t.Errorf("%s: want an axis ingress error, got %v", name, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("invalid axes reached the worker %d times", n)
	}
}

// TestSweepSurvivesSmallTraceStore: a sweep whose per-L1 payload count
// exceeds a worker's MaxTraces bound must evict the payloads it no
// longer needs and complete — a full store is the sweep's own
// footprint, not a worker fault.
func TestSweepSurvivesSmallTraceStore(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1, MaxTraces: 1}).Handler())
	defer srv.Close()
	coord := faultCoordinator(srv.URL)
	l1s := harness.GeometryL1Configs() // 3 L1 rows → 3 payloads, store holds 1
	l2Sizes := []int{512 << 10, 1 << 20}

	distPoints, stats, err := coord.GeometrySweepWithStats(context.Background(), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatalf("sweep did not survive the bounded store: %v", err)
	}
	if stats.DeadWorkers != 0 {
		t.Errorf("full store blamed on the worker: %+v", stats)
	}
	localPoints, err := harness.RunGeometrySweep(faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(distPoints, localPoints) {
		t.Fatal("bounded-store sweep differs from local")
	}
}

// TestCancellationIsNotWorkerFailure: cancelling the sweep's context
// must surface as a cancellation error, not as phantom worker deaths
// burning the retry budget.
func TestCancellationIsNotWorkerFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	unblock := make(chan struct{})
	inner := NewWorker(WorkerConfig{Workers: 1}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/replay" {
			cancel() // the caller gives up exactly when work starts
			select { // hold until the client aborts (test-owned channel, see TestFailoverHangingWorker)
			case <-r.Context().Done():
			case <-unblock:
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(unblock)

	coord := faultCoordinator(srv.URL, srv.URL)
	l1s, l2Sizes := faultAxes()
	_, stats, err := coord.GeometrySweepWithStats(ctx, faultWorkload, l1s, l2Sizes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want a context.Canceled error, got %v", err)
	}
	if stats.DeadWorkers != 0 || len(stats.WorkerFailures) != 0 {
		t.Errorf("cancellation reported as worker failure: %+v", stats)
	}
}

// TestWorkerL2TraceProtocol covers the worker side of the M4L2 path:
// upload by content type, replay against the embedded L1, the
// L1-mismatch rejection, and the unsupported-content-type rejection.
func TestWorkerL2TraceProtocol(t *testing.T) {
	srv := goodWorker(t)

	capture, err := harness.RecordEncodeIn(simmem.NewSpace(0), faultWorkload)
	if err != nil {
		t.Fatal(err)
	}
	l1 := harness.GeometryL1Configs()[0]
	lt := harness.FilterGeometryL1(context.Background(), capture.Enc, l1)
	var wire bytes.Buffer
	if _, err := lt.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}

	// Any other content type — the full-trace type, what a plain curl
	// sends, a generic binary type — is refused before decoding, for
	// M4L2 and M4TR bytes alike.
	var fullWire bytes.Buffer
	if _, err := capture.Enc.WriteTo(&fullWire); err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{"application/x-m4tr", "application/x-www-form-urlencoded", "application/octet-stream"} {
		for _, body := range [][]byte{wire.Bytes(), fullWire.Bytes()} {
			resp, err := http.Post(srv.URL+"/v1/traces", ct, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("%s upload of %.4s: status %d, want 415", ct, body, resp.StatusCode)
			}
		}
	}

	// Proper M4L2 upload.
	resp, err := http.Post(srv.URL+"/v1/traces", ContentTypeL2Trace, bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var info TraceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.Kind != KindL2Trace {
		t.Fatalf("l2 upload: status %d info %+v", resp.StatusCode, info)
	}
	if info.Records != lt.Events() {
		t.Errorf("l2 upload records %d, want %d events", info.Records, lt.Events())
	}

	postReplay := func(req ReplayRequest) (int, ReplayResponse, string) {
		t.Helper()
		raw, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/replay", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		var rr ReplayResponse
		json.NewDecoder(io.TeeReader(resp.Body, &buf)).Decode(&rr)
		return resp.StatusCode, rr, buf.String()
	}

	// Replay under the matching L1 reproduces the local row.
	l2Sizes := []int{512 << 10, 1 << 20}
	code, rr, body := postReplay(ReplayRequest{TraceID: info.ID, Shards: []Shard{{Index: 0, L1: l1, L2Sizes: l2Sizes}}})
	if code != http.StatusOK {
		t.Fatalf("l2 replay: status %d: %s", code, body)
	}
	want, err := harness.GeometryRowFromL2Trace(context.Background(), lt, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 1 || !reflect.DeepEqual(rr.Results[0].Points, want) {
		t.Fatalf("l2 replay points differ\ngot  %+v\nwant %+v", rr.Results, want)
	}

	// A shard naming any other L1 must be rejected.
	other := harness.GeometryL1Configs()[1]
	code, _, body = postReplay(ReplayRequest{TraceID: info.ID, Shards: []Shard{{Index: 0, L1: other, L2Sizes: l2Sizes}}})
	if code != http.StatusBadRequest || !strings.Contains(body, "does not match") {
		t.Fatalf("mismatched-L1 replay: status %d body %s, want 400 mismatch diagnostic", code, body)
	}
}
