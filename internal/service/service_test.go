package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
)

// smallGeometry is the cheapest experiment that exercises the full
// capture/replay machinery (one CIF encode, two replayed L2 sizes) —
// the tests' workhorse, since the paper-sized tables are expensive
// under -race.
const smallGeometry = `{"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512, 1024]}`

func smallGeometrySpec() harness.ExperimentSpec {
	return harness.ExperimentSpec{
		Sweep: "geometry",
		L1s:   []cache.Config{{SizeBytes: 32 << 10, LineBytes: 32, Ways: 2}},
		L2KB:  []int{512, 1024},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) StudyStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var st StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) StudyStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/studies/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) StudyStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("study %s did not reach a terminal state", id)
	return StudyStatus{}
}

func result(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/studies/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestServiceRunsStudyMatchingLocal: a submitted study streams exactly
// the output a local render of the same experiments produces.
func TestServiceRunsStudyMatchingLocal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, `{"frames": 2, "experiments": [`+smallGeometry+`, {"sweep": "ratio"}]}`)
	if st.Total != 2 || st.State == StateFailed {
		t.Fatalf("unexpected submit status: %+v", st)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("study ended %s: %s", fin.State, fin.Error)
	}
	got := result(t, ts, st.ID)

	want := ""
	for _, e := range []harness.ExperimentSpec{smallGeometrySpec(), {Sweep: "ratio"}} {
		out, err := harness.RenderExperiment(context.Background(), nil, e, 2)
		if err != nil {
			t.Fatal(err)
		}
		want += out
	}
	if got != want {
		t.Fatalf("service output differs from local render\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The study's trace usage is scoped and reported per job.
	if fin.TraceUsage.Zero() {
		t.Fatal("study reported zero trace usage for a replay-mode run")
	}
}

// TestServiceTerminalStudyDropsItsStudy: once a study's run has ended,
// its job keeps the final trace usage, not the harness.Study and the
// measurements it holds.
func TestServiceTerminalStudyDropsItsStudy(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	st := submit(t, ts, tinyStudy)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("study ended %s: %s", fin.State, fin.Error)
	}
	svc.mu.Lock()
	j := svc.jobs[st.ID]
	svc.mu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		dropped := j.study == nil
		j.mu.Unlock()
		if dropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal study still holds its harness.Study")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if u := getStatus(t, ts, st.ID).TraceUsage; u != fin.TraceUsage || u.Zero() {
		t.Fatalf("retired study reports usage %+v, want %+v", u, fin.TraceUsage)
	}
}

// rejectedSubmissions are submission bodies the service must answer
// with 400 before any simulation; they also seed FuzzStudySpec.
var rejectedSubmissions = []struct{ name, body string }{
	{"empty", `{}`},
	{"no kind", `{"experiments": [{}]}`},
	{"two kinds", `{"experiments": [{"table": 2, "figure": 3}]}`},
	{"bad table", `{"experiments": [{"table": 99}]}`},
	{"bad figure", `{"experiments": [{"figure": 9}]}`},
	{"bad sweep", `{"experiments": [{"sweep": "nope"}]}`},
	{"bad json", `{"experiments": [`},
	{"unknown field", `{"experiments": [{"table": 2}], "bogus": 1}`},
	{"removed replay", `{"replay": false, "experiments": [{"table": 1}]}`},
	{"axes on non-sweep", `{"experiments": [{"table": 2, "l2_kb": [512]}]}`},
	{"bad l1 geometry", `{"experiments": [{"sweep": "geometry", "l1": [{"size": 48111, "line": 48, "ways": 3}]}]}`},
	{"bad l2 size", `{"experiments": [{"sweep": "geometry", "l2_kb": [-3]}]}`},
	{"huge l2 size", `{"experiments": [{"sweep": "geometry", "l2_kb": [34359738368]}]}`},
	{"huge l1 geometry", `{"experiments": [{"sweep": "geometry", "l1": [{"size": 35184372088832, "line": 128, "ways": 2}]}]}`},
	{"zero ways geometry", `{"experiments": [{"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 0}]}]}`},
	// Replacement-policy ingress: unknown names and impossible
	// policy/geometry combinations must be 400s, mirroring the
	// cache.TryNew geometry-bounds treatment — never a panic.
	{"unknown policy sweep", `{"experiments": [{"sweep": "policy", "policies": ["mru"]}]}`},
	{"unknown policy axis", `{"experiments": [{"sweep": "geometry", "policies": ["lru", "bogus"]}]}`},
	{"unknown policy in l1", `{"experiments": [{"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2, "policy": "mru"}]}]}`},
	{"policy on non-sweep", `{"experiments": [{"table": 2, "policies": ["lru"]}]}`},
	{"plru non-pow2 l1 axis", `{"experiments": [{"sweep": "geometry", "policies": ["plru"], "l1": [{"size": 98304, "line": 32, "ways": 3}]}]}`},
	// Exactly one JSON value per body: nothing may follow it.
	{"trailing data", `{"experiments":[{"table":1}]} {"junk":`},
	{"trailing value", `{"experiments":[{"table":1}]} {"experiments":[{"table":2}]}`},
}

// TestServiceValidatesSubmissions: malformed specs and invalid
// geometries are rejected with 400 before any simulation starts — in
// particular a bad cache geometry must be an error response, not a
// panicking handler.
func TestServiceValidatesSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range rejectedSubmissions {
		resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, raw)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/studies/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id: status %d (want 404)", resp.StatusCode)
		}
	}
}

// TestServiceSubmitBodyCap: a spec of exactly maxSpecBytes decodes
// whole, and one byte more is a 413 rather than a cut body that fails
// to parse. The padding sits inside the JSON object, so a reader that
// stopped early would see an unterminated value.
func TestServiceSubmitBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(size int) (int, string) {
		t.Helper()
		body := padJSON(`{"experiments":[{"table":1}]}`, size)
		resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	if code, msg := post(maxSpecBytes); code != http.StatusAccepted {
		t.Errorf("spec of exactly %d bytes: status %d (want 202): %s", maxSpecBytes, code, msg)
	}
	if code, msg := post(maxSpecBytes + 1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("spec of %d bytes: status %d (want 413): %s", maxSpecBytes+1, code, msg)
	}
}

// padJSON widens a JSON object to exactly size bytes with whitespace
// before its closing brace.
func padJSON(obj string, size int) []byte {
	body := []byte(obj[:len(obj)-1])
	body = append(body, bytes.Repeat([]byte{' '}, size-len(obj))...)
	return append(body, '}')
}

// TestServicePolicySweep: a policy-sweep study submitted over HTTP —
// the policy axis arriving as manifest data — runs to completion and
// streams exactly the local render of the same spec.
func TestServicePolicySweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := harness.ExperimentSpec{Sweep: "policy", Policies: []string{"lru", "fifo"}, L2KB: []int{512}}
	st := submit(t, ts, `{"frames": 2, "experiments": [{"sweep": "policy", "policies": ["lru", "fifo"], "l2_kb": [512]}]}`)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("policy study ended %s: %s", fin.State, fin.Error)
	}
	got := result(t, ts, st.ID)
	want, err := harness.RenderExperiment(context.Background(), nil, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("service policy sweep differs from local render\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestServiceConcurrentClients: many clients submit studies at once;
// all finish, outputs are intact and every study reports its own
// capture/replay usage. Run under -race in CI.
func TestServiceConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := `{"frames": 2, "experiments": [{"table": 1}, ` + smallGeometry + `]}`
			resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			var st StudyStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			fin := waitTerminal(t, ts, st.ID)
			if fin.State != StateDone {
				errs <- fmt.Errorf("client %d: study %s ended %s: %s", c, st.ID, fin.State, fin.Error)
				return
			}
			if out := result(t, ts, st.ID); !strings.Contains(out, "cache geometry sweep") {
				errs <- fmt.Errorf("client %d: result missing geometry sweep:\n%s", c, out)
				return
			}
			if fin.TraceUsage.Zero() {
				errs <- fmt.Errorf("client %d: study reported zero usage", c)
				return
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServiceResultStreaming: the result endpoint delivers experiment
// outputs incrementally — the first table arrives while the study is
// still running the second.
func TestServiceResultStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, `{"frames": 4, "experiments": [{"table": 1}, {"sweep": "ratio"}]}`)

	resp, err := http.Get(ts.URL + "/v1/studies/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read only up to the first experiment's worth of output, then
	// verify the study is not yet finished (figure 2 is much slower
	// than the static table 1).
	buf := make([]byte, 64)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf), "Table 1.") {
		t.Fatalf("stream does not start with Table 1: %q", buf)
	}
	mid := getStatus(t, ts, st.ID)
	if mid.State == StateDone {
		t.Log("study already done at first read (fast machine); streaming not observable")
	}
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	full := string(buf) + string(rest)
	if !strings.Contains(full, "DRAM stall fraction") {
		t.Fatalf("streamed result missing ratio-sweep output:\n%s", full)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("study ended %s: %s", fin.State, fin.Error)
	}
}

// TestServiceCancellation: cancelling a running study ends it promptly
// with state "cancelled" and a diagnostic line on the result stream.
func TestServiceCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A long-enough study to catch mid-flight; kept small because a
	// cancelled job still drains its in-flight farm cell before the
	// cleanup Shutdown returns.
	st := submit(t, ts, `{"frames": 8, "experiments": [{"sweep": "ratio"}, {"table": 2}, {"table": 4}]}`)
	for getStatus(t, ts, st.ID).State == StateQueued {
		time.Sleep(5 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/studies/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("study ended %s, want cancelled", fin.State)
	}
	if out := result(t, ts, st.ID); !strings.Contains(out, "cancelled") {
		t.Fatalf("result stream does not surface cancellation:\n%s", out)
	}
}

// TestServiceQueueBound: submissions beyond MaxQueued are rejected
// with 429.
func TestServiceQueueBound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 2})
	ids := []string{}
	for i := 0; i < 2; i++ {
		st := submit(t, ts, `{"frames": 6, "experiments": [{"sweep": "ratio"}]}`)
		ids = append(ids, st.ID)
	}
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json",
		strings.NewReader(`{"experiments": [{"table": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit: status %d, want 429", resp.StatusCode)
	}
	for _, id := range ids {
		waitTerminal(t, ts, id)
	}
}

// TestServiceHistoryBound: terminal jobs beyond MaxHistory are pruned
// oldest-first, so a long-lived server stays bounded; recent jobs
// survive.
func TestServiceHistoryBound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxHistory: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		st := submit(t, ts, `{"experiments": [{"table": 1}]}`)
		waitTerminal(t, ts, st.ID)
		ids = append(ids, st.ID)
	}
	// Pruning happens on submit: this one pushes the two oldest out.
	st := submit(t, ts, `{"experiments": [{"table": 1}]}`)
	waitTerminal(t, ts, st.ID)
	for i, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/v1/studies/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("pruned study %d (%s): status %d, want 404", i, id, resp.StatusCode)
		}
	}
	for _, id := range append(ids[2:], st.ID) {
		if got := getStatus(t, ts, id); got.State != StateDone {
			t.Errorf("recent study %s: state %q after prune", id, got.State)
		}
	}
}

// TestServiceGracefulShutdown: Shutdown rejects new work, lets running
// studies and the studies queued behind them finish within the budget,
// and reports clean drain.
func TestServiceGracefulShutdown(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	st := submit(t, ts, `{"frames": 2, "experiments": [{"sweep": "ratio"}]}`)
	queued := submit(t, ts, tinyStudy) // waits for the only slot
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	for _, id := range []string{st.ID, queued.ID} {
		if fin := getStatus(t, ts, id); fin.State != StateDone {
			t.Fatalf("study %s ended %s after graceful drain, want done (%s)", id, fin.State, fin.Error)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json",
		strings.NewReader(`{"experiments": [{"table": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
}

// TestServiceShutdownDeadlineCancels: a shutdown whose deadline
// expires cancels in-flight studies instead of hanging, and fails the
// studies still queued.
func TestServiceShutdownDeadlineCancels(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	st := submit(t, ts, `{"frames": 8, "experiments": [{"sweep": "ratio"}, {"table": 2}, {"table": 4}]}`)
	queued := submit(t, ts, tinyStudy) // waits for the only slot
	for getStatus(t, ts, st.ID).State == StateQueued {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err == nil {
		t.Log("study finished inside the tiny budget (fast machine)")
	}
	fin := getStatus(t, ts, st.ID)
	if fin.State != StateFailed && fin.State != StateDone {
		t.Fatalf("study state %s after forced shutdown", fin.State)
	}
	if fin.State == StateFailed {
		// The only slot stayed busy past the deadline, so the queued
		// study never ran.
		if q := getStatus(t, ts, queued.ID); q.State != StateFailed || q.Error != "cancelled while queued" {
			t.Fatalf("queued study after forced shutdown: %s (%q), want failed (cancelled while queued)", q.State, q.Error)
		}
	}
}

// TestServiceHealth reports queue depth.
func TestServiceHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != true {
		t.Fatalf("health: %+v", h)
	}
}

// TestStudySpecManifestCompatibility: an mp4study batch manifest file
// parses as a service submission unchanged.
func TestStudySpecManifestCompatibility(t *testing.T) {
	manifest := []byte(`{
	  "frames": 6,
	  "parallel": 8,
	  "experiments": [
	    {"table": 2}, {"table": 8},
	    {"figure": 3},
	    {"sweep": "ratio"}, {"sweep": "coloring"}
	  ]
	}`)
	var spec StudySpec
	dec := json.NewDecoder(bytes.NewReader(manifest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("manifest does not parse as a study spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("manifest does not validate as a study spec: %v", err)
	}
	if len(spec.Experiments) != 5 || spec.Frames != 6 {
		t.Fatalf("manifest decoded oddly: %+v", spec)
	}
}
