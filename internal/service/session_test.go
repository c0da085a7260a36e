package service

// Tests of the admission-control stack: bearer auth, per-session
// active-study quotas, submission rate limiting, the bounded session
// table, priority scheduling, queued cancellation, and the healthz
// admission report.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/obs"
)

// doJSON sends a request with optional bearer token and session ID and
// returns the response (body unread).
func doJSON(t *testing.T, method, url, token, sessionID, body string) *http.Response {
	t.Helper()
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if sessionID != "" {
		req.Header.Set("X-Session-ID", sessionID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

const tinyStudy = `{"frames": 2, "experiments": [` + smallGeometry + `]}`

func TestServiceBearerAuth(t *testing.T) {
	_, ts := newTestServer(t, Config{AuthToken: "s3cret"})

	// Unauthenticated liveness/introspection stays open.
	for _, path := range []string{"/v1/healthz", "/v1/metrics", "/v1/version"} {
		if resp := doJSON(t, http.MethodGet, ts.URL+path, "", "", ""); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without token: status %d, want 200", path, resp.StatusCode)
		}
	}

	// The study API requires the token.
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "", tinyStudy); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("submit without token: status %d, want 401", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without a WWW-Authenticate challenge")
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies", "wrong", "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("list with wrong token: status %d, want 401", resp.StatusCode)
	}

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "s3cret", "", tinyStudy)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with token: status %d, want 202", resp.StatusCode)
	}
	var st StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}

	// Polling and streaming need the token too.
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies/"+st.ID, "", "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status without token: %d, want 401", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies/"+st.ID+"/events", "", "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("events without token: %d, want 401", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies/"+st.ID, "s3cret", "", "")
		var cur StudyStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == StateDone {
			break
		}
		if cur.State == StateFailed || cur.State == StateCancelled || time.Now().After(deadline) {
			t.Fatalf("authenticated study ended %q", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServiceSessionQuota: one session cannot hold more active studies
// than its quota; other sessions are unaffected; finishing a study
// returns the slot.
func TestServiceSessionQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionMaxActive: 1})

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "alice", tinyStudy)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice #1: status %d, want 202", resp.StatusCode)
	}
	var first StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}

	over := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "alice", tinyStudy)
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: status %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("quota 429 without Retry-After")
	}
	raw, _ := io.ReadAll(over.Body)
	if !strings.Contains(string(raw), "quota") {
		t.Errorf("quota rejection doesn't say so: %s", raw)
	}

	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "bob", tinyStudy); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob while alice is at quota: status %d, want 202", resp.StatusCode)
	}

	// Quota slots come back when the study reaches a terminal state.
	waitTerminal(t, ts, first.ID)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "alice", tinyStudy); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice after her study finished: status %d, want 202", resp.StatusCode)
	}
}

// TestServiceSessionRateLimit: the token bucket rejects a burst beyond
// its capacity with 429 + Retry-After, per session.
func TestServiceSessionRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionRate: 0.01, SessionBurst: 1})

	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "carol", tinyStudy); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "carol", tinyStudy)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate 429 without Retry-After")
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "rate") {
		t.Errorf("rate rejection doesn't say so: %s", raw)
	}

	// The limit is per-session: reads are not limited, and another
	// session still submits freely.
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies", "", "carol", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("rate-limited session GET: status %d, want 200", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/studies", "", "dave", tinyStudy); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other session submit: status %d, want 202", resp.StatusCode)
	}
}

// TestServiceSessionTableBounded: the session table refuses new
// identities at MaxSessions instead of growing without bound.
func TestServiceSessionTableBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2, SessionTTL: time.Hour})

	for _, id := range []string{"s1", "s2"} {
		if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies", "", id, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s: status %d, want 200", id, resp.StatusCode)
		}
	}
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies", "", "s3", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third identity with MaxSessions=2: status %d, want 429", resp.StatusCode)
	}
	// Known identities keep working.
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/studies", "", "s1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("existing session after table-full: status %d, want 200", resp.StatusCode)
	}
}

// runnerFunc adapts a function to the Runner seam so scheduling tests
// can control exactly how long a study holds its slot.
type runnerFunc func(ctx context.Context, e harness.ExperimentSpec) (string, error)

func (f runnerFunc) Render(ctx context.Context, _ *farm.Pool, e harness.ExperimentSpec, _ int, _ EventSink) (string, error) {
	return f(ctx, e)
}

// blockFirstRender returns a runner whose first render blocks until
// release closes (or its study is cancelled); every other render
// returns at once.
func blockFirstRender(release <-chan struct{}) runnerFunc {
	var once sync.Once
	return func(ctx context.Context, e harness.ExperimentSpec) (string, error) {
		block := false
		once.Do(func() { block = true })
		if block {
			select {
			case <-release:
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		return "rendered " + e.Label() + "\n", nil
	}
}

// waitRunning polls until study id is running.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("study %s never started running", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServicePrioritySchedulesInteractiveFirst: with one slot busy and
// a queue of batch studies, an interactive study submitted last still
// runs next, and the batch studies then start in submission order. The
// first study's render blocks on a channel, so every later submission
// is verifiably queued before the slot frees.
func TestServicePrioritySchedulesInteractiveFirst(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 1})
	release := make(chan struct{})
	svc.runner = blockFirstRender(release)

	blocker := submit(t, ts, tinyStudy) // occupies the only slot, blocked
	waitRunning(t, ts, blocker.ID)
	batchSpec := `{"frames": 2, "priority": "batch", "experiments": [` + smallGeometry + `]}`
	batches := []string{submit(t, ts, batchSpec).ID, submit(t, ts, batchSpec).ID, submit(t, ts, batchSpec).ID}
	inter := submit(t, ts, `{"frames": 2, "priority": "interactive", "experiments": [`+smallGeometry+`]}`)
	if inter.Priority != PriorityInteractive {
		t.Fatalf("interactive study reported priority %q", inter.Priority)
	}

	// All four are queued behind the blocked slot before it frees.
	for _, id := range append([]string{inter.ID}, batches...) {
		if st := getStatus(t, ts, id); st.State != StateQueued {
			t.Fatalf("study %s: state %q behind the blocked slot, want queued", id, st.State)
		}
	}
	close(release)

	for _, id := range append([]string{blocker.ID, inter.ID}, batches...) {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("study %s: state %q, want done", id, st.State)
		}
	}
	prev := getStatus(t, ts, inter.ID)
	for _, id := range batches {
		st := getStatus(t, ts, id)
		if st.Started == nil || prev.Started == nil {
			t.Fatal("terminal studies without Started timestamps")
		}
		if !prev.Started.Before(*st.Started) {
			t.Fatalf("%s started %v, not after %s at %v — priority or FIFO order broken",
				id, st.Started, prev.ID, prev.Started)
		}
		prev = st
	}

	// An invalid priority is a validation error.
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json",
		strings.NewReader(`{"priority": "urgent", "experiments": [{"table": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: status %d, want 400", resp.StatusCode)
	}
}

// TestServiceQueuedCancelFreesItsPlace: cancelling a queued study takes
// it out of the queue at once. Two submit-and-cancel rounds behind a
// running study leave the queue empty, the depth gauge where it
// started, and room under MaxQueued for a new submission.
func TestServiceQueuedCancelFreesItsPlace(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 2})
	release := make(chan struct{})
	defer close(release)
	svc.runner = blockFirstRender(release)
	batchDepth := obs.Label("service_queue_depth", "priority", PriorityBatch)
	before := obs.Default().Snapshot().Gauges[batchDepth]

	blocker := submit(t, ts, tinyStudy)
	waitRunning(t, ts, blocker.ID)
	for i := 0; i < 2; i++ {
		st := submit(t, ts, tinyStudy)
		resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/studies/"+st.ID, "", "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d", st.ID, resp.StatusCode)
		}
		if fin := getStatus(t, ts, st.ID); fin.State != StateCancelled {
			t.Fatalf("cancelled study %s: state %q", st.ID, fin.State)
		}
	}

	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", "", "", "")
	var health struct {
		QueueDepth map[string]int `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{PriorityBatch: 0, PriorityInteractive: 0}; !reflect.DeepEqual(health.QueueDepth, want) {
		t.Errorf("queue_depth after cancelling both queued studies = %v, want %v", health.QueueDepth, want)
	}
	if got := obs.Default().Snapshot().Gauges[batchDepth]; got != before {
		t.Errorf("%s = %d after the cancels, want %d", batchDepth, got, before)
	}
	third := submit(t, ts, tinyStudy)
	if st := getStatus(t, ts, third.ID); st.State != StateQueued {
		t.Errorf("third study: state %q behind the blocked slot, want queued", st.State)
	}
}

// TestServiceHealthReportsAdmission: healthz exposes queue depth by
// priority and the session count.
func TestServiceHealthReportsAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	submit(t, ts, tinyStudy) // running
	queued := submit(t, ts, `{"frames": 2, "priority": "interactive", "experiments": [`+smallGeometry+`]}`)

	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", "", "health-probe", "")
	var health struct {
		QueueDepth map[string]int `json:"queue_depth"`
		Sessions   int            `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.QueueDepth == nil {
		t.Fatal("healthz has no queue_depth")
	}
	if health.QueueDepth[PriorityInteractive] != 1 {
		t.Errorf("queue_depth[interactive] = %d, want 1 (map: %v)", health.QueueDepth[PriorityInteractive], health.QueueDepth)
	}
	if health.Sessions == 0 {
		t.Error("healthz reports zero sessions while clients are connected")
	}
	waitTerminal(t, ts, queued.ID)
}
