package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faultnet"
	"repro/internal/harness"
)

// The service chaos suite attacks the study API from the client side
// with faultnet's seeded fault injection. The service's half of the
// backoff contract is what's under test: overload is signalled with
// 429 + Retry-After (never dropped silently), and client-side network
// chaos — timeouts, refused connections, responses severed mid-body —
// must never corrupt server state: every study the server actually
// accepted still runs to completion, and the API stays fully
// functional for clean clients afterwards.

// TestChaosRetryAfterAdvertisedOnQueueFull: a queue-full rejection
// must carry the configured Retry-After delay so clients know when
// resubmitting is worth trying.
func TestChaosRetryAfterAdvertisedOnQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1, RetryAfter: 7 * time.Second})

	// One accepted study fills the queue (MaxQueued counts everything
	// not yet terminal), so the next submission must be turned away.
	submit(t, ts, `{"frames": 2, "experiments": [`+smallGeometry+`]}`)
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json",
		strings.NewReader(`{"frames": 2, "experiments": [{"sweep": "ratio"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs != 7 {
		t.Fatalf("Retry-After = %q, want %q", ra, "7")
	}

	// The default advertises 5s.
	if got := New(Config{}).cfg.RetryAfter; got != 5*time.Second {
		t.Errorf("default RetryAfter = %v, want 5s", got)
	}
}

// TestChaosClientFaultSoupLeavesServiceConsistent: a client whose
// network injects timeouts, refused connections, and mid-body resets
// hammers the API. Whatever the client experienced, the server must
// end the storm consistent: every submission it acknowledged reaches
// done, nothing wedges, and a clean client gets byte-identical study
// output afterwards.
func TestChaosClientFaultSoupLeavesServiceConsistent(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	ft := faultnet.New(42, nil, &faultnet.Rule{
		Name:        "soup",
		ErrRate:     0.15,
		TimeoutRate: 0.1,
		ResetRate:   0.15,
		ResetAfter:  16,
	})
	chaotic := &http.Client{Transport: ft, Timeout: 10 * time.Second}

	spec := `{"frames": 2, "experiments": [{"sweep": "ratio"}]}`
	var acked []string
	for i := 0; i < 16; i++ {
		switch i % 4 {
		case 0, 1: // submit
			resp, err := chaotic.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(spec))
			if err != nil {
				continue // injected transport fault: client-side loss only
			}
			var st StudyStatus
			decodeErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted && decodeErr == nil && st.ID != "" {
				acked = append(acked, st.ID)
			}
		case 2: // poll the listing
			if resp, err := chaotic.Get(ts.URL + "/v1/studies"); err == nil {
				resp.Body.Close()
			}
		case 3: // health check
			if resp, err := chaotic.Get(ts.URL + "/v1/healthz"); err == nil {
				resp.Body.Close()
			}
		}
	}
	if ft.InjectedTotal() == 0 {
		t.Fatal("fault soup injected nothing — the chaos client ran clean")
	}
	if len(acked) == 0 {
		t.Fatal("no submission survived the soup — rates too hostile to test anything")
	}

	// Every acknowledged study must finish despite the client chaos —
	// faults live in the client's network, not the server's farm.
	for _, id := range acked {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Errorf("study %s ended %s after client chaos: %s", id, st.State, st.Error)
		}
	}

	// The server must be fully usable by a clean client afterwards.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || !health.OK {
		t.Fatalf("healthz after chaos: ok=%v err=%v", health.OK, err)
	}
	resp.Body.Close()

	st := submit(t, ts, `{"frames": 2, "experiments": [`+smallGeometry+`]}`)
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("post-chaos study ended %s: %s", fin.State, fin.Error)
	}
	want, err := harness.RenderExperiment(context.Background(), nil, smallGeometrySpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := result(t, ts, st.ID); got != want {
		t.Fatalf("post-chaos study output differs from local render\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestChaosSubmitRetryLoopObeysContract: a client that follows the
// documented contract — retry transport faults and 429s with backoff,
// treat 4xx as permanent — always lands exactly one accepted study per
// logical submission, even when the first attempts are eaten by the
// fault transport before reaching the server.
func TestChaosSubmitRetryLoopObeysContract(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// ErrRate faults fire before the request is sent, so retrying them
	// cannot double-submit; FailFirst makes the schedule deterministic.
	ft := faultnet.New(7, nil, &faultnet.Rule{Name: "flaky", FailFirst: 3})
	client := &http.Client{Transport: ft}

	var accepted *StudyStatus
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := client.Post(ts.URL+"/v1/studies", "application/json",
			strings.NewReader(`{"frames": 2, "experiments": [{"sweep": "ratio"}]}`))
		if err != nil {
			time.Sleep(time.Millisecond) // contract: back off, retry
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			var st StudyStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			accepted = &st
			break
		}
		t.Fatalf("unexpected status %d", resp.StatusCode)
	}
	if accepted == nil {
		t.Fatal("submission never got through after the transport healed")
	}
	if got := ft.Injected("flaky"); got != 3 {
		t.Errorf("injected %d faults before healing, want 3", got)
	}
	if st := waitTerminal(t, ts, accepted.ID); st.State != StateDone {
		t.Fatalf("retried submission ended %s: %s", st.State, st.Error)
	}
	// Exactly one study exists — pre-send faults never double-submit.
	resp, err := http.Get(ts.URL + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Errorf("%d studies after one logical submission, want 1", len(all))
	}
}

// TestChaosServiceFleetFaultSoup extends the chaos suite to the
// service→fleet path: the service fans studies out to in-process dist
// workers through a fault-injecting transport (timeouts, 503 bursts,
// mid-body resets), with the local fallback as the last line. The
// contract: every accepted study reaches done with output
// byte-identical to the local render, every event stream terminates
// with exactly one terminal event, and session quota slots all drain
// back to zero.
func TestChaosServiceFleetFaultSoup(t *testing.T) {
	w1 := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{Workers: 1}).Handler())
	w2 := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{Workers: 1}).Handler())
	t.Cleanup(w1.Close)
	t.Cleanup(w2.Close)
	ft := faultnet.New(23, nil, &faultnet.Rule{
		Name:        "fleet-soup",
		TimeoutRate: 0.1,
		StatusRate:  0.1,
		ResetRate:   0.1,
		ResetAfter:  64,
	})
	svc, ts := newTestServer(t, Config{
		MaxConcurrent: 2,
		Fleet: &FleetConfig{
			Workers:          []string{w1.URL, w2.URL},
			Client:           &http.Client{Transport: ft},
			MaxAttempts:      10,
			BreakerThreshold: 10,
			RetryBaseDelay:   time.Millisecond,
			RetryMaxDelay:    5 * time.Millisecond,
			ProbeInterval:    10 * time.Millisecond,
			HealthInterval:   10 * time.Millisecond,
			FallbackLocal:    true,
			Seed:             23,
		},
	})

	want, err := harness.RenderExperiment(context.Background(), nil, smallGeometrySpec(), 2)
	if err != nil {
		t.Fatal(err)
	}

	const studies = 3
	type outcome struct {
		id     string
		events []StudyEvent
	}
	results := make(chan outcome, studies)
	for i := 0; i < studies; i++ {
		session := fmt.Sprintf("chaos-%d", i)
		go func() {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/studies",
				strings.NewReader(`{"frames": 2, "experiments": [`+smallGeometry+`]}`))
			if err != nil {
				t.Error(err)
				results <- outcome{}
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Session-ID", session)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				results <- outcome{}
				return
			}
			var st StudyStatus
			decodeErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || decodeErr != nil {
				t.Errorf("chaos submit: status %d, decode %v", resp.StatusCode, decodeErr)
				results <- outcome{}
				return
			}
			stream := openStream(t, ts, st.ID, 0)
			events, _ := readStream(t, stream.Body, 0)
			results <- outcome{id: st.ID, events: events}
		}()
	}

	for i := 0; i < studies; i++ {
		oc := <-results
		if oc.id == "" {
			continue // already reported via t.Error
		}
		if len(oc.events) == 0 {
			t.Errorf("study %s streamed no events", oc.id)
			continue
		}
		terminals := 0
		for _, ev := range oc.events {
			if terminalEvent(ev.Type) {
				terminals++
			}
		}
		last := oc.events[len(oc.events)-1]
		if terminals != 1 || !terminalEvent(last.Type) {
			t.Errorf("study %s stream: %d terminal events (last %q), want exactly 1 at the end", oc.id, terminals, last.Type)
		}
		if last.Type != EventDone {
			t.Errorf("study %s ended %q under fleet chaos with fallback enabled: %s", oc.id, last.Type, last.Error)
			continue
		}
		if got := result(t, ts, oc.id); got != want {
			t.Errorf("study %s output differs from local render under fleet chaos", oc.id)
		}
	}
	if ft.InjectedTotal() == 0 {
		t.Error("fleet fault soup injected nothing — rates are not exercising the fleet")
	}

	// Every session's quota slots drained back.
	svc.sessMu.Lock()
	for id, ss := range svc.sessions {
		ss.mu.Lock()
		if ss.active != 0 {
			t.Errorf("session %s still holds %d active-study slots after drain", id, ss.active)
		}
		ss.mu.Unlock()
	}
	svc.sessMu.Unlock()
}
