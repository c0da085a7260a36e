package service

// End-to-end acceptance: mp4served-shaped service fronting real
// mp4worker-shaped OS processes. A geometry+policy study submitted
// over HTTP fans out to the fleet, streams per-shard SSE results, has
// one worker killed mid-study, and still produces output byte-identical
// to the local render. Mirrors internal/dist's re-exec harness: the
// test binary doubles as the worker process under SVC_TEST_WORKER=1.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/harness"
)

func TestMain(m *testing.M) {
	if os.Getenv("SVC_TEST_WORKER") == "1" {
		runWorkerProcess()
		return
	}
	os.Exit(m.Run())
}

// runWorkerProcess serves the dist worker protocol on an ephemeral
// loopback port, announces it on stdout, and exits when stdin closes
// (when the parent test dies). SVC_TEST_DIE_ON_REPLAY=1 makes the
// process kill itself on its first replay request — the mid-study
// worker-death harness.
func runWorkerProcess() {
	w := dist.NewWorker(dist.WorkerConfig{Workers: 2})
	var handler http.Handler = w.Handler()
	if os.Getenv("SVC_TEST_DIE_ON_REPLAY") == "1" {
		inner := handler
		handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/replay" {
				os.Exit(1)
			}
			inner.ServeHTTP(rw, r)
		})
	}
	srv := httptest.NewServer(handler)
	fmt.Printf("WORKER %s\n", srv.URL)
	io.Copy(io.Discard, os.Stdin)
	srv.Close()
}

// spawnFleetWorker launches one worker OS process and returns its base
// URL. The worker dies with the test via its stdin pipe.
func spawnFleetWorker(t *testing.T, extraEnv ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(append(os.Environ(), "SVC_TEST_WORKER=1"), extraEnv...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer deadline.Stop()
	for sc.Scan() {
		if u, ok := strings.CutPrefix(sc.Text(), "WORKER "); ok {
			return u
		}
	}
	t.Fatal("worker never announced its address")
	return ""
}

// fastFleet tunes the coordinator for test-speed failover.
func fastFleet(urls []string) *FleetConfig {
	return &FleetConfig{
		Workers:         urls,
		MaxAttempts:     6,
		RetryBaseDelay:  5 * time.Millisecond,
		RetryMaxDelay:   50 * time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		HealthInterval:  25 * time.Millisecond,
	}
}

// TestE2EServiceFleetStudySurvivesWorkerDeath is the PR's acceptance
// test: a study served over HTTP by a fleet-backed service, streaming
// SSE shard results, with one of two real worker processes dying on
// its first replay — and output byte-identical to the local render.
func TestE2EServiceFleetStudySurvivesWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and encodes workloads")
	}
	victim := spawnFleetWorker(t, "SVC_TEST_DIE_ON_REPLAY=1")
	healthy := spawnFleetWorker(t)
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, Fleet: fastFleet([]string{victim, healthy})})

	const body = `{"frames": 2, "experiments": [` + smallGeometry + `, {"sweep": "policy", "policies": ["lru", "fifo"], "l2_kb": [512]}]}`
	st := submit(t, ts, body)

	// Consume the live SSE stream end to end.
	resp := openStream(t, ts, st.ID, 0)
	events, _ := readStream(t, resp.Body, 0)
	if len(events) == 0 || events[len(events)-1].Type != EventDone {
		t.Fatalf("fleet study stream: %d events, want a stream ending in done (study error: %q)",
			len(events), getStatus(t, ts, st.ID).Error)
	}
	shardEvents := 0
	workersSeen := map[string]bool{}
	var streamedOutputs []string
	for _, ev := range events {
		switch ev.Type {
		case EventShard:
			if ev.Shard == nil {
				t.Fatal("shard event without shard payload")
			}
			shardEvents++
			workersSeen[ev.Shard.Worker] = true
		case EventExperiment:
			streamedOutputs = append(streamedOutputs, ev.Output)
		}
	}
	if shardEvents == 0 {
		t.Fatal("fleet study emitted no shard events")
	}
	if workersSeen[victim] {
		t.Errorf("die-on-replay worker %s credited with a shard", victim)
	}
	if !workersSeen[healthy] {
		t.Errorf("surviving worker %s not credited with any shard (seen: %v)", healthy, workersSeen)
	}

	// Byte-identical to the local render of the same experiments.
	want := ""
	for _, e := range []harness.ExperimentSpec{
		smallGeometrySpec(),
		{Sweep: "policy", Policies: []string{"lru", "fifo"}, L2KB: []int{512}},
	} {
		out, err := harness.RenderExperiment(context.Background(), nil, e, 2)
		if err != nil {
			t.Fatal(err)
		}
		want += out
	}
	if got := result(t, ts, st.ID); got != want {
		t.Fatalf("fleet study output differs from local render\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if got := strings.Join(streamedOutputs, ""); got != want {
		t.Fatalf("streamed outputs differ from local render\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The fleet monitor eventually reports the dead worker on healthz.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Fleet struct {
				Alive []string `json:"alive"`
				Dead  []string `json:"dead"`
			} `json:"fleet"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		dead := map[string]bool{}
		for _, w := range health.Fleet.Dead {
			dead[w] = true
		}
		if dead[victim] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported the killed worker dead: %+v", health.Fleet)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestE2EServiceFleetMatchesLocalService: the same study through a
// fleet-backed service and a plain local service produces identical
// bytes — the fleet's row replayer is invisible in outputs.
func TestE2EServiceFleetMatchesLocalService(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and encodes workloads")
	}
	urls := []string{spawnFleetWorker(t), spawnFleetWorker(t)}
	_, fleetTS := newTestServer(t, Config{Fleet: fastFleet(urls)})
	_, localTS := newTestServer(t, Config{})

	const body = `{"frames": 2, "experiments": [` + smallGeometry + `]}`
	fleetSt := submit(t, fleetTS, body)
	localSt := submit(t, localTS, body)
	if fin := waitTerminal(t, fleetTS, fleetSt.ID); fin.State != StateDone {
		t.Fatalf("fleet study ended %s: %s", fin.State, fin.Error)
	}
	if fin := waitTerminal(t, localTS, localSt.ID); fin.State != StateDone {
		t.Fatalf("local study ended %s: %s", fin.State, fin.Error)
	}
	fleetOut := result(t, fleetTS, fleetSt.ID)
	localOut := result(t, localTS, localSt.ID)
	if fleetOut != localOut {
		t.Fatalf("fleet and local service outputs differ\n--- fleet ---\n%s\n--- local ---\n%s", fleetOut, localOut)
	}
	if fleetOut == "" {
		t.Fatal("empty study output")
	}
}

// TestE2EServiceMemoSecondStudyReplaysNothing: resubmitting an
// identical study to a fleet-backed service is served entirely from
// the server's shared result memo — zero shards dispatched to any
// worker, no capture and no L1 filter run, every SSE shard event
// attributed to the memo, and output byte-identical to the first run.
func TestE2EServiceMemoSecondStudyReplaysNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and encodes workloads")
	}
	urls := []string{spawnFleetWorker(t), spawnFleetWorker(t)}
	_, ts := newTestServer(t, Config{Fleet: fastFleet(urls)})

	const body = `{"frames": 2, "experiments": [` + smallGeometry + `]}`
	first := submit(t, ts, body)
	if fin := waitTerminal(t, ts, first.ID); fin.State != StateDone {
		t.Fatalf("first study ended %s: %s", fin.State, fin.Error)
	}
	if u := getStatus(t, ts, first.ID).TraceUsage; u.MemoHits != 0 || u.MemoMisses == 0 {
		t.Fatalf("first study memo usage = %d hits / %d misses, want cold misses only", u.MemoHits, u.MemoMisses)
	}

	second := submit(t, ts, body)
	resp := openStream(t, ts, second.ID, 0)
	events, _ := readStream(t, resp.Body, 0)
	shardEvents := 0
	for _, ev := range events {
		if ev.Type != EventShard {
			continue
		}
		shardEvents++
		if ev.Shard.Worker != dist.MemoWorker {
			t.Errorf("second study shard %d served by %q, want %q",
				ev.Shard.Index, ev.Shard.Worker, dist.MemoWorker)
		}
	}
	if shardEvents == 0 {
		t.Fatal("second study emitted no shard events")
	}
	fin := getStatus(t, ts, second.ID)
	if fin.State != StateDone {
		t.Fatalf("second study ended %s: %s", fin.State, fin.Error)
	}
	if u := fin.TraceUsage; u.MemoMisses != 0 || u.MemoHits == 0 || u.Replays != 0 {
		t.Fatalf("second study usage = %+v, want all hits, zero replays", u)
	}
	if u := fin.TraceUsage; u.Traces != 0 || u.L2Traces != 0 {
		t.Fatalf("second study usage = %+v, want no capture and no L1 filter", u)
	}
	if got, want := result(t, ts, second.ID), result(t, ts, first.ID); got != want {
		t.Fatalf("memoized study output differs\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// healthz surfaces the memo's hit rate.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Memo struct {
			Hits    uint64  `json:"hits"`
			HitRate float64 `json:"hit_rate"`
		} `json:"memo"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Memo.Hits == 0 || health.Memo.HitRate <= 0 {
		t.Fatalf("healthz memo = %+v, want nonzero hits and hit rate", health.Memo)
	}
}
