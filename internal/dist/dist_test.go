package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// TestMain doubles as the worker-process entry point: the end-to-end
// tests re-exec this test binary with DIST_TEST_WORKER=1 to get real,
// separate worker OS processes (not just goroutines), which is the
// shape the coordinator is built for.
func TestMain(m *testing.M) {
	if os.Getenv("DIST_TEST_WORKER") == "1" {
		runWorkerProcess()
		return
	}
	os.Exit(m.Run())
}

// runWorkerProcess serves the worker protocol on an ephemeral loopback
// port, announces the address on stdout, and exits when stdin closes
// (i.e. when the parent test dies — including by panic or kill). With
// DIST_TEST_DIE_ON_REPLAY=1 the process kills itself the moment a
// replay request arrives — the harness for the kill-a-worker e2e
// tests. DIST_TEST_REPLAY_DELAY_MS slows every replay (so a sweep is
// still in progress when a restarted worker comes back), and
// DIST_TEST_ADDR binds a fixed address instead of an ephemeral one —
// retrying while the kernel releases a just-killed predecessor's port
// — which is how the re-admission e2e restarts a worker at the URL the
// coordinator already knows.
func runWorkerProcess() {
	w := NewWorker(WorkerConfig{Workers: 2})
	var handler http.Handler = w.Handler()
	if os.Getenv("DIST_TEST_DIE_ON_REPLAY") == "1" {
		inner := handler
		handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/replay" {
				os.Exit(1)
			}
			inner.ServeHTTP(rw, r)
		})
	}
	if ms, _ := strconv.Atoi(os.Getenv("DIST_TEST_REPLAY_DELAY_MS")); ms > 0 {
		inner := handler
		delay := time.Duration(ms) * time.Millisecond
		handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/replay" {
				time.Sleep(delay)
			}
			inner.ServeHTTP(rw, r)
		})
	}
	if addr := os.Getenv("DIST_TEST_ADDR"); addr != "" {
		var ln net.Listener
		var err error
		for i := 0; i < 100; i++ {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: bind %s: %v\n", addr, err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: handler}
		go srv.Serve(ln)
		fmt.Printf("WORKER http://%s\n", ln.Addr())
		io.Copy(io.Discard, os.Stdin)
		srv.Close()
		return
	}
	srv := httptest.NewServer(handler)
	fmt.Printf("WORKER %s\n", srv.URL)
	io.Copy(io.Discard, os.Stdin)
	srv.Close()
}

// workerProc is a spawned worker OS process the test can watch die
// (Wait) — the handle the kill-and-restart e2e needs beyond the URL.
type workerProc struct {
	url string
	cmd *exec.Cmd
}

// spawnWorkerProc launches one worker process (with optional extra
// environment) and returns its handle. The worker dies with the test
// via its stdin pipe.
func spawnWorkerProc(t *testing.T, extraEnv ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(append(os.Environ(), "DIST_TEST_WORKER=1"), extraEnv...)
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
	url := ""
	for sc.Scan() {
		if u, ok := strings.CutPrefix(sc.Text(), "WORKER "); ok {
			url = u
			break
		}
	}
	deadline.Stop()
	if url == "" {
		t.Fatal("worker never announced its address")
	}
	return &workerProc{url: url, cmd: cmd}
}

// spawnWorker launches one worker process and returns its base URL.
func spawnWorker(t *testing.T, extraEnv ...string) string {
	t.Helper()
	return spawnWorkerProc(t, extraEnv...).url
}

// spawnWorkers launches n worker processes and returns their base
// URLs.
func spawnWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = spawnWorker(t)
	}
	return urls
}

// sweepAxes returns the compact grid the end-to-end tests sweep: two
// L1 configurations by four L2 sizes, enough to exercise multi-shard
// plans on two workers.
func sweepAxes() ([]cache.Config, []int) {
	return harness.GeometryL1Configs()[:2], []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}
}

// TestDistributedSweepMatchesLocalAcrossProcesses is the end-to-end
// acceptance test: a geometry sweep sharded across two real worker
// processes returns results identical — field for field and byte for
// byte — to the local RunGeometrySweep of the same workload and axes.
func TestDistributedSweepMatchesLocalAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	urls := spawnWorkers(t, 2)
	coord := &Coordinator{Workers: urls}
	wl := harness.Workload{W: 160, H: 128, Frames: 2}
	l1s, l2Sizes := sweepAxes()

	distPoints, stats, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Uploads == 0 || stats.UploadBytes == 0 {
		t.Errorf("expected L2-filtered uploads, got stats %+v", stats)
	}
	if stats.DeadWorkers != 0 || stats.Failovers != 0 || stats.Retries != 0 {
		t.Errorf("healthy fleet reported failures: %+v", stats)
	}
	localPoints, err := harness.RunGeometrySweep(wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(distPoints) != len(localPoints) {
		t.Fatalf("%d distributed points vs %d local", len(distPoints), len(localPoints))
	}
	if !reflect.DeepEqual(distPoints, localPoints) {
		for i := range distPoints {
			if !reflect.DeepEqual(distPoints[i], localPoints[i]) {
				t.Fatalf("point %d differs\ndist  %+v\nlocal %+v", i, distPoints[i], localPoints[i])
			}
		}
		t.Fatal("points differ")
	}
	// Byte-identical rendering.
	distText := harness.FormatGeometrySweep("sweep", distPoints)
	localText := harness.FormatGeometrySweep("sweep", localPoints)
	if distText != localText {
		t.Fatalf("rendered sweeps differ\n--- dist ---\n%s\n--- local ---\n%s", distText, localText)
	}
}

// TestDistributedPolicySweepMatchesLocal is the policy-axis
// acceptance test: a replacement-policy sweep — the policy riding
// inside each shard's L1 config, no new trace kinds — sharded across
// two real worker processes returns results identical to the local
// sweep, and the policies measurably diverge (one capture, differing
// Stats per policy).
func TestDistributedPolicySweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	urls := spawnWorkers(t, 2)
	coord := &Coordinator{Workers: urls}
	wl := harness.Workload{W: 160, H: 128, Frames: 2}
	l1s := harness.PolicyAxisConfigs([]cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyRandom})
	l2Sizes := []int{512 << 10, 1 << 20}

	distPoints, stats, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Uploads == 0 {
		t.Errorf("expected per-policy L2-filtered uploads, got stats %+v", stats)
	}
	localPoints, err := harness.RunGeometrySweep(wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(distPoints, localPoints) {
		t.Fatalf("policy sweep differs from local\ndist  %+v\nlocal %+v", distPoints, localPoints)
	}
	// The axis must measure something: same capture, same geometry,
	// different replacement policy, different counters.
	byPolicy := map[cache.Policy]cache.Stats{}
	for _, pt := range distPoints {
		if pt.L2.SizeBytes == 512<<10 {
			byPolicy[pt.L1.Policy] = pt.Encode.Raw
		}
	}
	if len(byPolicy) != 3 {
		t.Fatalf("expected 3 policy rows at 512KB, got %d", len(byPolicy))
	}
	if byPolicy[cache.PolicyFIFO] == byPolicy[cache.PolicyLRU] {
		t.Error("fifo stats identical to lru — policy did not reach the workers")
	}
	if byPolicy[cache.PolicyRandom] == byPolicy[cache.PolicyLRU] {
		t.Error("random stats identical to lru — policy did not reach the workers")
	}
}

// TestWorkerPolicyIngress: unknown policy names in a shard are a 400,
// and a shard whose L1 policy differs from the one embedded in an
// M4L2 upload is a 400 — the L2-bound stream is a pure function of the
// whole L1 configuration, policy included.
func TestWorkerPolicyIngress(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	defer srv.Close()

	fifoL1 := perf.O2R12K1MB().L1
	fifoL1.Policy = cache.PolicyFIFO
	f := trace.NewL2Filter(fifoL1)
	f.Run(0, 4096, 1, 0)
	var wire bytes.Buffer
	if _, err := f.Trace().WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/traces", ContentTypeL2Trace, bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var info TraceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: HTTP %d", resp.StatusCode)
	}

	post := func(rr ReplayRequest) int {
		body, _ := json.Marshal(rr)
		resp, err := http.Post(srv.URL+"/v1/replay", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	badPolicy := fifoL1
	badPolicy.Policy = "mru"
	if code := post(ReplayRequest{TraceID: info.ID, Shards: []Shard{{L1: badPolicy, L2Sizes: []int{1 << 20}}}}); code != http.StatusBadRequest {
		t.Errorf("unknown policy shard: HTTP %d, want 400", code)
	}
	lruL1 := fifoL1
	lruL1.Policy = cache.PolicyLRU
	if code := post(ReplayRequest{TraceID: info.ID, Shards: []Shard{{L1: lruL1, L2Sizes: []int{1 << 20}}}}); code != http.StatusBadRequest {
		t.Errorf("policy-mismatched shard against fifo-filtered trace: HTTP %d, want 400", code)
	}
	if code := post(ReplayRequest{TraceID: info.ID, Shards: []Shard{{L1: fifoL1, L2Sizes: []int{1 << 20}}}}); code != http.StatusOK {
		t.Errorf("matching policy shard: HTTP %d, want 200", code)
	}

	// "" and "lru" are two spellings of the same cache: a shard naming
	// lru explicitly must match a trace filtered under the default.
	defL1 := perf.O2R12K1MB().L1
	fd := trace.NewL2Filter(defL1)
	fd.Run(0, 4096, 1, 0)
	var defWire bytes.Buffer
	if _, err := fd.Trace().WriteTo(&defWire); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/traces", ContentTypeL2Trace, bytes.NewReader(defWire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var defInfo TraceInfo
	if err := json.NewDecoder(resp.Body).Decode(&defInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	explicitLRU := defL1
	explicitLRU.Policy = cache.PolicyLRU
	if code := post(ReplayRequest{TraceID: defInfo.ID, Shards: []Shard{{L1: explicitLRU, L2Sizes: []int{1 << 20}}}}); code != http.StatusOK {
		t.Errorf("explicit-lru shard against default-policy trace: HTTP %d, want 200", code)
	}
}

// TestDistributedSweepSurvivesKilledWorkerProcess is the failover
// acceptance test at full fidelity: three real worker OS processes,
// one of which kills itself (os.Exit) the moment its first replay
// request arrives — mid-sweep, after accepting its uploads. The
// coordinator must drop the dead worker, re-plan its shards onto the
// two survivors (re-uploading the traces they lack), and still produce
// results identical to the local sweep.
func TestDistributedSweepSurvivesKilledWorkerProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	urls := []string{
		spawnWorker(t, "DIST_TEST_DIE_ON_REPLAY=1"),
		spawnWorker(t),
		spawnWorker(t),
	}
	coord := &Coordinator{Workers: urls}
	wl := harness.Workload{W: 160, H: 128, Frames: 2}
	l1s, l2Sizes := sweepAxes()

	distPoints, stats, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadWorkers != 1 || stats.Failovers == 0 {
		t.Errorf("expected one dead worker and re-planned shards, got stats %+v", stats)
	}
	localPoints, err := harness.RunGeometrySweep(wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(distPoints, localPoints) {
		t.Fatalf("failover sweep differs from local\ndist  %+v\nlocal %+v", distPoints, localPoints)
	}
}

// TestDistributedSweepReadmitsRestartedWorkerProcess is the
// self-healing acceptance test at full fidelity: three real worker OS
// processes, one of which kills itself on its first replay request.
// The test restarts the dead worker at the SAME address mid-sweep
// (the grid has twice as many rows as workers and the two survivors
// are slowed, so rows are still queued), and the coordinator's health
// prober must re-admit it: the sweep completes byte-identical to the
// local sweep, SweepStats records the re-admission, and the restarted
// worker serves post-restart shards.
func TestDistributedSweepReadmitsRestartedWorkerProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	victim := spawnWorkerProc(t, "DIST_TEST_DIE_ON_REPLAY=1")
	survivors := []string{
		spawnWorker(t, "DIST_TEST_REPLAY_DELAY_MS=400"),
		spawnWorker(t, "DIST_TEST_REPLAY_DELAY_MS=400"),
	}
	urls := append([]string{victim.url}, survivors...)
	coord := &Coordinator{
		Workers:         urls,
		MaxAttempts:     5,
		RetryBaseDelay:  5 * time.Millisecond,
		RetryMaxDelay:   25 * time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    2 * time.Second,
	}
	wl := harness.Workload{W: 160, H: 128, Frames: 2}
	_, l2Sizes := sweepAxes()
	// Six rows (three L1s under two policies), one batch each, on three
	// workers: rows are still queued when the restarted worker returns.
	l1s := harness.ExpandPolicyAxis(nil, []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO})

	type sweepResult struct {
		points []harness.GeometryPoint
		stats  SweepStats
		err    error
	}
	failures := func() uint64 { return obs.Default().Snapshot().Counters["dist_worker_failures_total"] }
	failuresBefore := failures()
	done := make(chan sweepResult, 1)
	go func() {
		points, stats, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
		done <- sweepResult{points, stats, err}
	}()

	// The victim os.Exit(1)s on its first replay; restart it at the
	// same address once the coordinator has dropped it, while the slowed
	// survivors keep the sweep in flight. Every batch probes for its
	// trace first, so a restart that beat the drop would let the retry
	// succeed on the victim and re-admission would never run.
	victim.cmd.Wait()
	for deadline := time.Now().Add(30 * time.Second); failures() <= failuresBefore; {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never dropped the killed worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	addr := strings.TrimPrefix(victim.url, "http://")
	restarted := spawnWorkerProc(t, "DIST_TEST_ADDR="+addr)
	if restarted.url != victim.url {
		t.Fatalf("restarted worker came up at %s, want %s", restarted.url, victim.url)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("sweep did not survive the kill-and-restart: %v (stats %+v)", res.err, res.stats)
	}
	if res.stats.DeadWorkers < 1 {
		t.Errorf("the killed worker was never detected: %+v", res.stats)
	}
	if res.stats.Readmissions < 1 {
		t.Errorf("the restarted worker was never re-admitted: %+v", res.stats)
	}
	if res.stats.ShardsByWorker[victim.url] == 0 {
		t.Errorf("the re-admitted worker served no post-restart shards: %+v", res.stats.ShardsByWorker)
	}
	localPoints, err := harness.RunGeometrySweep(wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.points, localPoints) {
		t.Fatalf("re-admission sweep differs from local\ndist  %+v\nlocal %+v", res.points, localPoints)
	}
}

// TestSerializedTraceCounterIdenticalOnPaperMachines is the wire-level
// acceptance test: a capture serialized to the portable format and
// decoded back replays to counter-identical cache.Stats on all three
// paper machines.
func TestSerializedTraceCounterIdenticalOnPaperMachines(t *testing.T) {
	wl := harness.Workload{W: 160, H: 128, Frames: 2}
	capture, err := harness.RecordEncodeIn(simmem.NewSpace(0), wl)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := capture.Enc.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadTrace(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perf.PaperMachines() {
		want := harness.ReplayOn(m, capture.Enc, capture.SS.TotalBytes())
		got := harness.ReplayOn(m, decoded, capture.SS.TotalBytes())
		if want.Whole.Raw != got.Whole.Raw {
			t.Errorf("%s: decoded replay differs\nwant %+v\ngot  %+v", m.Label(), want.Whole.Raw, got.Whole.Raw)
		}
		for name, wp := range want.Phases {
			if gp := got.Phases[name]; gp.Raw != wp.Raw {
				t.Errorf("%s phase %s: %+v != %+v", m.Label(), name, gp.Raw, wp.Raw)
			}
		}
	}
}

// TestWorkerValidatesIngress: corrupt trace uploads and invalid shard
// geometries are 4xx responses with diagnostics, never worker crashes.
func TestWorkerValidatesIngress(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	defer srv.Close()

	post := func(path, ctype string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	// Corrupt trace bodies.
	for _, body := range [][]byte{nil, []byte("garbage"), []byte("M4L2\x07")} {
		if code, msg := post("/v1/traces", ContentTypeL2Trace, body); code != http.StatusBadRequest {
			t.Errorf("corrupt upload %q: status %d (%s), want 400", body, code, msg)
		}
	}

	// A valid trace for the shard tests, filtered through their L1.
	valid := cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 32, Ways: 2}
	code, body := post("/v1/traces", ContentTypeL2Trace, l2Wire(t, 0, 4096, valid))
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var info TraceInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}

	for name, req := range map[string]ReplayRequest{
		"bad l1":       {TraceID: info.ID, Shards: []Shard{{L1: cache.Config{SizeBytes: 31, LineBytes: 7, Ways: 3}, L2Sizes: []int{1 << 20}}}},
		"bad l2 size":  {TraceID: info.ID, Shards: []Shard{{L1: valid, L2Sizes: []int{12345}}}},
		"no l2 sizes":  {TraceID: info.ID, Shards: []Shard{{L1: valid}}},
		"no shards":    {TraceID: info.ID},
		"zero ways l1": {TraceID: info.ID, Shards: []Shard{{L1: cache.Config{SizeBytes: 32 << 10, LineBytes: 32}, L2Sizes: []int{1 << 20}}}},
	} {
		raw, _ := json.Marshal(req)
		if code, msg := post("/v1/replay", "application/json", raw); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, msg)
		}
	}

	// Unknown trace ID.
	raw, _ := json.Marshal(ReplayRequest{TraceID: "trace-9999", Shards: []Shard{{L1: valid, L2Sizes: []int{1 << 20}}}})
	if code, msg := post("/v1/replay", "application/json", raw); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d (%s), want 404", code, msg)
	}

	// A valid request followed by anything but whitespace is a 400.
	raw, _ = json.Marshal(ReplayRequest{TraceID: info.ID, Shards: []Shard{{L1: valid, L2Sizes: []int{1 << 20}}}})
	for _, tail := range []string{` {"junk":`, ` {}`} {
		if code, msg := post("/v1/replay", "application/json", append(append([]byte(nil), raw...), tail...)); code != http.StatusBadRequest {
			t.Errorf("trailing %q: status %d (%s), want 400", tail, code, msg)
		}
	}

	// A request of exactly maxReplayRequestBytes decodes whole; one
	// byte more is a 413, not a cut body. The padding sits inside the
	// JSON object, so a reader that stopped early would see an
	// unterminated value.
	pad := func(size int) []byte {
		body := append([]byte(nil), raw[:len(raw)-1]...)
		body = append(body, bytes.Repeat([]byte{' '}, size-len(raw))...)
		return append(body, '}')
	}
	if code, msg := post("/v1/replay", "application/json", pad(maxReplayRequestBytes)); code != http.StatusOK {
		t.Errorf("request of exactly %d bytes: status %d (%s), want 200", maxReplayRequestBytes, code, msg)
	}
	if code, msg := post("/v1/replay", "application/json", pad(maxReplayRequestBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("request of %d bytes: status %d (%s), want 413", maxReplayRequestBytes+1, code, msg)
	}

	// The valid shard still works after all the rejected ones.
	if code, msg := post("/v1/replay", "application/json", raw); code != http.StatusOK {
		t.Errorf("valid replay after rejects: status %d (%s)", code, msg)
	}
}

// TestWorkerTraceStoreBound: the store is content-addressed, so
// re-uploading resident bytes dedupes instead of consuming a slot; a
// genuinely new trace beyond MaxTraces evicts the least recently used
// one.
func TestWorkerTraceStoreBound(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1, MaxTraces: 1}).Handler())
	defer srv.Close()

	l1 := harness.GeometryL1Configs()[0]
	wireA, wireB := l2Wire(t, 0, 64, l1), l2Wire(t, 1, 64, l1)
	upload := func(wire []byte) (int, TraceInfo) {
		resp, err := http.Post(srv.URL+"/v1/traces", ContentTypeL2Trace, bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info TraceInfo
		json.NewDecoder(resp.Body).Decode(&info)
		return resp.StatusCode, info
	}

	code, info := upload(wireA)
	if code != http.StatusCreated {
		t.Fatalf("first upload: %d", code)
	}
	if code, dup := upload(wireA); code != http.StatusCreated || dup.ID != info.ID {
		t.Fatalf("re-upload of resident bytes: %d id=%q, want dedup 201 with id %q", code, dup.ID, info.ID)
	}
	code, infoB := upload(wireB)
	if code != http.StatusCreated {
		t.Fatalf("distinct trace beyond MaxTraces: %d, want 201", code)
	}
	head := func(id string) int {
		req, _ := http.NewRequest(http.MethodHead, srv.URL+"/v1/traces/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := head(info.ID); code != http.StatusNotFound {
		t.Errorf("HEAD of the evicted trace: %d, want 404", code)
	}
	if code := head(infoB.ID); code != http.StatusOK {
		t.Errorf("HEAD of the new trace: %d, want 200", code)
	}
	if code, dup := upload(wireB); code != http.StatusCreated || dup.ID != infoB.ID {
		t.Fatalf("re-upload of resident bytes: %d id=%q, want dedup 201 with id %q", code, dup.ID, infoB.ID)
	}
}

// l2Wire returns the M4L2 wire bytes of one row access of rowBytes at
// addr, filtered through l1.
func l2Wire(t *testing.T, addr uint64, rowBytes int, l1 cache.Config) []byte {
	t.Helper()
	rec := trace.NewRecorder()
	rec.Run(addr, rowBytes, 1, 0)
	var wire bytes.Buffer
	if _, err := harness.FilterGeometryL1(context.Background(), rec.Finish(), l1).WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestWorkerRejectsOversizeUpload: an upload longer than MaxTraceBytes
// is a 413 wherever the limit cuts it — in the header, the events, a
// mark or the hash trailer — and an upload of exactly the limit is
// stored.
func TestWorkerRejectsOversizeUpload(t *testing.T) {
	capture, err := harness.RecordEncodeIn(simmem.NewSpace(0), harness.Workload{W: 96, H: 80, Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := harness.FilterGeometryL1(context.Background(), capture.Enc, harness.GeometryL1Configs()[0]).WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	size := int64(wire.Len())
	upload := func(limit int64) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(wire.Bytes()))
		req.Header.Set("Content-Type", ContentTypeL2Trace)
		rec := httptest.NewRecorder()
		NewWorker(WorkerConfig{Workers: 1, MaxTraceBytes: limit}).Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	// Every limit short of the upload, the half-size, 40-bytes-short and
	// 1-byte-short cuts among them.
	for limit := int64(1); limit < size; limit++ {
		code, body := upload(limit)
		if want := fmt.Sprintf("trace exceeds %d bytes", limit); code != http.StatusRequestEntityTooLarge || !strings.Contains(body, want) {
			t.Fatalf("%d-byte upload, limit %d: status %d (%s), want 413 %q", size, limit, code, body, want)
		}
	}
	if code, body := upload(size); code != http.StatusCreated {
		t.Fatalf("%d-byte upload at a limit of its size: status %d (%s), want 201", size, code, body)
	}
}

// TestPlanShardsCoversGridInOrder: the shard plan partitions the grid
// into contiguous runs whose flattening is the (L1 outer, L2 inner)
// enumeration.
func TestPlanShardsCoversGridInOrder(t *testing.T) {
	l1s := harness.GeometryL1Configs()
	l2s := harness.GeometryL2Sizes()
	shards := planShards(l1s, l2s)
	var gotL1 []cache.Config
	var gotL2 []int
	for i, sh := range shards {
		if sh.Index != i {
			t.Fatalf("shard %d has index %d", i, sh.Index)
		}
		for range sh.L2Sizes {
			gotL1 = append(gotL1, sh.L1)
		}
		gotL2 = append(gotL2, sh.L2Sizes...)
	}
	var wantL1 []cache.Config
	var wantL2 []int
	for _, l1 := range l1s {
		for _, s := range l2s {
			wantL1 = append(wantL1, l1)
			wantL2 = append(wantL2, s)
		}
	}
	if !reflect.DeepEqual(gotL1, wantL1) || !reflect.DeepEqual(gotL2, wantL2) {
		t.Fatal("shard plan does not flatten to the local enumeration")
	}
}

// TestCoordinatorSurfacesWorkerErrors: a worker returning an error
// fails the sweep with the worker's diagnostic attached.
func TestCoordinatorSurfacesWorkerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/traces" {
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(TraceInfo{ID: "trace-0001"})
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(errorBody{Error: "worker exploded"})
	}))
	defer srv.Close()
	coord := &Coordinator{Workers: []string{srv.URL}}
	_, _, err := coord.GeometrySweepWithStats(context.Background(),
		harness.Workload{W: 96, H: 80, Frames: 2}, nil, []int{1 << 20})
	if err == nil || !strings.Contains(err.Error(), "worker exploded") {
		t.Fatalf("worker error not surfaced: %v", err)
	}
}
