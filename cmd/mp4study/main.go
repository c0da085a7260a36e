// Command mp4study regenerates the measurement tables and figures of
// "An MPEG-4 Performance Study for non-SIMD, General Purpose
// Architectures" (McKee, Fang, Valero — ISPASS 2003) on the simulated
// SGI platforms.
//
// Usage:
//
//	mp4study -all                 # every table and figure
//	mp4study -all -parallel 8     # same, on 8 farm workers
//	mp4study -table 3             # one table (1–8)
//	mp4study -figure 2            # one figure (2–4)
//	mp4study -frames 12           # longer sequences (slower, same rates)
//	mp4study -manifest jobs.json  # batch-manifest mode (see below)
//	mp4study -manifest jobs.json -service http://svc:8374          # run on mp4served
//	mp4study -manifest jobs.json -service http://svc:8374 -follow  # ... streaming SSE
//	mp4study -manifest jobs.json -service ... -priority interactive
//	mp4study -manifest jobs.json -service ... -auth-token secret
//	mp4study -progress ...        # job completions to stderr
//	mp4study -replay=false ...    # legacy live simulation (no captures)
//	mp4study -sweep geometry      # encode once, replay every cache geometry
//	mp4study -sweep geometry -trace-out enc.m4tr   # ... and keep the capture
//	mp4study -sweep geometry -trace-in enc.m4tr    # sweep a shipped capture
//	mp4study -sweep geometry -workers http://a:8375,http://b:8375
//	                              # ... sharded across an mp4worker fleet
//	mp4study -sweep policy        # encode once, replay every replacement policy
//	mp4study -sweep policy -policy lru,fifo        # ... a chosen subset
//	mp4study -sweep geometry -policy plru          # geometry sweep under PLRU
//	mp4study -sweep geometry -memo-dir ~/.mp4memo  # persist the result memo:
//	                              # a repeated sweep replays nothing
//	mp4study -no-memo ...         # disable result memoization entirely
//	mp4study -cpuprofile p.out    # write pprof profiles
//	mp4study -metrics-out m.json  # dump the metrics registry after the run
//	mp4study -log-level info      # structured-log threshold (default warn)
//
// Experiments run on the internal/farm worker pool; -parallel sets the
// worker count (default GOMAXPROCS). Output is deterministic: the same
// bytes at every worker count, in the paper's layout.
//
// Multi-machine simulations use trace capture and replay by default:
// each workload's reference stream is captured once (for the paper's
// same-L1 machines, filtered down to the L2-bound stream) and every
// machine or cache geometry is simulated by replaying the capture —
// counter-identical to live simulation, without re-running the codec.
// Whenever any capture/replay traffic occurred, a summary of capture
// sizes and replay counts is printed to stderr — including under
// -replay=false, because the geometry sweep is a replay experiment by
// nature (its point is simulating every configuration from one
// capture; -replay=false only switches it to the re-encode baseline,
// and -trace-in/-trace-out always go through captures).
//
// -trace-out writes the geometry sweep's capture in the portable
// versioned wire format of internal/trace; -trace-in replays a
// previously written capture instead of encoding, so one machine can
// encode a workload and any number of machines (or mp4worker
// processes, see internal/dist) can sweep it.
//
// -sweep policy compares replacement policies (LRU, tree-PLRU, FIFO,
// seeded random, LRU+victim buffer) from one capture: the reference
// stream is recorded before any cache, so every policy replays the
// same bytes and the Stats deltas are attributable to the policy
// alone. -policy narrows (or, with -sweep geometry, applies) the
// policy axis; both sweeps compose with -trace-in/-trace-out and
// -workers. At the paper's 2-way geometry the plru row must equal the
// lru row exactly (a 2-way PLRU tree IS true LRU) — a built-in
// cross-check of the policy machinery.
//
// -workers runs the geometry or policy sweep on an mp4worker fleet: the
// coordinator encodes once, filters the capture per L1 configuration,
// ships each L1 row's small L2-bound trace to the workers, and merges
// the sharded results — identical output to the local sweep, with
// worker failures absorbed by the self-healing scheduler: transient
// errors retry under backoff, repeat offenders are breaker-dropped and
// their shards re-planned onto the survivors, and recovered workers
// are re-admitted mid-sweep by the health prober (see internal/dist).
// -max-attempts bounds the per-batch attempt budget and
// -fallback-local replays undelivered shards locally if the whole
// fleet is lost. A fleet summary (uploads, bytes shipped, failovers,
// retries, breaker trips, readmissions, memo hit rate) goes to stderr.
//
// Result memoization is on by default for the replay sweeps: every
// simulated (trace hash, L1, L2) grid cell's whole-run stats are
// memoized in-process, so repeating or extending a sweep within one
// invocation replays only unseen cells — with byte-identical output,
// because sweep points are a pure function of the memoized stats.
// -memo-dir persists the memo across invocations (entries are keyed by
// trace content hash and simulator code version, so stale entries are
// never served); -no-memo disables memoization entirely. Local and
// fleet sweeps share the same memo, and the capture/replay summary
// reports the hit rate whenever the memo was consulted.
//
// Batch-manifest mode runs an arbitrary experiment list concurrently
// and prints the outputs in manifest order. The manifest is JSON (the
// same schema the mp4served study service accepts):
//
//	{
//	  "frames": 6,
//	  "parallel": 8,
//	  "experiments": [
//	    {"table": 2}, {"table": 8},
//	    {"figure": 3},
//	    {"sweep": "ratio"}, {"sweep": "coloring"},
//	    {"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512, 1024]}
//	  ]
//	}
//
// Flags override manifest settings when given explicitly. Every
// experiment — including cache geometries named in the manifest — is
// validated before anything runs.
//
// -service switches manifest mode from local simulation to the
// mp4served study service: the manifest is POSTed as a study spec
// (the schemas are identical) and the result printed — byte-identical
// to the local run. -follow consumes the study's Server-Sent Events
// stream instead of polling: per-shard fleet progress goes to stderr
// live, experiment outputs to stdout in manifest order, and a dropped
// connection resumes via Last-Event-ID without loss or duplication.
// 429 backpressure is waited out per the service's Retry-After header.
// See README "Study service".
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/simmem"
	"repro/internal/trace"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-8)")
	figure := flag.Int("figure", 0, "regenerate one figure (2-4)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	frames := flag.Int("frames", 0, "sequence length in frames (0 = default)")
	sweep := flag.String("sweep", "", "extra experiment: "+strings.Join(harness.Sweeps, " | "))
	policy := flag.String("policy", "", "comma-separated replacement-policy axis (lru|plru|fifo|random|victim); with -sweep geometry or -sweep policy")
	manifest := flag.String("manifest", "", "batch-manifest file (JSON); runs its experiment list")
	serviceURL := flag.String("service", "", "with -manifest: POST the manifest to this mp4served base URL instead of simulating locally")
	follow := flag.Bool("follow", false, "with -service: stream the study's events (SSE) — shard progress to stderr, outputs to stdout as they complete")
	priority := flag.String("priority", "", "with -service: admission priority, interactive or batch (default batch)")
	authToken := flag.String("auth-token", "", "with -service: send Authorization: Bearer <token>")
	parallel := flag.Int("parallel", 0, "farm worker count (0 = GOMAXPROCS)")
	replayWorkers := flag.Int("replay-workers", 0, "goroutines one fused multi-config L2 replay splits its configs across (0 = GOMAXPROCS); single replays always run serially")
	progress := flag.Bool("progress", false, "report job completions to stderr")
	replay := flag.Bool("replay", true, "simulate machines by trace capture and replay (false = legacy live simulation)")
	traceOut := flag.String("trace-out", "", "with -sweep geometry: write the encode capture to this file (portable wire format)")
	traceIn := flag.String("trace-in", "", "with -sweep geometry: replay this capture file instead of encoding")
	workers := flag.String("workers", "", "with -sweep geometry: comma-separated mp4worker base URLs; shards the sweep across the fleet")
	memoDir := flag.String("memo-dir", "", "persist the result memo to this directory (repeated sweeps replay only unseen cells)")
	noMemo := flag.Bool("no-memo", false, "disable result memoization (default: in-memory memo)")
	maxAttempts := flag.Int("max-attempts", 0, "with -workers: per-shard-batch attempt budget, counting retries and failovers (0 = coordinator default)")
	fallbackLocal := flag.Bool("fallback-local", false, "with -workers: replay undelivered shards locally if the whole fleet is lost, instead of failing the sweep")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsOut := flag.String("metrics-out", "", "write the metrics-registry snapshot (JSON) to this file on exit")
	logLevel := flag.String("log-level", "warn", "structured-log threshold: debug, info, warn, error")
	flag.Parse()
	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	obs.SetLogLevel(lvl)
	trace.SetReplayWorkers(*replayWorkers)
	replayFlagSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "replay" {
			replayFlagSet = true
		}
	})

	harness.SetReplayEnabled(*replay)
	if *noMemo && *memoDir != "" {
		fatal(fmt.Errorf("-no-memo and -memo-dir are mutually exclusive"))
	}
	if !*noMemo {
		mc, err := memo.New(memo.Config{Version: harness.CodeVersion, Dir: *memoDir})
		if err != nil {
			fatal(err)
		}
		harness.SetMemo(mc)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		addProfileFlush(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memprofile != "" {
		path := *memprofile
		addProfileFlush(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mp4study: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mp4study: memprofile:", err)
			}
		})
	}
	defer flushProfiles()

	modes := 0
	for _, set := range []bool{*all, *table != 0, *figure != 0, *sweep != "", *manifest != ""} {
		if set {
			modes++
		}
	}
	if modes == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if modes > 1 {
		fatal(fmt.Errorf("choose exactly one of -all, -table, -figure, -sweep, -manifest"))
	}
	replaySweep := *sweep == "geometry" || *sweep == "policy"
	if (*traceOut != "" || *traceIn != "") && !replaySweep {
		fatal(fmt.Errorf("-trace-out/-trace-in require -sweep geometry or -sweep policy"))
	}
	if *policy != "" && !replaySweep {
		fatal(fmt.Errorf("-policy requires -sweep geometry or -sweep policy"))
	}
	if *workers != "" {
		if !replaySweep {
			fatal(fmt.Errorf("-workers requires -sweep geometry or -sweep policy"))
		}
		if *traceOut != "" || *traceIn != "" {
			fatal(fmt.Errorf("-workers is incompatible with -trace-out/-trace-in (the coordinator captures and ships per-L1 filtered traces itself)"))
		}
	}
	if (*maxAttempts != 0 || *fallbackLocal) && *workers == "" {
		fatal(fmt.Errorf("-max-attempts/-fallback-local require -workers"))
	}
	if *serviceURL != "" && *manifest == "" {
		fatal(fmt.Errorf("-service requires -manifest (the manifest is the study spec)"))
	}
	if (*follow || *priority != "" || *authToken != "") && *serviceURL == "" {
		fatal(fmt.Errorf("-follow/-priority/-auth-token require -service"))
	}
	// The sweep spec carries the policy axis; validating it up front
	// turns a typo'd -policy into a flag error, not a mid-sweep one.
	sweepSpec := harness.ExperimentSpec{Sweep: *sweep, Policies: splitList(*policy)}
	if *sweep != "" {
		if err := sweepSpec.Validate(); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	ctx := context.Background()
	pool := newPool(*parallel, *progress)

	switch {
	case *serviceURL != "":
		if err := runServiceStudy(ctx, *serviceURL, *manifest, *frames, *priority, *authToken, *follow, replayFlagSet, *replay); err != nil {
			fatal(err)
		}
	case *manifest != "":
		var err error
		if pool, err = runManifest(ctx, *manifest, *frames, *parallel, *progress, replayFlagSet); err != nil {
			fatal(err)
		}
	case *all:
		if err := runAll(ctx, pool, *frames); err != nil {
			fatal(err)
		}
	case *table != 0:
		if err := printExperiment(ctx, pool, harness.ExperimentSpec{Table: *table}, *frames); err != nil {
			fatal(err)
		}
	case *figure != 0:
		if err := printExperiment(ctx, pool, harness.ExperimentSpec{Figure: *figure}, *frames); err != nil {
			fatal(err)
		}
	case replaySweep && *workers != "":
		if err := runGeometryFleet(ctx, *frames, *workers, *maxAttempts, *fallbackLocal, sweepSpec); err != nil {
			fatal(err)
		}
	case replaySweep && (*traceOut != "" || *traceIn != ""):
		if err := runGeometryTraceIO(ctx, pool, *frames, *traceIn, *traceOut, sweepSpec); err != nil {
			fatal(err)
		}
	case *sweep != "":
		if err := printExperiment(ctx, pool, sweepSpec, *frames); err != nil {
			fatal(err)
		}
	}
	reportTraceUsage()
	statusf("total time: %v (%d workers)\n",
		time.Since(start).Round(time.Millisecond), pool.Workers())
	if *metricsOut != "" {
		if err := writeMetricsSnapshot(*metricsOut); err != nil {
			fatal(err)
		}
		statusf("wrote metrics snapshot %s\n", *metricsOut)
	}
}

// reportTraceUsage summarises the capture/replay traffic of the run:
// how many reference streams were recorded, their memory cost, and how
// many machine/geometry simulations were served from them. It reports
// whenever the counters are nonzero, whatever the -replay flag said —
// the geometry sweep and the trace-file paths capture regardless.
func reportTraceUsage() {
	u := harness.TraceUsageSnapshot()
	if u.Zero() {
		return
	}
	statusf(
		"traces: %d full (%d records, %.1f MB), %d L1-filtered (%d events, %.1f MB); %d replays\n",
		u.Traces, u.TraceRecords, float64(u.TraceBytes)/(1<<20),
		u.L2Traces, u.L2Events, float64(u.L2Bytes)/(1<<20), u.Replays)
	if total := u.MemoHits + u.MemoMisses; total > 0 {
		statusf("memo: %d/%d cells served from the result memo (%.0f%% hit rate)\n",
			u.MemoHits, total, 100*float64(u.MemoHits)/float64(total))
	}
}

// splitList parses a comma-separated flag value, dropping empty
// entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// runGeometryTraceIO is the portable-capture path of the geometry and
// policy sweeps: the capture comes from a trace file (-trace-in) or
// from one local encode, is optionally written out (-trace-out), and
// the sweep replays it — a full capture is policy-agnostic, so one
// shipped file answers every policy. The sweep output is identical to
// the same sweep without the flags.
func runGeometryTraceIO(ctx context.Context, pool *farm.Pool, frames int, traceIn, traceOut string, spec harness.ExperimentSpec) error {
	var tr *trace.Trace
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		tr, err = trace.ReadTrace(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", traceIn, err)
		}
		statusf("replaying capture %s: %s\n", traceIn, tr)
	} else {
		wl := harness.Workload{W: 352, H: 288, Frames: frames}
		capture, err := harness.RecordEncodeCtx(ctx, simmem.NewSpace(0), wl)
		if err != nil {
			return err
		}
		tr = capture.Enc
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		n, err := tr.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", traceOut, err)
		}
		statusf("wrote capture %s: %s as %.1f MB on the wire\n",
			traceOut, tr, float64(n)/(1<<20))
	}
	l1s, l2Sizes, err := spec.SweepAxes()
	if err != nil {
		return err
	}
	points, err := harness.RunGeometrySweepFromTrace(ctx, pool, tr, l1s, l2Sizes)
	if err != nil {
		return err
	}
	fmt.Print(harness.GeometrySweepReport(harness.SweepTitle(spec.Sweep, true), points))
	return nil
}

// runGeometryFleet is the distributed-fleet path of the geometry and
// policy sweeps: one mp4study process coordinates, the named mp4worker
// processes simulate (the policy axis rides inside each shard's L1
// config). The printed sweep is identical to the local one; the fleet
// accounting goes to stderr.
func runGeometryFleet(ctx context.Context, frames int, workers string, maxAttempts int, fallbackLocal bool, spec harness.ExperimentSpec) error {
	urls := splitList(workers)
	if len(urls) == 0 {
		return fmt.Errorf("-workers: no worker URLs")
	}
	coord := &dist.Coordinator{
		Workers:       urls,
		MaxAttempts:   maxAttempts,
		FallbackLocal: fallbackLocal,
		// The default study's memo (nil under -no-memo): memo-covered
		// cells dispatch nothing, replayed cells are memoized — so with
		// -memo-dir, a repeated fleet sweep moves zero bytes and replays
		// zero shards.
		Memo: harness.Memo(),
	}
	wl := harness.Workload{W: 352, H: 288, Frames: frames}
	l1s, l2Sizes, err := spec.SweepAxes()
	if err != nil {
		return err
	}
	points, stats, err := coord.GeometrySweepWithStats(ctx, wl, l1s, l2Sizes)
	if err != nil {
		return err
	}
	shipped := "full trace"
	if stats.L2Shipped {
		shipped = "L1-filtered traces"
	}
	statusf(
		"fleet: %d workers, %d uploads of %s (%.1f MB), %d replay calls, %d failovers, %d workers lost\n",
		len(urls), stats.Uploads, shipped, float64(stats.UploadBytes)/(1<<20),
		stats.Replays, stats.Failovers, stats.DeadWorkers)
	statusf(
		"fleet: %d retries, %d breaker trips, %d health probes, %d readmissions\n",
		stats.Retries, stats.BreakerTrips, stats.Probes, stats.Readmissions)
	if total := stats.MemoHits + stats.MemoMisses; total > 0 {
		statusf("fleet: memo %d/%d cells served (%.0f%% hit rate)\n",
			stats.MemoHits, total, 100*float64(stats.MemoHits)/float64(total))
	}
	if stats.FallbackShards > 0 {
		statusf("fleet: %d shards replayed through the local fallback\n", stats.FallbackShards)
	}
	for _, f := range stats.WorkerFailures {
		statusf("fleet: lost %s\n", f)
	}
	fmt.Print(harness.GeometrySweepReport(harness.SweepTitle(spec.Sweep, true), points))
	return nil
}

// runAll regenerates every table and figure in paper order. Tables 2–7
// fan out through harness.RunTables at workload granularity (encode and
// decode tables of the same configuration share one capture), Table 8
// and Figure 2 fan out through their own pool paths, and Figures 3 and
// 4 — two views of one object/layer sweep — share a single sweep run.
func runAll(ctx context.Context, pool *farm.Pool, frames int) error {
	fmt.Print(harness.Table1() + "\n")
	tabs, err := harness.RunTables(ctx, pool, harness.TableSpecs(), frames)
	if err != nil {
		return err
	}
	for _, tab := range tabs {
		fmt.Print(tab.String() + "\n")
	}
	for _, e := range []harness.ExperimentSpec{{Table: 8}, {Figure: 2}} {
		if err := printExperiment(ctx, pool, e, frames); err != nil {
			return err
		}
	}
	points, err := harness.RunObjectSweepPool(ctx, pool, frames)
	if err != nil {
		return err
	}
	var sb strings.Builder
	for _, s := range harness.Figure3Series(points) {
		s.Write(&sb)
		sb.WriteString("\n")
	}
	for _, s := range harness.Figure4Series(points) {
		s.Write(&sb)
		sb.WriteString("\n")
	}
	fmt.Print(sb.String())
	return nil
}

func newPool(workers int, progress bool) *farm.Pool {
	cfg := farm.Config{Workers: workers}
	if progress {
		cfg.Progress = func(ev farm.Event) {
			status := "done"
			if ev.Err != nil {
				status = "FAIL: " + ev.Err.Error()
			}
			statusf("[%d/%d] %s %s\n", ev.Done, ev.Total, ev.Label, status)
		}
	}
	return farm.New(cfg)
}

// manifestFile is the batch-manifest schema — a superset of what the
// mp4served study service accepts, so manifests can be POSTed to the
// service unchanged.
type manifestFile struct {
	Frames      int                      `json:"frames"`
	Parallel    int                      `json:"parallel"`
	Replay      *bool                    `json:"replay,omitempty"`
	Experiments []harness.ExperimentSpec `json:"experiments"`
	// Priority is the service admission priority (interactive|batch);
	// local manifest mode ignores it.
	Priority string `json:"priority,omitempty"`
}

// runManifest executes a manifest and returns the pool it actually ran
// on. Manifest settings apply only where the corresponding flag was
// not given explicitly (frames/parallel: flag nonzero wins; replay:
// detected via flag.Visit), per the "flags override manifest" rule.
func runManifest(ctx context.Context, path string, frames, parallel int, progress, replayFlagSet bool) (*farm.Pool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifestFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if len(mf.Experiments) == 0 {
		return nil, fmt.Errorf("manifest %s: no experiments", path)
	}
	for i, e := range mf.Experiments {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("manifest %s: experiment %d: %w", path, i, err)
		}
	}
	if mf.Replay != nil && !replayFlagSet {
		harness.SetReplayEnabled(*mf.Replay)
	}
	if frames == 0 {
		frames = mf.Frames
	}
	if parallel == 0 {
		parallel = mf.Parallel
	}
	pool := newPool(parallel, progress)
	return pool, runBatch(ctx, pool, mf.Experiments, frames)
}

// runBatch executes the experiment list on the pool — one farm job per
// experiment, each internally serial — and prints the rendered outputs
// in manifest order once all complete.
func runBatch(ctx context.Context, pool *farm.Pool, exps []harness.ExperimentSpec, frames int) error {
	jobs := make([]farm.Job[string], len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = farm.Job[string]{
			Label: e.Label(),
			Run: func(ctx context.Context, env farm.Env) (string, error) {
				return harness.RenderExperiment(ctx, farm.Serial(), e, frames)
			},
		}
	}
	outputs, err := farm.Run(ctx, pool, jobs)
	if err != nil {
		return err
	}
	for _, out := range outputs {
		fmt.Print(out)
	}
	return nil
}

// printExperiment runs one experiment with its internal fan-out on the
// pool and prints it.
func printExperiment(ctx context.Context, pool *farm.Pool, e harness.ExperimentSpec, frames int) error {
	out, err := harness.RenderExperiment(ctx, pool, e, frames)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// profileFlushes holds the -cpuprofile/-memprofile finalizers. They
// run on normal exit (deferred in main) AND from fatal, so profiles of
// failing runs — the case profiling exists for — are still written.
var profileFlushes []func()

func addProfileFlush(f func()) { profileFlushes = append(profileFlushes, f) }

func flushProfiles() {
	for _, f := range profileFlushes {
		f()
	}
	profileFlushes = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mp4study:", err)
	flushProfiles()
	os.Exit(1)
}
