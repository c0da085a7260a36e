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
// bytes at every worker count, in the paper's layout. Every mode runs
// in one replay harness.Study, which carries the memo and the usage
// report, and keeps the paper-machine measurements its tables and
// figures share: a workload that several experiments show is simulated
// once per invocation. -all, -table, -figure, a plain -sweep and
// -manifest all run an experiment list the same way
// (harness.RunExperiments; -all's list is harness.PaperExperiments):
// one farm batch first measures every paper-machine run the list's
// tables and figures read, one job per workload, the largest first
// (the order moves no output byte); then the experiments render in
// list order, and each output is printed once it and every earlier one
// are done.
//
// Multi-machine simulations use trace capture and replay: each
// workload's reference stream is captured once (for the paper's
// same-L1 machines, filtered down to the L2-bound stream) and every
// machine or cache geometry is simulated by replaying the capture —
// counter-identical to live simulation, without re-running the codec.
// Whenever any capture/replay traffic occurred, a summary of capture
// sizes and replay counts is printed to stderr.
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
// sweep renders as it does locally, but its rows replay on a
// dist.Coordinator carried by the run's context
// (harness.WithRowReplayer). The study encodes once; the coordinator
// filters the capture per L1 row, queues each row's small L2-bound
// trace, with one shard of the row's missing L2 sizes, as one batch
// that the next free worker takes, and writes the results into the
// row — identical output to the local sweep, with worker failures
// absorbed by the self-healing scheduler: transient errors retry under
// backoff, repeat offenders are breaker-dropped and their batch goes
// back on the queue, and recovered workers are re-admitted mid-sweep
// by the health prober (see internal/dist).
// -max-attempts bounds the per-batch attempt budget and
// -fallback-local replays undelivered rows locally if the whole fleet
// is lost. A fleet summary (uploads, bytes shipped, failovers,
// retries, breaker trips, readmissions) goes to stderr once the sweep
// ends, failed or not; the fleet sweep's captures, replays and memo
// hits are the run's study's, and the capture/replay summary below
// reports them as it does a local sweep's.
//
// Result memoization is on by default for the replay sweeps: every
// simulated (capture, L1, L2) grid cell's whole-run stats are memoized
// in-process, so repeating or extending a sweep within one invocation
// replays only unseen cells — with byte-identical output, because sweep
// points are a pure function of the memoized stats. -memo-dir persists
// the memo across invocations (entries are keyed by the capture's
// identity and the simulator code version, so stale entries are never
// served); -no-memo disables memoization entirely. A sweep that
// captures its workload names the capture by its provenance (code
// version, workload, direction), so a rerun whose cells are all on
// disk runs no codec; a -trace-in or -trace-out sweep names it by the
// trace's content hash. Local and fleet sweeps run the same planner
// over the same memo, and the capture/replay summary's memo line
// reports the hit rate whenever the memo was consulted, for both.
//
// Batch-manifest mode runs an arbitrary experiment list in list order,
// after the one batch of paper-machine runs described above, and prints
// each output as it is done. The manifest is JSON (the same schema the
// mp4served study service accepts):
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
// The file holds exactly one JSON object, decoded and validated as the
// service decodes and validates a study spec: an unknown field,
// anything but whitespace after the object, an unknown priority or
// frames outside [0, 10000] is an error. Flags override manifest
// settings when given explicitly. Every experiment — including cache
// geometries named in the manifest — is validated before anything
// runs.
//
// -service switches manifest mode from local simulation to the
// mp4served study service: the manifest is POSTed as the study spec it
// is and the result printed — byte-identical
// to the local run. -follow consumes the study's Server-Sent Events
// stream instead of polling: per-shard fleet progress goes to stderr
// live, experiment outputs to stdout in manifest order, and a dropped
// connection resumes via Last-Event-ID without loss or duplication.
// 429 backpressure is waited out per the service's Retry-After header.
// See README "Study service".
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
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
	"repro/internal/service"
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
	manifest := flag.String("manifest", "", "batch-manifest file (JSON); runs its experiment list in order, printing each output as it is done")
	serviceURL := flag.String("service", "", "with -manifest: POST the manifest to this mp4served base URL instead of simulating locally")
	follow := flag.Bool("follow", false, "with -service: stream the study's events (SSE) — shard progress to stderr, outputs to stdout as they complete")
	priority := flag.String("priority", "", "with -service: admission priority, interactive or batch (default batch)")
	authToken := flag.String("auth-token", "", "with -service: send Authorization: Bearer <token>")
	parallel := flag.Int("parallel", 0, "farm worker count (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "report job completions to stderr")
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

	// One study scopes every mode's memo, usage report and
	// measurements, so -all's figures read the runs its tables made.
	study := harness.NewStudy(true)
	if *noMemo && *memoDir != "" {
		fatal(fmt.Errorf("-no-memo and -memo-dir are mutually exclusive"))
	}
	if !*noMemo {
		mc, err := memo.New(memo.Config{Version: harness.CodeVersion, Dir: *memoDir})
		if err != nil {
			fatal(err)
		}
		study.SetMemo(mc)
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
	var fleet *dist.Coordinator
	if *workers != "" {
		if !replaySweep {
			fatal(fmt.Errorf("-workers requires -sweep geometry or -sweep policy"))
		}
		if *traceOut != "" || *traceIn != "" {
			fatal(fmt.Errorf("-workers is incompatible with -trace-out/-trace-in (the coordinator captures and ships per-L1 filtered traces itself)"))
		}
		fleet = &dist.Coordinator{
			Workers:       splitList(*workers),
			MaxAttempts:   *maxAttempts,
			FallbackLocal: *fallbackLocal,
		}
		if len(fleet.Workers) == 0 {
			fatal(fmt.Errorf("-workers: no worker URLs"))
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
	ctx := harness.WithStudy(context.Background(), study)
	if fleet != nil {
		// The sweep runs in the run's study, whose memo (nil under
		// -no-memo) the planner consults: memo-covered cells dispatch
		// nothing, so with -memo-dir a repeated fleet sweep moves zero
		// bytes and replays zero rows.
		ctx = harness.WithRowReplayer(ctx, fleet.Replayer(func(stats dist.SweepStats) {
			reportFleet(len(fleet.Workers), stats)
		}))
	}
	pool := newPool(*parallel, *progress)

	switch {
	case *serviceURL != "":
		if err := runServiceStudy(ctx, *serviceURL, *manifest, *frames, *priority, *authToken, *follow); err != nil {
			fatal(err)
		}
	case *manifest != "":
		var err error
		if pool, err = runManifest(ctx, *manifest, *frames, *parallel, *progress); err != nil {
			fatal(err)
		}
	case replaySweep && (*traceOut != "" || *traceIn != ""):
		if err := runGeometryTraceIO(ctx, pool, *frames, *traceIn, *traceOut, sweepSpec); err != nil {
			fatal(err)
		}
	default:
		exps := []harness.ExperimentSpec{sweepSpec}
		switch {
		case *all:
			exps = harness.PaperExperiments()
		case *table != 0:
			exps = []harness.ExperimentSpec{{Table: *table}}
		case *figure != 0:
			exps = []harness.ExperimentSpec{{Figure: *figure}}
		}
		if err := runExperiments(ctx, pool, exps, *frames, os.Stdout); err != nil {
			fatal(err)
		}
	}
	reportTraceUsage(study.Usage())
	statusf("total time: %v (%d workers)\n",
		time.Since(start).Round(time.Millisecond), pool.Workers())
	if *metricsOut != "" {
		if err := writeMetricsSnapshot(*metricsOut); err != nil {
			fatal(err)
		}
		statusf("wrote metrics snapshot %s\n", *metricsOut)
	}
}

// reportTraceUsage summarises the capture/replay traffic of the run's
// study: how many reference streams were recorded, their memory cost,
// and how many machine/geometry simulations were served from them. It
// reports whenever the counters are nonzero.
func reportTraceUsage(u harness.TraceUsage) {
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

// reportFleet summarises a fleet sweep on stderr: what it shipped, what
// it survived, and every worker it lost.
func reportFleet(workers int, stats dist.SweepStats) {
	statusf(
		"fleet: %d workers, %d uploads of L1-filtered traces (%.1f MB), %d replay calls, %d failovers, %d workers lost\n",
		workers, stats.Uploads, float64(stats.UploadBytes)/(1<<20),
		stats.Replays, stats.Failovers, stats.DeadWorkers)
	statusf(
		"fleet: %d retries, %d breaker trips, %d health probes, %d readmissions\n",
		stats.Retries, stats.BreakerTrips, stats.Probes, stats.Readmissions)
	if stats.FallbackShards > 0 {
		statusf("fleet: %d shards replayed through the local fallback\n", stats.FallbackShards)
	}
	for _, f := range stats.WorkerFailures {
		statusf("fleet: lost %s\n", f)
	}
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

// readManifest reads the study spec at path with the service's decoder
// and checks it as the service does: exactly one JSON object, naming no
// unknown field, with nothing but whitespace after it, and a valid
// spec.
func readManifest(path string) (service.StudySpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return service.StudySpec{}, err
	}
	defer f.Close()
	spec, err := service.DecodeStudySpec(f)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		return service.StudySpec{}, fmt.Errorf("manifest %s: %w", path, err)
	}
	return spec, nil
}

// runManifest executes a manifest and returns the pool it actually ran
// on. Manifest settings apply only where the corresponding flag was
// not given explicitly (a nonzero -frames/-parallel wins), per the
// "flags override manifest" rule.
func runManifest(ctx context.Context, path string, frames, parallel int, progress bool) (*farm.Pool, error) {
	spec, err := readManifest(path)
	if err != nil {
		return nil, err
	}
	if frames == 0 {
		frames = spec.Frames
	}
	if parallel == 0 {
		parallel = spec.Parallel
	}
	pool := newPool(parallel, progress)
	return pool, runExperiments(ctx, pool, spec.Experiments, frames, os.Stdout)
}

// runExperiments runs exps in the context's study (harness.RunExperiments)
// and writes each output to w once it and every earlier one are done.
func runExperiments(ctx context.Context, pool *farm.Pool, exps []harness.ExperimentSpec, frames int, w io.Writer) error {
	return harness.RunExperiments(ctx, pool, exps, frames,
		func(ctx context.Context, _ int, e harness.ExperimentSpec) (string, error) {
			return harness.RenderExperiment(ctx, pool, e, frames)
		},
		func(_ int, out string) { io.WriteString(w, out) })
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
