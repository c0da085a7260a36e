package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// runOptions are one run's settings.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	frames  int // 0 means the workload's own
	outDir  string
}

const (
	// setupRounds is how often a run sets its workload up before its
	// first operation; setup_s is the median of all its set-ups.
	setupRounds = 3
	// minOps is the fewest operations a run times, whatever its length.
	minOps = 2
)

// host identifies the machine and build a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	v := obs.Version()
	commit := v.Revision
	if commit == "" {
		commit = "unknown"
	} else if v.Modified {
		commit += "-dirty"
	}
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

// record is everything one run measured: its inputs, the machine, every
// sample and the metrics derived from them.
type record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Frames    int      `json:"frames"`
	Host      host     `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// SetupS holds every set-up the run timed: the rounds before the
	// first operation and, on fleet-cold, each later operation's new
	// deployment.
	SetupS []float64 `json:"setup_s"`
	// SetupLiveMB is the heap set-up leaves reachable: what the
	// deployment holds between operations. Not gated: for most workloads
	// it is a fraction of a MiB, where any new package variable would
	// read as a regression.
	SetupLiveMB float64   `json:"setup_live_mb"`
	OpS         []float64 `json:"op_s"`
	OpCPUS      []float64 `json:"op_cpu_s"`    // process CPU time per operation
	OpAllocMB   []float64 `json:"op_alloc_mb"` // heap allocated per operation
	FirstS      []float64 `json:"first_result_s"`
	Cells       []int     `json:"cells"`
	// Metrics are the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one; Extra holds what the result
	// line does not carry.
	Metrics metricSet `json:"metrics"`
	Extra   metricSet `json:"extra,omitempty"`
}

// checker decides whether an operation's output is correct: equal to
// the workload's reference when it has one, to the golden digest when
// one applies, and to every other operation of the run.
type checker struct {
	ref, golden, first string
}

func (c *checker) check(out string) error {
	sum := digest(out)
	switch {
	case c.ref != "" && out != c.ref:
		return errors.New("output differs from the in-process render")
	case c.golden != "" && sum != c.golden:
		return fmt.Errorf("output digest %s, golden %s", sum[:12], c.golden[:12])
	case c.first != "" && sum != c.first:
		return errors.New("output differs from the run's first operation")
	}
	c.first = sum
	return nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

//go:embed golden
var goldenFS embed.FS

// goldenDigest returns the committed digest of a workload's output for
// seed 1 at its default frame count, or "" when none applies.
func goldenDigest(w *workload, p params) string {
	if p.seed != 1 || p.frames != w.frames {
		return ""
	}
	raw, err := goldenFS.ReadFile("golden/" + w.name + "-seed1.sha256")
	fields := strings.Fields(string(raw))
	if err != nil || len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// run sets a workload up, times its operations for o.seconds (at least
// minOps of them) and derives the run's metrics. Operation failures are
// counted, never fatal; a set-up failure is.
func run(ctx context.Context, w *workload, o runOptions) (*record, error) {
	p := params{seed: o.seed, frames: o.frames}
	if p.frames == 0 {
		p.frames = w.frames
	}
	rec := &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Frames: p.frames, Host: thisHost(),
	}
	chk := &checker{golden: goldenDigest(w, p)}
	if w.reference != nil {
		ref, err := w.reference(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", w.name, err)
		}
		chk.ref = ref
	}
	var inst instance
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		start := time.Now()
		next, err := w.setup(ctx, p)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	defer inst.close()
	runtime.GC()
	rec.SetupLiveMB = liveMB()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var traced, untraced []float64
	cnt := startCounters()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		setup, err := inst.prepare(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if setup > 0 {
			rec.SetupS = append(rec.SetupS, setup.Seconds())
		}
		runtime.GC()
		// A traced run alternates untraced and traced operations; the
		// difference of their medians is the tracing overhead.
		var t *tracer
		if o.trace && n%2 == 1 {
			t = tr
			t.op = n + 1
		}
		alloc0 := allocatedMB()
		cpu0 := cpuSeconds()
		start := time.Now()
		end := t.begin("op")
		res, err := inst.op(ctx, t)
		if err == nil {
			err = chk.check(res.output)
		}
		end()
		wall := time.Since(start).Seconds()

		rec.Attempted++
		rec.OpS = append(rec.OpS, wall)
		rec.OpCPUS = append(rec.OpCPUS, cpuSeconds()-cpu0)
		rec.OpAllocMB = append(rec.OpAllocMB, allocatedMB()-alloc0)
		if t != nil {
			traced = append(traced, wall)
		} else {
			untraced = append(untraced, wall)
		}
		if err != nil {
			rec.Failed++
			if len(rec.Failures) < 5 {
				rec.Failures = append(rec.Failures, fmt.Sprintf("op %d: %v", n+1, err))
			}
			continue
		}
		rec.FirstS = append(rec.FirstS, res.first)
		rec.Cells = append(rec.Cells, res.cells)
	}
	cnt.stop()
	rec.Correct = rec.Failed == 0

	if !o.trace {
		rec.Metrics, rec.Extra = endToEndMetrics(rec)
		return rec, nil
	}
	// The stage ledger measures the same inputs in every workload's run:
	// the seed's CIF capture at the default length, unless the run sets
	// its own.
	lp := params{seed: o.seed, frames: o.frames}
	if lp.frames == 0 {
		lp.frames = harness.DefaultFrames
	}
	m, err := perLayerMetrics(ctx, w, inst, lp, tr, cnt, rec, traced, untraced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.Metrics = m
	// The record keeps every span name's total self time, so a layer's
	// share of the run reads without the spans file.
	rec.Extra = metricSet{}
	for name, sec := range selfTimes(tr.spans) {
		rec.Extra["self_s."+name] = metric{Value: sec, Unit: "s"}
	}
	return rec, writeSpans(o.outDir, w.name, tr.spans)
}

// endToEndMetrics derives the untraced run's metrics from its samples.
func endToEndMetrics(rec *record) (m, extra metricSet) {
	m, extra = metricSet{}, metricSet{}
	m.set(endToEnd, "setup_s", median(rec.SetupS))
	m.set(endToEnd, "op_p50_s", median(rec.OpS))
	first := median(rec.FirstS)
	if len(rec.FirstS) == 0 {
		first = median(rec.OpS) // no operation delivered anything
	}
	m.set(endToEnd, "first_result_p50_s", first)
	cells := 0
	for _, c := range rec.Cells {
		cells += c
	}
	m.set(endToEnd, "cells_per_s", float64(cells)/total(rec.OpS))
	m.set(endToEnd, "alloc_mb_per_op", median(rec.OpAllocMB))

	extra["ops"] = metric{Value: float64(len(rec.OpS)), Unit: "count"}
	extra["vm_hwm_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	extra["failed_frac"] = metric{Value: float64(rec.Failed) / float64(rec.Attempted), Unit: "ratio"}
	if v, pct, ok := tailPercentile(rec.OpS); ok {
		extra["op_tail_s"] = metric{Value: v, Unit: "s"}
		extra["tail_p"] = metric{Value: pct, Unit: "%"}
	}
	return m, extra
}

// liveMB is the heap the last GC found reachable, in MiB.
func liveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocatedMB is the heap the process has allocated so far, in MiB.
func allocatedMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeRecord stores a run's record under dir, as
// run-<workload>-seed<N>-trace<0|1>.json.
func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	traced := 0
	if rec.Trace {
		traced = 1
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", rec.Workload, rec.Seed, traced)
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
