package harness

import (
	"context"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/memo"
	"repro/internal/perf"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// This file is the record/replay layer of the harness: workloads are
// executed once to capture their memory-reference stream, and machines
// and cache geometries are simulated by replaying the capture. Two
// capture forms exist (see internal/trace):
//
//   - a full Trace replays against any cache geometry;
//   - an L1-filtered L2Trace replays only the L2-bound stream, valid
//     for any L2 behind the same L1 — the shape of the paper's three
//     machines — at a tiny fraction of the cost and memory.
//
// Both reproduce counter-identical Stats to live tracing (asserted by
// the equivalence tests in replay_test.go), so every path below is
// interchangeable with the live Multi-tracer path it replaced.

// Study bundles the per-run simulation policy and accounting: the
// capture/replay strategy, the TraceUsage counters, and the table of
// paper-machine measurements its tables and figures read and encode
// captures its sweeps replay (see measure.go and capture.go). Every run
// belongs to exactly one Study, carried through the context (see
// WithStudy); a run without one gets a fresh Study that nothing shares,
// so every table, figure or sweep rendered there simulates afresh. The
// measurements live as long as the Study; a capture lives until the
// study's last sweep has run (ReleaseCaptures).
//
// The strategy is fixed when the Study is built, and the zero Study
// replays. Replay studies are what every CLI and service request runs;
// a live study (NewStudy(false)) is the oracle the equivalence tests
// compare replay against. Studies
// stay safe for the farm's worker concurrency inside one study (the
// counters are atomics, the measurement table is locked per workload)
// and isolated from each other, so the service runs many unrelated
// studies in one process.
type Study struct {
	live bool
	// memoCache, when set, memoizes per-cell sweep stats by capture
	// identity (see GeometryMemoKey). Nil disables memoization; output
	// is byte-identical either way.
	memoCache atomic.Pointer[memo.Cache]
	measured  measurements
	usage     struct {
		traces, traceRecords, traceBytes atomic.Uint64
		l2Traces, l2Events, l2Bytes      atomic.Uint64
		replays, memoHits, memoMisses    atomic.Uint64
	}
}

// NewStudy returns a Study with zeroed usage counters. replay selects
// the multi-machine strategy for the Study's lifetime: capture and
// replay, or (false) the live path that attaches every hierarchy to
// the codec run — kept as the tests' oracle.
func NewStudy(replay bool) *Study {
	return &Study{live: !replay}
}

// SetMemo attaches a result memo: geometry sweeps consult it per grid
// cell and replay only the misses. Nil detaches. Several studies may
// share one memo cache (the service does — that is what makes a
// resubmitted study incremental).
func (s *Study) SetMemo(m *memo.Cache) { s.memoCache.Store(m) }

// Memo returns the study's memo cache, or nil when memoization is off.
func (s *Study) Memo() *memo.Cache { return s.memoCache.Load() }

// Usage returns the capture/replay counters accumulated by this study.
func (s *Study) Usage() TraceUsage {
	return TraceUsage{
		Traces:       s.usage.traces.Load(),
		TraceRecords: s.usage.traceRecords.Load(),
		TraceBytes:   s.usage.traceBytes.Load(),
		L2Traces:     s.usage.l2Traces.Load(),
		L2Events:     s.usage.l2Events.Load(),
		L2Bytes:      s.usage.l2Bytes.Load(),
		Replays:      s.usage.replays.Load(),
		MemoHits:     s.usage.memoHits.Load(),
		MemoMisses:   s.usage.memoMisses.Load(),
	}
}

// ResetUsage zeroes the study's counters.
func (s *Study) ResetUsage() {
	s.usage.traces.Store(0)
	s.usage.traceRecords.Store(0)
	s.usage.traceBytes.Store(0)
	s.usage.l2Traces.Store(0)
	s.usage.l2Events.Store(0)
	s.usage.l2Bytes.Store(0)
	s.usage.replays.Store(0)
	s.usage.memoHits.Store(0)
	s.usage.memoMisses.Store(0)
}

func (s *Study) noteTrace(t *trace.Trace) {
	s.usage.traces.Add(1)
	s.usage.traceRecords.Add(uint64(t.Records()))
	s.usage.traceBytes.Add(uint64(t.SizeBytes()))
}

func (s *Study) noteL2Trace(t *trace.L2Trace) {
	s.usage.l2Traces.Add(1)
	s.usage.l2Events.Add(uint64(t.Events()))
	s.usage.l2Bytes.Add(uint64(t.SizeBytes()))
}

func (s *Study) noteReplay() { s.usage.replays.Add(1) }

func (s *Study) noteMemoHit()  { s.usage.memoHits.Add(1) }
func (s *Study) noteMemoMiss() { s.usage.memoMisses.Add(1) }

// CountMemo folds externally served memo cells into the study's usage
// — the fleet path consults the memo in the dist coordinator rather
// than through this study's replay seam, and its sweep stats land here
// so TraceUsage reports one coherent hit/miss picture either way.
func (s *Study) CountMemo(hits, misses uint64) {
	s.usage.memoHits.Add(hits)
	s.usage.memoMisses.Add(misses)
}

// studyKey carries the Study through a context.
type studyKey struct{}

// WithStudy returns a context whose harness runs use s for strategy
// selection, usage accounting and shared paper-machine measurements.
// The farm propagates the context into every job, so one WithStudy at
// submission scope covers a whole fanned-out experiment — or, as in
// mp4study and each service study, every experiment of a run.
func WithStudy(ctx context.Context, s *Study) context.Context {
	return context.WithValue(ctx, studyKey{}, s)
}

// StudyFrom returns the context's Study. A context without one (or a
// nil context) gets a fresh replay Study that nothing else shares: its
// runs simulate every time and its counters are not reported.
func StudyFrom(ctx context.Context) *Study {
	if ctx != nil {
		if s, ok := ctx.Value(studyKey{}).(*Study); ok {
			return s
		}
	}
	return NewStudy(true)
}

// TraceUsage aggregates capture/replay activity across all experiments
// of one Study — the trace report of cmd/mp4study.
type TraceUsage struct {
	Traces       uint64 // full traces recorded
	TraceRecords uint64
	TraceBytes   uint64
	L2Traces     uint64 // L1-filtered traces recorded
	L2Events     uint64
	L2Bytes      uint64
	Replays      uint64 // machine/geometry simulations served from captures
	MemoHits     uint64 // sweep cells served from the result memo
	MemoMisses   uint64 // sweep cells the memo had to simulate
}

// Zero reports whether no capture/replay activity was recorded.
func (u TraceUsage) Zero() bool { return u == TraceUsage{} }

// Capture bundles the recorded reference streams of one workload: the
// encode trace, optionally the decode trace, and the coded stream the
// decode consumes. One Capture simulates the workload on any number of
// machines without re-running the codec.
type Capture struct {
	Workload Workload
	Enc      *trace.Trace
	Dec      *trace.Trace
	SS       *codec.SessionStream
}

// RecordEncodeIn encodes the workload once with only a trace recorder
// attached — no cache simulation — and returns the capture.
func RecordEncodeIn(space *simmem.Space, wl Workload) (*Capture, error) {
	return RecordEncodeCtx(context.Background(), space, wl)
}

// RecordEncodeCtx is RecordEncodeIn accounted to the context's Study.
// Each call captures anew; sweeps share their study's capture through
// Study.EncodeTrace instead.
func RecordEncodeCtx(ctx context.Context, space *simmem.Space, wl Workload) (*Capture, error) {
	return recordEncode(StudyFrom(ctx), space, wl)
}

// recordEncode is RecordEncodeCtx accounted to s.
func recordEncode(s *Study, space *simmem.Space, wl Workload) (*Capture, error) {
	wl = wl.normalize()
	frames := wl.frames(space)
	rec := trace.NewRecorder()
	ss, err := codec.EncodeSession(wl.sessionConfig(), space, rec, rec, frames)
	if err != nil {
		return nil, err
	}
	tr := rec.Finish()
	s.noteTrace(tr)
	return &Capture{Workload: wl, Enc: tr, SS: ss}, nil
}

// RecordDecodeIn records the decode (playback) trace of the capture's
// coded stream into c.Dec.
func (c *Capture) RecordDecodeIn(space *simmem.Space) error {
	rec := trace.NewRecorder()
	if err := streamDecode(c.SS, space, rec, rec); err != nil {
		return err
	}
	c.Dec = rec.Finish()
	return nil
}

// ReplayOn simulates a captured trace on machine m, reproducing the
// Stats (and per-phase deltas) a live run on m would have counted.
func ReplayOn(m perf.Machine, tr *trace.Trace, bytes int) Result {
	h := m.NewHierarchy()
	pt := newPhaseTracker(h)
	tr.Replay(h, pt)
	return makeResult(m, h, pt, bytes)
}

// sameL1 reports whether all machines share one L1 configuration,
// making the L1-filtered replay path valid for the set. The
// replacement policy (and its seed) is part of the configuration: the
// L2-bound stream is a pure function of the whole L1, so machines
// differing only in L1 policy must run live.
// The display name is not: configs differing only in Name (or in the
// "" vs "lru" spelling of the default policy) simulate identically
// and keep the shared filter.
func sameL1(machines []perf.Machine) bool {
	key := func(c cache.Config) cache.Config {
		c = c.Canonical()
		c.Name = ""
		return c
	}
	first := key(machines[0].L1)
	for _, m := range machines[1:] {
		if key(m.L1) != first {
			return false
		}
	}
	return true
}

// resultFromStats derives a Result from raw whole-run counters and
// per-phase deltas.
func resultFromStats(m perf.Machine, whole cache.Stats, phases map[string]cache.Stats, bytes int) Result {
	res := Result{
		Machine: m,
		Whole:   perf.Compute(m, whole),
		Phases:  map[string]perf.Metrics{},
		Bytes:   bytes,
	}
	for name, st := range phases {
		res.Phases[name] = perf.Compute(m, st)
	}
	return res
}

// replayL2All simulates an L1-filtered capture on every machine of the
// (same-L1) set, in one fused pass over the event stream (split across
// replay workers when several are configured).
func replayL2All(s *Study, machines []perf.Machine, lt *trace.L2Trace, bytes int) []Result {
	cfgs := make([]cache.Config, len(machines))
	for i, m := range machines {
		cfgs[i] = m.L2
	}
	rr := lt.ReplayMany(cfgs, trace.ReplayWorkers())
	results := make([]Result, len(machines))
	for i, m := range machines {
		s.noteReplay()
		results[i] = resultFromStats(m, rr[i].Whole, rr[i].Phases, bytes)
	}
	return results
}

// runEncodeFiltered encodes once behind the shared L1 filter and
// replays the L2-bound stream per machine: O(encode + L1 sim) codec
// work for any number of machines.
func runEncodeFiltered(s *Study, space *simmem.Space, machines []perf.Machine, wl Workload) ([]Result, *codec.SessionStream, error) {
	wl = wl.normalize()
	frames := wl.frames(space)
	f := trace.NewL2Filter(machines[0].L1)
	ss, err := codec.EncodeSession(wl.sessionConfig(), space, f, f, frames)
	if err != nil {
		return nil, nil, err
	}
	lt := f.Trace()
	s.noteL2Trace(lt)
	return replayL2All(s, machines, lt, ss.TotalBytes()), ss, nil
}

// runDecodeFiltered mirrors runEncodeFiltered for the playback
// pipeline.
func runDecodeFiltered(s *Study, space *simmem.Space, machines []perf.Machine, ss *codec.SessionStream) ([]Result, error) {
	f := trace.NewL2Filter(machines[0].L1)
	if err := streamDecode(ss, space, f, f); err != nil {
		return nil, err
	}
	lt := f.Trace()
	s.noteL2Trace(lt)
	return replayL2All(s, machines, lt, ss.TotalBytes()), nil
}
