// L1-filtered traces: the paper's three machines (and most cache
// sweeps) differ only in their second-level cache, while the shared L1
// determines which references reach L2 at all. FilterL2 runs the L1
// simulation once and captures just the L2-bound stream — typically two
// to three orders of magnitude shorter than the full reference stream —
// so sweeping L2 geometries costs microseconds per configuration
// instead of a full cache simulation. This is the classic
// cache-filtering (trace-stripping) optimisation of trace-driven
// simulation, exact for any L2 because the L1→L2 stream is a pure
// function of the L1 geometry.
package trace

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/simmem"
)

// L2Filter is a Tracer that simulates one L1 data cache and captures
// the stream it sends to the next level. It implements simmem.Tracer,
// simmem.StridedTracer and the codec's PhaseRecorder. Its L1 side is
// cache.Hierarchy's: demand references walk the same row kernel,
// cache.AccessRows, which resolves hits inside the L1, and prefetches
// take the same Lookup-then-Access probe. Where the hierarchy sends an
// L1 miss to its L2, the filter records the L2-bound events instead.
type L2Filter struct {
	l1        *cache.Cache
	lineBytes uint64

	base     cache.Stats // L1-determined counters; L2 fields stay zero
	events   []uint64    // addr<<1 | 1 for writeback installs, | 0 for demand fills
	marks    []l2Mark
	names    []string
	phaseIdx map[string]uint32
}

// l2Mark is a phase marker inside the L2 event stream, with the
// L1-level counters at the marker (the L2-level part is recomputed per
// replayed geometry).
type l2Mark struct {
	pos   int
	name  uint32
	begin bool
	base  cache.Stats
}

var (
	_ simmem.Tracer        = (*L2Filter)(nil)
	_ simmem.StridedTracer = (*L2Filter)(nil)
	_ PhaseSink            = (*L2Filter)(nil)
)

// NewL2Filter returns a filter simulating the given L1 geometry.
func NewL2Filter(l1 cache.Config) *L2Filter {
	c := cache.New(l1)
	return &L2Filter{l1: c, lineBytes: uint64(l1.LineBytes), phaseIdx: map[string]uint32{}}
}

// l1Miss mirrors cache.Hierarchy's L1 miss handling up to the L1/L2
// boundary, emitting the L2-bound events instead of probing an L2.
func (f *L2Filter) l1Miss(addr uint64, r1 cache.Result) {
	f.base.L1Misses++
	if r1.EvictedDirty {
		f.base.L1Writebacks++
		f.emit((r1.EvictedLine*f.lineBytes)<<1 | 1)
	}
	f.emit(addr << 1)
}

// emit appends one L2-bound event. The stream doubles when full instead
// of taking append's 1.25x steps for large slices, so a filter pass
// allocates about twice its final stream rather than about five times.
func (f *L2Filter) emit(ev uint64) {
	if len(f.events) == cap(f.events) {
		f.events = slices.Grow(f.events, len(f.events))
	}
	f.events = append(f.events, ev)
}

// Access implements simmem.Tracer (cf. cache.Hierarchy.Access).
func (f *L2Filter) Access(addr uint64, size uint32, kind simmem.Kind) {
	switch kind {
	case simmem.Load:
		f.base.Loads++
		f.base.LoadBytes += uint64(size)
	case simmem.Store:
		f.base.Stores++
		f.base.StoreBytes += uint64(size)
	case simmem.Prefetch:
		f.prefetch(addr)
		return
	}
	f.l1.AccessRows(addr, int(size), 0, 1, kind == simmem.Store, f.l1Miss)
}

// prefetch probes the L1 with one prefetch of addr (cf.
// cache.Hierarchy's).
func (f *L2Filter) prefetch(addr uint64) {
	f.base.Prefetches++
	if f.l1.Lookup(addr) {
		f.base.PrefetchL1Hits++
		return
	}
	if r1 := f.l1.Access(addr, false); !r1.Hit {
		f.l1Miss(addr, r1)
	}
}

// Run implements simmem.Tracer (cf. cache.Hierarchy.Run).
func (f *L2Filter) Run(addr uint64, n int, unit uint32, kind simmem.Kind) {
	f.RunStrided(addr, n, 0, 1, unit, kind)
}

// RunStrided implements simmem.StridedTracer (cf.
// cache.Hierarchy.RunStrided).
func (f *L2Filter) RunStrided(addr uint64, rowBytes, stride, rows int, unit uint32, kind simmem.Kind) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	if kind == simmem.Prefetch {
		f.l1.EachLine(addr, rowBytes, stride, rows, f.prefetch)
		return
	}
	refs := uint64(rows) * simmem.RunRefs(rowBytes, unit)
	bytes := uint64(rows) * uint64(rowBytes)
	write := kind == simmem.Store
	if write {
		f.base.Stores += refs
		f.base.StoreBytes += bytes
	} else {
		f.base.Loads += refs
		f.base.LoadBytes += bytes
	}
	f.l1.AccessRows(addr, rowBytes, stride, rows, write, f.l1Miss)
}

// Ops implements simmem.Tracer.
func (f *L2Filter) Ops(n uint64) { f.base.Ops += n }

func (f *L2Filter) phase(name string) uint32 {
	if i, ok := f.phaseIdx[name]; ok {
		return i
	}
	i := uint32(len(f.names))
	f.names = append(f.names, name)
	f.phaseIdx[name] = i
	return i
}

// PhaseBegin implements the codec's PhaseRecorder.
func (f *L2Filter) PhaseBegin(name string) {
	f.marks = append(f.marks, l2Mark{pos: len(f.events), name: f.phase(name), begin: true, base: f.base})
}

// PhaseEnd implements the codec's PhaseRecorder.
func (f *L2Filter) PhaseEnd(name string) {
	f.marks = append(f.marks, l2Mark{pos: len(f.events), name: f.phase(name), base: f.base})
}

// Filter-pass metrics: the L1's line references, and how many of them
// its repeat shortcut resolved without a walk.
var (
	mFilterRepeatLines = obs.Default().Counter("trace_filter_repeat_lines_total")
	mFilterLineRefs    = obs.Default().Counter("trace_filter_line_refs_total")
)

// Trace returns the captured L2-bound stream. The filter may not be
// used afterwards.
func (f *L2Filter) Trace() *L2Trace {
	mFilterRepeatLines.Add(f.l1.RepeatLines)
	mFilterLineRefs.Add(f.l1.Accesses)
	return &L2Trace{
		L1:     f.l1.Config(),
		base:   f.base,
		events: f.events,
		marks:  f.marks,
		names:  f.names,
		hcache: &hashCache{},
	}
}

// L2Trace is the L2-bound reference stream of one workload run behind a
// fixed L1, replayable against any L2 geometry.
type L2Trace struct {
	L1     cache.Config
	base   cache.Stats
	events []uint64
	marks  []l2Mark
	names  []string
	hcache *hashCache // memoized content hash; nil disables caching
}

// Events returns the number of captured L2 references.
func (t *L2Trace) Events() int { return len(t.events) }

// SizeBytes returns the approximate in-memory footprint.
func (t *L2Trace) SizeBytes() int {
	return cap(t.events)*8 + cap(t.marks)*int(l2MarkBytes)
}

const l2MarkBytes = 8 + 4 + 4 + 96 // pos, name+begin, pad, Stats

// String summarises the trace for reports.
func (t *L2Trace) String() string {
	return fmt.Sprintf("l2trace{%d events, %.1f MB}", len(t.events), float64(t.SizeBytes())/(1<<20))
}

// Replay simulates the captured stream against one L2 geometry and
// returns the whole-run Stats plus the per-phase Stats deltas —
// counter-identical to running the full workload live against a
// cache.Hierarchy{L1: t.L1, L2: l2}.
func (t *L2Trace) Replay(l2 cache.Config) (cache.Stats, map[string]cache.Stats) {
	defer noteL2Replay(time.Now(), len(t.events))
	var rp l2Replay
	rp.reset(t, l2)
	rp.run(0, len(t.events))
	return rp.finish()
}

// l2Replay is the mutable state of one L2 replay: the simulated cache,
// the running L2 counters, the mark cursor, and the phase maps that
// used to be per-call allocations (statsAt's closure and the starts
// map). The fused pass (ReplayMany) keeps one per config and advances
// each across every chunk of the event stream; reset lets a scratch be
// reused across replays without reallocating the maps.
type l2Replay struct {
	t                                  *L2Trace
	c                                  *cache.Cache
	l2Accesses, l2Misses, l2Writebacks uint64
	mi                                 int
	starts                             map[string]cache.Stats
	phases                             map[string]cache.Stats
}

// reset points the scratch at a trace/geometry pair and clears all
// running state.
func (rp *l2Replay) reset(t *L2Trace, l2 cache.Config) {
	rp.t = t
	rp.c = cache.New(l2)
	rp.l2Accesses, rp.l2Misses, rp.l2Writebacks = 0, 0, 0
	rp.mi = 0
	if rp.starts == nil {
		rp.starts = map[string]cache.Stats{}
	} else {
		clear(rp.starts)
	}
	rp.phases = nil
}

// statsAt reconstructs the full hierarchy counters at mark m.
func (rp *l2Replay) statsAt(m *l2Mark) cache.Stats {
	s := m.base
	s.L2Accesses = rp.l2Accesses
	s.L2Misses = rp.l2Misses
	s.L2Writebacks = rp.l2Writebacks
	return s
}

// run replays events [lo, hi), applying marks at positions in the same
// window. Calling run over consecutive windows is exactly the serial
// single-window replay — the fused pass interleaves windows of several
// configs while the window is hot in the host cache.
func (rp *l2Replay) run(lo, hi int) {
	t, c := rp.t, rp.c
	for pos := lo; pos < hi; pos++ {
		for rp.mi < len(t.marks) && t.marks[rp.mi].pos == pos {
			rp.applyMark(&t.marks[rp.mi])
			rp.mi++
		}
		ev := t.events[pos]
		addr := ev >> 1
		if ev&1 != 0 {
			// L1 writeback install: an L2 access that is not a demand
			// miss; only a displaced dirty L2 victim adds traffic.
			rp.l2Accesses++
			r := c.Access(addr, true)
			if !r.Hit && r.EvictedDirty {
				rp.l2Writebacks++
			}
			continue
		}
		rp.l2Accesses++
		r := c.Access(addr, false)
		if !r.Hit {
			rp.l2Misses++
			if r.EvictedDirty {
				rp.l2Writebacks++
			}
		}
	}
}

// finish applies the trailing marks and returns the whole-run and
// per-phase Stats.
func (rp *l2Replay) finish() (cache.Stats, map[string]cache.Stats) {
	t := rp.t
	for rp.mi < len(t.marks) {
		rp.applyMark(&t.marks[rp.mi])
		rp.mi++
	}
	whole := t.base
	whole.L2Accesses = rp.l2Accesses
	whole.L2Misses = rp.l2Misses
	whole.L2Writebacks = rp.l2Writebacks
	return whole, rp.phases
}

// applyMark accumulates one phase begin/end into the phase map, with
// the same begin-snapshot / end-delta semantics as the harness's live
// phase tracker.
func (rp *l2Replay) applyMark(m *l2Mark) {
	name, at := rp.t.names[m.name], rp.statsAt(m)
	if m.begin {
		rp.starts[name] = at
		return
	}
	s, ok := rp.starts[name]
	if !ok {
		return
	}
	delete(rp.starts, name)
	if rp.phases == nil {
		rp.phases = map[string]cache.Stats{}
	}
	rp.phases[name] = rp.phases[name].Add(at.Sub(s))
}

// Fused-replay metrics: the worker gauge mirrors SetReplayWorkers, the
// counters count fused passes and the configs they replayed.
var (
	mReplayWorkers      = obs.Default().Gauge("trace_replay_workers")
	mFusedReplays       = obs.Default().Counter("trace_replay_fused_total")
	mFusedReplayConfigs = obs.Default().Counter("trace_replay_fused_configs_total")
)

// replayWorkers holds the configured worker count; 0 means GOMAXPROCS.
var replayWorkers atomic.Int32

func init() { mReplayWorkers.Set(int64(runtime.GOMAXPROCS(0))) }

// SetReplayWorkers configures how many goroutines one fused multi-config
// pass (ReplayMany) splits its configs across. n <= 0 restores the
// default, GOMAXPROCS. Every single-config replay runs serially whatever
// the setting. No command sets it: the fan-out tests pin 1 vs 4 workers
// to check that results do not depend on it, and the benchmark ladder
// (bench/ladder.go) still sets it around its replay_parallel_speedup
// rung, a single serial replay that never reads it. It goes when that
// rung does.
func SetReplayWorkers(n int) {
	if n < 0 {
		n = 0
	}
	replayWorkers.Store(int32(n))
	mReplayWorkers.Set(int64(ReplayWorkers()))
}

// ReplayWorkers returns the effective replay worker count.
func ReplayWorkers() int {
	if n := int(replayWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// L2ReplayResult is one config's output from a fused multi-config
// replay.
type L2ReplayResult struct {
	Whole  cache.Stats
	Phases map[string]cache.Stats
}

// fusedBlockEvents is the event window the fused pass holds hot in the
// host cache while every config replays it.
const fusedBlockEvents = 1 << 15

// ReplayMany replays the stream against several L2 configs in one pass
// over the events: each block of the stream is replayed by every
// config while it is hot in the host cache, instead of streaming the
// whole trace once per config. With workers > 1 the configs split
// across goroutines (each group still fused). Every result is
// byte-identical to a standalone Replay of that config.
func (t *L2Trace) ReplayMany(cfgs []cache.Config, workers int) []L2ReplayResult {
	out := make([]L2ReplayResult, len(cfgs))
	if len(cfgs) == 0 {
		return out
	}
	defer mL2ReplaySeconds.ObserveSince(time.Now())
	mFusedReplays.Inc()
	mFusedReplayConfigs.Add(uint64(len(cfgs)))
	mL2Replays.Add(uint64(len(cfgs)))
	mL2ReplayEvents.Add(uint64(len(cfgs) * len(t.events)))
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers <= 1 {
		t.replayFused(cfgs, out)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(cfgs) / workers
		hi := (w + 1) * len(cfgs) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			t.replayFused(cfgs[lo:hi], out[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// replayFused advances one l2Replay per config across each event block
// in turn, reusing the per-config scratch for every block.
func (t *L2Trace) replayFused(cfgs []cache.Config, out []L2ReplayResult) {
	states := make([]l2Replay, len(cfgs))
	for i := range states {
		states[i].reset(t, cfgs[i])
	}
	for lo := 0; lo < len(t.events); lo += fusedBlockEvents {
		hi := min(lo+fusedBlockEvents, len(t.events))
		for i := range states {
			states[i].run(lo, hi)
		}
	}
	for i := range states {
		whole, phases := states[i].finish()
		out[i] = L2ReplayResult{Whole: whole, Phases: phases}
	}
}
