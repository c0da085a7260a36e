// L1-filtered traces: the paper's three machines (and most cache
// sweeps) differ only in their second-level cache, while the shared L1
// determines which references reach L2 at all. An L2Filter runs the L1
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/simmem"
)

// L2Filter is a Tracer that simulates one L1 data cache and captures
// the stream it sends to the next level. It implements simmem.Tracer,
// simmem.StridedTracer and the codec's PhaseRecorder. It is
// cache.Hierarchy's L1 side, cache.L1Side, with the recorder of the
// L2-bound events as its next level: where a hierarchy sends an L1 miss
// to its L2, the filter records the miss instead, in fixed chunks (see
// eventChunks). Its Stats are the L1-side counters; the L2 counters are
// a replay's.
type L2Filter struct {
	cache.L1Side
	events   eventChunks // the L2-bound stream so far
	marks    []l2Mark
	names    []string
	phaseIdx map[string]uint32
}

// l2Mark is a phase marker inside the L2 event stream, with the
// L1-side counters at the marker; a replay adds its L2 counters there.
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
	f := &L2Filter{phaseIdx: map[string]uint32{}}
	f.L1Side = cache.NewL1Side(l1, f.events.record)
	return f
}

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
	f.marks = append(f.marks, l2Mark{pos: f.events.n, name: f.phase(name), begin: true, base: f.Stats})
}

// PhaseEnd implements the codec's PhaseRecorder.
func (f *L2Filter) PhaseEnd(name string) {
	f.marks = append(f.marks, l2Mark{pos: f.events.n, name: f.phase(name), base: f.Stats})
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
	mFilterRepeatLines.Add(f.L1.RepeatLines)
	mFilterLineRefs.Add(f.L1.Accesses)
	return &L2Trace{
		L1:          f.L1.Config(),
		base:        f.Stats,
		eventChunks: f.events,
		marks:       f.marks,
		names:       f.names,
		hcache:      &hashCache{},
	}
}

// eventChunks is an L2-bound event stream in chunks of
// fusedBlockEvents, the layout Recorder uses for full traces. Every
// chunk but the last is full, so chunk k starts at stream position
// k*fusedBlockEvents; a stream grows one chunk at a time and never
// copies what it holds.
type eventChunks struct {
	chunks [][]uint64
	n      int // events in all chunks
}

// record is the filter's next level: it appends one L2-bound event,
// addr<<1 | 1 for a writeback install and addr<<1 for a demand fill.
// The stream's length is unknown, so each chunk it starts is a whole
// one.
func (s *eventChunks) record(addr uint64, writeback bool) {
	ev := addr << 1
	if writeback {
		ev |= 1
	}
	s.add(ev, fusedBlockEvents)
}

// add appends ev. When the last chunk is full it starts a new one with
// room for min(room, fusedBlockEvents) events, room being how many
// events the stream may still take.
func (s *eventChunks) add(ev, room uint64) {
	if s.n%fusedBlockEvents == 0 {
		s.chunks = append(s.chunks, make([]uint64, 0, min(room, fusedBlockEvents)))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, ev)
	s.n++
}

// L2Trace is the L2-bound reference stream of one workload run behind a
// fixed L1, replayable against any L2 geometry. Its events live in
// fixed chunks (see eventChunks), and a mark's position is global.
type L2Trace struct {
	L1   cache.Config
	base cache.Stats
	eventChunks
	marks  []l2Mark
	names  []string
	hcache *hashCache // memoized content hash; nil disables caching
}

// Events returns the number of captured L2 references.
func (t *L2Trace) Events() int { return t.n }

// SizeBytes returns the in-memory footprint of the events and marks:
// the chunks' capacity, so a stream shorter than one chunk counts the
// whole chunk it holds.
func (t *L2Trace) SizeBytes() int {
	size := cap(t.marks) * int(l2MarkBytes)
	for _, c := range t.chunks {
		size += cap(c) * 8
	}
	return size
}

const l2MarkBytes = 8 + 4 + 4 + 96 // pos, name+begin, pad, Stats

// String summarises the trace for reports.
func (t *L2Trace) String() string {
	return fmt.Sprintf("l2trace{%d events, %.1f MB}", t.n, float64(t.SizeBytes())/(1<<20))
}

// Replay simulates the captured stream against one L2 geometry and
// returns the whole-run Stats plus the per-phase Stats deltas —
// counter-identical to running the full workload live against
// cache.NewHierarchy(t.L1, l2).
func (t *L2Trace) Replay(l2 cache.Config) (cache.Stats, map[string]cache.Stats) {
	defer noteL2Replay(time.Now(), t.n)
	rp := l2Replay{t: t, c: cache.New(l2)}
	for k, chunk := range t.chunks {
		rp.run(chunk, k*fusedBlockEvents)
	}
	return rp.finish()
}

// l2Replay is the mutable state of one L2 replay: the simulated cache,
// its L2 counters, the mark cursor and the phases. The counters at a
// mark, or at the end, are the L1-side base the filter recorded there
// plus the L2 counters so far. The fused pass (ReplayMany) keeps one
// per config and advances each across every chunk of the event stream.
type l2Replay struct {
	t      *L2Trace
	c      *cache.Cache
	l2     cache.Stats // L2 fields only, counted by cache.Stats.CountL2
	mi     int
	phases cache.Phases
}

// run replays one chunk whose first event is at stream position base,
// applying each mark at a position in the chunk before the event there;
// a mark at base applies before the chunk's first event. Calling run
// over the chunks in order is exactly the serial replay — the fused
// pass interleaves the chunks of several configs while a chunk is hot
// in the host cache. Each event is one L2 access, counted by the
// hierarchy's L2 rule.
func (rp *l2Replay) run(chunk []uint64, base int) {
	t, c := rp.t, rp.c
	for i, ev := range chunk {
		for rp.mi < len(t.marks) && t.marks[rp.mi].pos == base+i {
			rp.applyMark(&t.marks[rp.mi])
			rp.mi++
		}
		writeback := ev&1 != 0
		rp.l2.CountL2(c.Access(ev>>1, writeback), writeback)
	}
}

// finish applies the trailing marks and returns the whole-run and
// per-phase Stats.
func (rp *l2Replay) finish() (cache.Stats, map[string]cache.Stats) {
	for rp.mi < len(rp.t.marks) {
		rp.applyMark(&rp.t.marks[rp.mi])
		rp.mi++
	}
	return rp.t.base.Add(rp.l2), rp.phases.Totals()
}

// applyMark opens or closes one phase at the mark's counters.
func (rp *l2Replay) applyMark(m *l2Mark) {
	name, at := rp.t.names[m.name], m.base.Add(rp.l2)
	if m.begin {
		rp.phases.Begin(name, at)
	} else {
		rp.phases.End(name, at)
	}
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

// fusedBlockEvents is the length of an L2Trace chunk (256 KiB of
// events): the unit a filter pass allocates its stream in, and the
// window the fused pass holds hot in the host cache while every config
// replays it.
const fusedBlockEvents = 1 << 15

// ReplayMany replays the stream against several L2 configs in one pass
// over the events: each chunk of the stream is replayed by every
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
	mL2ReplayEvents.Add(uint64(len(cfgs) * t.n))
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

// replayFused advances one l2Replay per config across each chunk in
// turn, reusing the per-config scratch for every chunk.
func (t *L2Trace) replayFused(cfgs []cache.Config, out []L2ReplayResult) {
	states := make([]l2Replay, len(cfgs))
	for i := range states {
		states[i] = l2Replay{t: t, c: cache.New(cfgs[i])}
	}
	for k, chunk := range t.chunks {
		for i := range states {
			states[i].run(chunk, k*fusedBlockEvents)
		}
	}
	for i := range states {
		whole, phases := states[i].finish()
		out[i] = L2ReplayResult{Whole: whole, Phases: phases}
	}
}
