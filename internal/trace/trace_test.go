package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/simmem"
)

func l1Config() cache.Config {
	return cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 32, Ways: 2}
}

func l2Config(size int) cache.Config {
	return cache.Config{Name: "L2", SizeBytes: size, LineBytes: 128, Ways: 2}
}

// phaseLog collects replayed phase markers.
type phaseLog struct{ events []string }

func (p *phaseLog) PhaseBegin(n string) { p.events = append(p.events, "B:"+n) }
func (p *phaseLog) PhaseEnd(n string)   { p.events = append(p.events, "E:"+n) }

// randomStream drives t (and ph, if non-nil) with a reproducible
// pseudo-random access pattern exercising every tracer entry point:
// single accesses, flat and strided runs of every kind, ops and nested
// phase markers.
func randomStream(rng *rand.Rand, n int, t simmem.Tracer, ph PhaseSink) {
	addr := func() uint64 { return uint64(rng.Intn(1 << 22)) }
	units := []uint32{1, 1, 1, 4, 8}
	kinds := []simmem.Kind{simmem.Load, simmem.Load, simmem.Store, simmem.Prefetch}
	inPhase := false
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			t.Access(addr(), uint32(rng.Intn(64)), kinds[rng.Intn(len(kinds))])
		case 1:
			t.Ops(uint64(rng.Intn(1000)))
		case 2:
			if ph != nil {
				if inPhase {
					ph.PhaseEnd("Vop")
				} else {
					ph.PhaseBegin("Vop")
				}
				inPhase = !inPhase
			}
		case 3, 4, 5:
			t.Run(addr(), rng.Intn(300), units[rng.Intn(len(units))], kinds[rng.Intn(len(kinds))])
		default:
			simmem.AccessStridedUnit(t, addr(), 1+rng.Intn(40), 64+rng.Intn(700),
				1+rng.Intn(20), units[rng.Intn(len(units))], kinds[rng.Intn(len(kinds))])
		}
	}
	if inPhase && ph != nil {
		ph.PhaseEnd("Vop")
	}
}

// tee duplicates a stream to two tracer/phase-sink pairs so the live
// and recorded consumers observe identical input.
type tee struct {
	a, b interface {
		simmem.Tracer
		PhaseSink
	}
}

func (t tee) Access(a uint64, s uint32, k simmem.Kind) { t.a.Access(a, s, k); t.b.Access(a, s, k) }
func (t tee) Run(a uint64, n int, u uint32, k simmem.Kind) {
	t.a.Run(a, n, u, k)
	t.b.Run(a, n, u, k)
}
func (t tee) RunStrided(a uint64, rb, st, ro int, u uint32, k simmem.Kind) {
	simmem.AccessStridedUnit(t.a, a, rb, st, ro, u, k)
	simmem.AccessStridedUnit(t.b, a, rb, st, ro, u, k)
}
func (t tee) Ops(n uint64)        { t.a.Ops(n); t.b.Ops(n) }
func (t tee) PhaseBegin(n string) { t.a.PhaseBegin(n); t.b.PhaseBegin(n) }
func (t tee) PhaseEnd(n string)   { t.a.PhaseEnd(n); t.b.PhaseEnd(n) }

// liveHierarchy wraps a Hierarchy with live phase-delta tracking, the
// same accumulation the harness performs.
type liveHierarchy struct {
	*cache.Hierarchy
	starts map[string]cache.Stats
	acc    map[string]cache.Stats
}

func newLiveHierarchy(l1, l2 cache.Config) *liveHierarchy {
	return &liveHierarchy{
		Hierarchy: cache.NewHierarchy(l1, l2),
		starts:    map[string]cache.Stats{},
		acc:       map[string]cache.Stats{},
	}
}

func (l *liveHierarchy) PhaseBegin(n string) { l.starts[n] = l.Snapshot() }
func (l *liveHierarchy) PhaseEnd(n string) {
	s, ok := l.starts[n]
	if !ok {
		return
	}
	delete(l.starts, n)
	l.acc[n] = l.acc[n].Add(l.Snapshot().Sub(s))
}

// TestReplayMatchesLiveRandom is the core property test: for randomized
// workloads, replaying a recorded trace through a hierarchy produces
// byte-identical Stats (whole-run and per-phase) to live tracing, the
// LRU invariant holds after replay, and the same holds across several
// cache geometries replayed from one capture.
func TestReplayMatchesLiveRandom(t *testing.T) {
	geoms := []struct{ l1, l2 cache.Config }{
		{l1Config(), l2Config(1 << 20)},
		{cache.Config{Name: "L1", SizeBytes: 16 << 10, LineBytes: 32, Ways: 2}, l2Config(256 << 10)},
		{cache.Config{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4}, l2Config(512 << 10)},
	}
	for seed := int64(1); seed <= 8; seed++ {
		live := newLiveHierarchy(geoms[0].l1, geoms[0].l2)
		rec := NewRecorder()
		randomStream(rand.New(rand.NewSource(seed)), 4000, tee{live, rec}, tee{live, rec})
		tr := rec.Finish()

		for _, g := range geoms {
			replayed := newLiveHierarchy(g.l1, g.l2)
			tr.Replay(replayed.Hierarchy, replayed)
			if err := replayed.L1.CheckInvariant(); err != nil {
				t.Fatalf("seed %d: L1 invariant after replay: %v", seed, err)
			}
			if err := replayed.L2.CheckInvariant(); err != nil {
				t.Fatalf("seed %d: L2 invariant after replay: %v", seed, err)
			}
			if g.l1 != geoms[0].l1 || g.l2 != geoms[0].l2 {
				continue // different geometry: only invariants comparable
			}
			if replayed.Snapshot() != live.Snapshot() {
				t.Fatalf("seed %d: replayed stats differ\nlive   %+v\nreplay %+v",
					seed, live.Snapshot(), replayed.Snapshot())
			}
			if len(replayed.acc) != len(live.acc) {
				t.Fatalf("seed %d: phase sets differ: %v vs %v", seed, replayed.acc, live.acc)
			}
			for name, want := range live.acc {
				if got := replayed.acc[name]; got != want {
					t.Fatalf("seed %d phase %s: %+v != %+v", seed, name, got, want)
				}
			}
		}
	}
}

// TestL2FilterMatchesLiveRandom checks the L1-filtered path: filtering
// a random stream through the shared L1 and replaying the L2-bound
// events against several L2 geometries reproduces the exact Stats and
// phase deltas of a live hierarchy with that L1/L2 pair.
func TestL2FilterMatchesLiveRandom(t *testing.T) {
	l2s := []cache.Config{
		l2Config(256 << 10),
		l2Config(1 << 20),
		{Name: "L2", SizeBytes: 512 << 10, LineBytes: 128, Ways: 4},
	}
	for seed := int64(1); seed <= 8; seed++ {
		lives := make([]*liveHierarchy, len(l2s))
		filter := NewL2Filter(l1Config())
		sinks := make([]interface {
			simmem.Tracer
			PhaseSink
		}, 0, len(l2s)+1)
		for i, l2 := range l2s {
			lives[i] = newLiveHierarchy(l1Config(), l2)
			sinks = append(sinks, lives[i])
		}
		sinks = append(sinks, filter)
		// Chain tees so every consumer sees the same stream.
		var dst interface {
			simmem.Tracer
			PhaseSink
		} = sinks[0]
		for _, s := range sinks[1:] {
			dst = tee{dst, s}
		}
		randomStream(rand.New(rand.NewSource(seed)), 4000, dst, dst)

		lt := filter.Trace()
		for i, l2 := range l2s {
			whole, phases := lt.Replay(l2)
			if whole != lives[i].Snapshot() {
				t.Fatalf("seed %d l2=%d: filtered stats differ\nlive   %+v\nfilter %+v",
					seed, l2.SizeBytes, lives[i].Snapshot(), whole)
			}
			for name, want := range lives[i].acc {
				if got := phases[name]; got != want {
					t.Fatalf("seed %d l2=%d phase %s: %+v != %+v", seed, l2.SizeBytes, name, got, want)
				}
			}
		}
	}
}

// TestCountAgreesWithHierarchy is the prefetch-consistency cross-check:
// Count and a Hierarchy observing the same stream must agree on every
// graduated-operation counter, including per-line prefetch counting.
func TestCountAgreesWithHierarchy(t *testing.T) {
	h := cache.NewHierarchy(l1Config(), l2Config(1<<20))
	c := &simmem.Count{LineBytes: l1Config().LineBytes}
	randomStream(rand.New(rand.NewSource(7)), 6000, tee{nopPhases{h}, nopPhases{c}}, nil)
	s := h.Snapshot()
	if c.Loads != s.Loads || c.Stores != s.Stores || c.Prefetches != s.Prefetches ||
		c.LoadBytes != s.LoadBytes || c.StoreBytes != s.StoreBytes || c.OpCount != s.Ops {
		t.Fatalf("Count disagrees with Hierarchy on the same stream:\ncount %+v\nstats %+v", c, s)
	}
}

// nopPhases adapts a plain Tracer to the tee's combined interface.
type nopPhases struct{ simmem.Tracer }

func (nopPhases) PhaseBegin(string) {}
func (nopPhases) PhaseEnd(string)   {}

func TestRecorderChunking(t *testing.T) {
	rec := NewRecorder()
	n := chunkRecords*2 + 100
	for i := 0; i < n; i++ {
		rec.Run(uint64(i)*32, 16, 1, simmem.Load)
	}
	tr := rec.Finish()
	if tr.Records() != n {
		t.Fatalf("records = %d, want %d", tr.Records(), n)
	}
	if got := len(tr.chunks); got != 3 {
		t.Fatalf("chunks = %d, want 3", got)
	}
	if tr.SizeBytes() < n*recordBytes {
		t.Fatalf("SizeBytes %d implausibly small", tr.SizeBytes())
	}
	var c simmem.Count
	tr.Replay(&c, nil)
	if c.Loads != uint64(n)*16 {
		t.Fatalf("replayed %d loads, want %d", c.Loads, n*16)
	}
}

func TestRecorderOpsDeferral(t *testing.T) {
	rec := NewRecorder()
	rec.Ops(10)
	rec.Ops(20)
	rec.PhaseBegin("P")
	rec.Ops(5)
	rec.PhaseEnd("P")
	rec.Ops(7)
	tr := rec.Finish()
	// 30 flushed before PhaseBegin, 5 before PhaseEnd, 7 at Finish:
	// 3 ops records + 2 markers.
	if tr.Records() != 5 {
		t.Fatalf("records = %d, want 5", tr.Records())
	}
	var c simmem.Count
	var ph phaseLog
	tr.Replay(&c, &ph)
	if c.OpCount != 42 {
		t.Fatalf("ops = %d, want 42", c.OpCount)
	}
	want := []string{"B:P", "E:P"}
	if len(ph.events) != 2 || ph.events[0] != want[0] || ph.events[1] != want[1] {
		t.Fatalf("phase events %v, want %v", ph.events, want)
	}
}

func TestRecorderTallBlockSplit(t *testing.T) {
	rec := NewRecorder()
	rows := int(^uint16(0)) + 10
	rec.RunStrided(0, 8, 64, rows, 1, simmem.Store)
	tr := rec.Finish()
	if tr.Records() != 2 {
		t.Fatalf("records = %d, want 2 (tall block split)", tr.Records())
	}
	var c simmem.Count
	tr.Replay(&c, nil)
	if c.Stores != uint64(rows)*8 {
		t.Fatalf("stores = %d, want %d", c.Stores, rows*8)
	}
}

func TestL2TraceSizeReport(t *testing.T) {
	f := NewL2Filter(l1Config())
	for i := 0; i < 10000; i++ {
		f.Run(uint64(i)*64, 32, 1, simmem.Load)
	}
	lt := f.Trace()
	if lt.Events() == 0 || lt.SizeBytes() == 0 {
		t.Fatal("empty filtered trace for a missing stream")
	}
	if lt.Events() > 10000+1 {
		t.Fatalf("filter emitted more events (%d) than references", lt.Events())
	}
	if s := lt.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// TestRecordPacked asserts the packed record layout: 16 bytes per
// record, and SizeBytes accounting for it.
func TestRecordPacked(t *testing.T) {
	if got := int(reflect.TypeOf(record{}).Size()); got != recordBytes {
		t.Fatalf("record size = %d bytes, want %d", got, recordBytes)
	}
	if recordBytes != 16 {
		t.Fatalf("recordBytes = %d, want 16", recordBytes)
	}
	r := NewRecorder()
	for i := 0; i < 3*chunkRecords; i++ {
		r.Access(uint64(i)*64, 4, simmem.Load)
	}
	tr := r.Finish()
	if tr.SizeBytes() < tr.Records()*recordBytes {
		t.Fatalf("SizeBytes %d below %d records * %d", tr.SizeBytes(), tr.Records(), recordBytes)
	}
	if tr.SizeBytes() > 2*tr.Records()*recordBytes {
		t.Fatalf("SizeBytes %d more than 2x the packed record payload", tr.SizeBytes())
	}
	if len(tr.wide) != 0 {
		t.Fatalf("plain accesses spilled %d wide records", len(tr.wide))
	}
}

// TestRecordWideSpill: fields beyond the packed ranges round-trip
// exactly through the wide table, the replay dispatch, and the wire
// format.
func TestRecordWideSpill(t *testing.T) {
	// Addresses beyond the 56-bit packed payload spill to the wide table
	// in memory and replay exactly; the wire format has always bounded
	// addresses at 2^56, so such a trace still refuses to encode.
	{
		r := NewRecorder()
		r.Access(uint64(1)<<60, 8, simmem.Store)
		tr := r.Finish()
		if len(tr.wide) != 1 {
			t.Fatalf("huge address spilled %d wide records, want 1", len(tr.wide))
		}
		var got []string
		tr.Replay(&tracerLog{out: &got}, nil)
		if len(got) != 1 || got[0] != fmt.Sprintf("A %d 8 %d", uint64(1)<<60, simmem.Store) {
			t.Fatalf("huge address replayed as %v", got)
		}
		var b bytes.Buffer
		if _, err := tr.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(&b); err == nil {
			t.Fatalf("expected ReadTrace to reject a 2^60 address")
		}
	}

	r := NewRecorder()
	r.Run(100, 5<<24, 4, simmem.Load)                // run length beyond 24 bits
	r.Run(200, 64, 3, simmem.Load)                   // non-power-of-two unit
	r.Run(300, 64, 1<<16, simmem.Load)               // unit beyond 2^15
	r.RunStrided(400, 64, 1<<24, 4, 8, simmem.Store) // stride beyond 24 bits
	r.RunStrided(500, 32, 16, 3, 8, simmem.Prefetch) // packed control
	r.Ops(1 << 60)                                   // ops count beyond the 56-bit payload
	r.PhaseBegin("p")
	r.PhaseEnd("p")
	tr := r.Finish()
	if len(tr.wide) == 0 {
		t.Fatalf("expected wide spills")
	}

	var got, want []string
	rec := func(out *[]string) *tracerLog { return &tracerLog{out: out} }
	tr.Replay(rec(&got), nil)

	// The same stream captured through a fresh recorder must replay
	// identically after a wire round-trip.
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Records() != tr.Records() {
		t.Fatalf("round-trip records %d != %d", dec.Records(), tr.Records())
	}
	dec.Replay(rec(&want), nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wide records diverged after wire round-trip:\n got %v\nwant %v", got, want)
	}
}

// tracerLog records the exact Tracer call stream.
type tracerLog struct {
	out *[]string
}

func (l *tracerLog) Access(addr uint64, size uint32, kind simmem.Kind) {
	*l.out = append(*l.out, fmt.Sprintf("A %d %d %d", addr, size, kind))
}
func (l *tracerLog) Run(addr uint64, n int, unit uint32, kind simmem.Kind) {
	*l.out = append(*l.out, fmt.Sprintf("R %d %d %d %d", addr, n, unit, kind))
}
func (l *tracerLog) RunStrided(addr uint64, rowBytes, stride, rows int, unit uint32, kind simmem.Kind) {
	*l.out = append(*l.out, fmt.Sprintf("S %d %d %d %d %d %d", addr, rowBytes, stride, rows, unit, kind))
}
func (l *tracerLog) Ops(n uint64) {
	*l.out = append(*l.out, fmt.Sprintf("O %d", n))
}
