package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simmem"
)

func testHier() *Hierarchy {
	return NewHierarchy(
		Config{Name: "L1", SizeBytes: 1024, LineBytes: 32, Ways: 2},
		Config{Name: "L2", SizeBytes: 8192, LineBytes: 128, Ways: 2},
	)
}

func TestHierarchyBasicCounts(t *testing.T) {
	h := testHier()
	h.Access(0x1000, 4, simmem.Load)
	h.Access(0x1004, 4, simmem.Load) // same L1 line: hit
	h.Access(0x1000, 4, simmem.Store)
	if h.Loads != 2 || h.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", h.Loads, h.Stores)
	}
	if h.L1Misses != 1 {
		t.Fatalf("L1Misses=%d want 1", h.L1Misses)
	}
	if h.L2Misses != 1 {
		t.Fatalf("L2Misses=%d want 1", h.L2Misses)
	}
}

func TestStraddlingAccessSplits(t *testing.T) {
	h := testHier()
	// 8-byte access spanning two 32B lines at offset 28.
	h.Access(0x1000+28, 8, simmem.Load)
	if h.L1Misses != 2 {
		t.Fatalf("straddling access caused %d L1 misses, want 2", h.L1Misses)
	}
	if h.Loads != 1 {
		t.Fatalf("straddling access counted as %d loads, want 1", h.Loads)
	}
}

func TestL2SpatialLocality(t *testing.T) {
	h := testHier()
	// Four consecutive L1 lines share one 128B L2 line: only the first
	// should miss in L2.
	for i := 0; i < 4; i++ {
		h.Access(uint64(0x2000+i*32), 4, simmem.Load)
	}
	if h.L1Misses != 4 {
		t.Fatalf("L1Misses=%d want 4", h.L1Misses)
	}
	if h.L2Misses != 1 {
		t.Fatalf("L2Misses=%d want 1", h.L2Misses)
	}
}

func TestPrefetchCounting(t *testing.T) {
	h := testHier()
	h.Access(0x3000, 4, simmem.Load)     // bring line in
	h.Access(0x3000, 0, simmem.Prefetch) // size ignored for prefetch
	if h.Prefetches != 1 || h.PrefetchL1Hits != 1 {
		t.Fatalf("prefetch counters: %d/%d", h.Prefetches, h.PrefetchL1Hits)
	}
	h.Access(0x9000, 4, simmem.Prefetch) // cold: useful prefetch
	if h.PrefetchL1Hits != 1 {
		t.Fatalf("cold prefetch miscounted as L1 hit")
	}
	// The prefetched line should now be resident.
	before := h.L1Misses
	h.Access(0x9000, 4, simmem.Load)
	if h.L1Misses != before {
		t.Fatal("prefetched line not installed in L1")
	}
}

func TestDirtyL1VictimWritesIntoL2(t *testing.T) {
	h := testHier()
	// L1: 1KB 2-way 32B lines -> 16 sets; same set every 512B.
	h.Access(0x0000, 4, simmem.Store) // dirty line in set 0
	h.Access(0x0200, 4, simmem.Load)  // same L1 set
	h.Access(0x0400, 4, simmem.Load)  // evicts dirty 0x0000
	if h.L1Writebacks != 1 {
		t.Fatalf("L1Writebacks=%d want 1", h.L1Writebacks)
	}
	// The written-back line must be dirty in L2 now: evicting it from L2
	// later should produce an L2 writeback. Force L2 conflicts:
	// L2 is 8KB 2-way 128B lines -> 32 sets; same set every 4KB.
	h.Access(0x0000+4096, 4, simmem.Load)
	h.Access(0x0000+8192, 4, simmem.Load)
	h.Access(0x0000+12288, 4, simmem.Load)
	if h.L2Writebacks == 0 {
		t.Fatal("dirty L1 victim's data lost: no L2 writeback observed")
	}
}

func TestZeroSizeAccessIgnored(t *testing.T) {
	h := testHier()
	h.Access(0x1000, 0, simmem.Load)
	if h.Loads != 0 && h.L1Misses != 0 {
		t.Fatal("zero-size access should be ignored")
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Loads: 10, Stores: 5, L1Misses: 2, Ops: 100}
	b := Stats{Loads: 4, Stores: 1, L1Misses: 1, Ops: 40}
	d := a.Sub(b)
	if d.Loads != 6 || d.Stores != 4 || d.L1Misses != 1 || d.Ops != 60 {
		t.Fatalf("Sub wrong: %+v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Fatalf("Add(Sub) != original: %+v vs %+v", s, a)
	}
	if a.References() != 15 {
		t.Fatalf("References=%d", a.References())
	}
	if a.Instructions() != 115 {
		t.Fatalf("Instructions=%d", a.Instructions())
	}
}

func TestQuickHierarchyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := testHier()
		for i := 0; i < 2000; i++ {
			kind := simmem.Kind(rng.Intn(3))
			h.Access(uint64(rng.Intn(1<<16)), uint32(1+rng.Intn(8)), kind)
		}
		// Conservation: L2 demand misses cannot exceed L1 misses;
		// prefetch L1 hits cannot exceed prefetches; the L1's raw
		// counter agrees with the hierarchy's.
		if h.L2Misses > h.L1Misses+h.Prefetches {
			return false
		}
		if h.PrefetchL1Hits > h.Prefetches {
			return false
		}
		if h.L1.CheckInvariant() != nil || h.L2.CheckInvariant() != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := testHier()
	h.Access(0x1000, 4, simmem.Load)
	h.Ops(10)
	h.Reset()
	if h.Stats != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", h.Stats)
	}
	if h.L1.Occupancy() != 0 || h.L2.Occupancy() != 0 {
		t.Fatal("caches not cleared")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	h := testHier()
	h.Access(0x1000, 4, simmem.Load)
	s := h.Snapshot()
	h.Access(0x5000, 4, simmem.Load)
	if s.Loads != 1 {
		t.Fatal("snapshot mutated by later accesses")
	}
}

func TestAccessRunThroughHierarchy(t *testing.T) {
	h := testHier()
	simmem.AccessRun(h, 0x7000, 256, simmem.Load)
	if h.LoadBytes != 256 {
		t.Fatalf("LoadBytes=%d want 256", h.LoadBytes)
	}
	// 256 aligned bytes = 8 L1 lines.
	if h.L1Misses != 8 {
		t.Fatalf("L1Misses=%d want 8", h.L1Misses)
	}
	// = 2 L2 lines.
	if h.L2Misses != 2 {
		t.Fatalf("L2Misses=%d want 2", h.L2Misses)
	}
}

// TestRunStridedEquivalentToPerRowRuns: the strided fast path must be
// event-for-event equivalent to per-row Run calls, for every kind,
// under random block shapes.
func TestRunStridedEquivalentToPerRowRuns(t *testing.T) {
	a, b := testHier(), testHier()
	rng := rand.New(rand.NewSource(3))
	kinds := []simmem.Kind{simmem.Load, simmem.Store, simmem.Prefetch}
	units := []uint32{1, 1, 4, 8}
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1 << 14))
		rowBytes := 1 + rng.Intn(40)
		stride := 32 + rng.Intn(300)
		rows := 1 + rng.Intn(20)
		kind := kinds[rng.Intn(len(kinds))]
		unit := units[rng.Intn(len(units))]
		a.RunStrided(addr, rowBytes, stride, rows, unit, kind)
		rowAddr := addr
		for r := 0; r < rows; r++ {
			b.Run(rowAddr, rowBytes, unit, kind)
			rowAddr += uint64(stride)
		}
		if a.Snapshot() != b.Snapshot() {
			t.Fatalf("step %d: strided %+v != per-row %+v", i, a.Snapshot(), b.Snapshot())
		}
	}
	if err := a.L1.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchRunCountsPerLine: prefetch runs count one prefetch per
// covered line, the convention shared with simmem.Count.
func TestPrefetchRunCountsPerLine(t *testing.T) {
	h := testHier()
	h.Run(0x1000, 96, 1, simmem.Prefetch) // 3 lines of 32 B
	if h.Prefetches != 3 {
		t.Fatalf("prefetch run over 3 lines counted %d", h.Prefetches)
	}
	var c simmem.Count
	c.LineBytes = h.L1.LineBytes()
	c.Run(0x1000, 96, 1, simmem.Prefetch)
	if c.Prefetches != h.Prefetches {
		t.Fatalf("Count (%d) and Hierarchy (%d) disagree on prefetch run", c.Prefetches, h.Prefetches)
	}
}

// TestPrefetchRunEndsAtTopOfAddressSpace: a prefetch run probes the
// lines AccessRows would walk. A row ending in the last lines before
// 2^64 stops at the last line instead of wrapping to address 0 and
// running on, and a row whose end wraps covers no line.
func TestPrefetchRunEndsAtTopOfAddressSpace(t *testing.T) {
	for _, tc := range []struct {
		addr             uint64
		rowBytes, stride int
		rows             int
		want             uint64
	}{
		{^uint64(0) - 39, 30, 0, 1, 2},  // the last two lines
		{^uint64(0) - 31, 32, 0, 1, 1},  // ends on the last byte
		{^uint64(0) - 95, 40, 32, 3, 4}, // the third row wraps
	} {
		h := testHier()
		done := make(chan struct{})
		go func() {
			h.RunStrided(tc.addr, tc.rowBytes, tc.stride, tc.rows, 1, simmem.Prefetch)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("prefetch run at %#x did not return", tc.addr)
		}
		if h.Prefetches != tc.want {
			t.Errorf("prefetch run at %#x: %d prefetches, want %d", tc.addr, h.Prefetches, tc.want)
		}
	}
}

// TestHierarchyAllocatesNothing: the demand paths hand AccessRows a
// method value per call; it must stay on the stack, so a simulated
// reference costs no allocation, hit or miss.
func TestHierarchyAllocatesNothing(t *testing.T) {
	h := testHier()
	addr := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		h.Access(addr+4, 8, simmem.Store)
		h.Run(addr, 100, 4, simmem.Load)
		h.RunStrided(addr, 24, 352, 16, 1, simmem.Load)
		h.Access(addr+4096, 0, simmem.Prefetch)
		addr += 4096 // keep missing
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per round, want 0", allocs)
	}
	if h.L1Misses == 0 || h.L2Misses == 0 {
		t.Fatalf("no misses exercised: %+v", h.Stats)
	}
}

// TestPhasesAccumulate: the phase accumulator's begin-snapshot /
// end-delta rule, one step list per case. Each step opens (begin) or
// closes a phase at a counter value, carried in Loads.
func TestPhasesAccumulate(t *testing.T) {
	type step struct {
		begin bool
		name  string
		at    uint64
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  map[string]uint64 // nil: no phase ended
	}{
		{"end without begin is ignored", []step{{false, "a", 5}}, nil},
		{"end after its begin closed is ignored", []step{{true, "a", 1}, {false, "a", 4}, {false, "a", 9}}, map[string]uint64{"a": 3}},
		{"pairs of one name accumulate", []step{{true, "a", 1}, {false, "a", 4}, {true, "a", 10}, {false, "a", 12}}, map[string]uint64{"a": 5}},
		{"a second begin restarts the snapshot", []step{{true, "a", 1}, {true, "a", 6}, {false, "a", 8}}, map[string]uint64{"a": 2}},
		{"names overlap independently", []step{{true, "a", 1}, {true, "b", 3}, {false, "a", 7}, {false, "b", 10}}, map[string]uint64{"a": 6, "b": 7}},
		{"an open phase has no total", []step{{true, "a", 1}, {true, "b", 2}, {false, "b", 5}}, map[string]uint64{"b": 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p Phases
			for _, s := range tc.steps {
				at := Stats{Loads: s.at, L2Misses: 2 * s.at}
				if s.begin {
					p.Begin(s.name, at)
				} else {
					p.End(s.name, at)
				}
			}
			got := p.Totals()
			if len(got) != len(tc.want) || (got == nil) != (tc.want == nil) {
				t.Fatalf("totals %v, want %v", got, tc.want)
			}
			for name, loads := range tc.want {
				if want := (Stats{Loads: loads, L2Misses: 2 * loads}); got[name] != want {
					t.Fatalf("phase %s = %+v, want %+v", name, got[name], want)
				}
			}
		})
	}
}

// TestHierarchyPhases: a hierarchy brackets its own counters as a phase
// recorder, and Reset drops its phases with them.
func TestHierarchyPhases(t *testing.T) {
	h := testHier()
	h.Access(0x1000, 4, simmem.Load)
	h.PhaseBegin("vop")
	h.Access(0x2000, 4, simmem.Store)
	h.Ops(3)
	h.PhaseEnd("vop")
	h.Access(0x3000, 4, simmem.Load)
	want := Stats{Stores: 1, StoreBytes: 4, Ops: 3, L1Misses: 1, L2Accesses: 1, L2Misses: 1}
	if got := h.Phases.Totals()["vop"]; got != want {
		t.Fatalf("phase vop = %+v, want %+v", got, want)
	}
	h.Reset()
	if h.Phases.Totals() != nil {
		t.Fatalf("phases survive Reset: %v", h.Phases.Totals())
	}
}

// TestCountL2: the L2 rule. Every access counts; a demand miss is an
// L2 miss and an install never is; a dirty victim either displaces is
// a writeback.
func TestCountL2(t *testing.T) {
	for _, tc := range []struct {
		r         Result
		writeback bool
		want      Stats
	}{
		{Result{Hit: true}, false, Stats{L2Accesses: 1}},
		{Result{Hit: true}, true, Stats{L2Accesses: 1}},
		{Result{}, false, Stats{L2Accesses: 1, L2Misses: 1}},
		{Result{}, true, Stats{L2Accesses: 1}},
		{Result{Evicted: true, EvictedDirty: true}, false, Stats{L2Accesses: 1, L2Misses: 1, L2Writebacks: 1}},
		{Result{Evicted: true, EvictedDirty: true}, true, Stats{L2Accesses: 1, L2Writebacks: 1}},
		{Result{Evicted: true}, true, Stats{L2Accesses: 1}},
	} {
		var s Stats
		s.CountL2(tc.r, tc.writeback)
		if s != tc.want {
			t.Errorf("CountL2(%+v, %v) = %+v, want %+v", tc.r, tc.writeback, s, tc.want)
		}
	}
}
