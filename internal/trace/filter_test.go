package trace

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/simmem"
)

var propPolicies = []cache.Policy{"", cache.PolicyLRU, cache.PolicyPLRU, cache.PolicyFIFO, cache.PolicyRandom, cache.PolicyVictim}

// synthTrace records a random reference stream through a real Recorder:
// scalar accesses, flat and strided runs, op counts, phase markers
// (some unmatched) and, when withPrefetch is set, prefetches.
func synthTrace(rng *rand.Rand, records int, withPrefetch bool) *Trace {
	r := NewRecorder()
	names := []string{"dct", "quant", "mc", "orphan"}
	span := uint64(1 << (12 + rng.Intn(5)))
	hot := uint64(rng.Intn(int(span)))
	addr := func() uint64 {
		if rng.Intn(8) == 0 {
			hot = uint64(rng.Intn(int(span)))
		}
		if rng.Intn(3) == 0 {
			return uint64(rng.Intn(int(span)))
		}
		return (hot + uint64(rng.Intn(256))) % span
	}
	for i := 0; i < records; i++ {
		switch c := rng.Intn(20); {
		case c == 0:
			r.Ops(uint64(rng.Intn(5000)))
		case c == 1:
			if rng.Intn(2) == 0 {
				r.PhaseBegin(names[rng.Intn(len(names))])
			} else {
				r.PhaseEnd(names[rng.Intn(len(names))])
			}
		case c == 2 && withPrefetch:
			r.Access(addr(), 0, simmem.Prefetch)
		case c < 8:
			r.Run(addr(), 1+rng.Intn(300), 4, simmem.Kind(rng.Intn(2)))
		case c < 10:
			r.RunStrided(addr(), 1+rng.Intn(128), rng.Intn(256), 1+rng.Intn(6), 8, simmem.Kind(rng.Intn(2)))
		case c < 11 && withPrefetch:
			r.RunStrided(addr(), 1+rng.Intn(96), 64+rng.Intn(64), 1+rng.Intn(4), 0, simmem.Prefetch)
		default:
			r.Access(addr(), 1+uint32(rng.Intn(64)), simmem.Kind(rng.Intn(2)))
		}
	}
	return r.Finish()
}

// synthL2Trace builds a synthetic L2-bound stream with tunable locality
// plus randomly placed (and sometimes unmatched or nested) phase
// markers, some of them after the last event.
func synthL2Trace(rng *rand.Rand, events, lineSpan int) *L2Trace {
	t := &L2Trace{
		L1:     cache.Config{SizeBytes: 32 << 10, LineBytes: 32, Ways: 2},
		names:  []string{"alpha", "beta", "gamma", "orphan"},
		hcache: &hashCache{},
	}
	t.base = cache.Stats{Loads: 123, Stores: 45, LoadBytes: 999, Ops: 7}
	hot := uint64(rng.Intn(lineSpan))
	for i := 0; i < events; i++ {
		if rng.Intn(64) == 0 {
			t.marks = append(t.marks, l2Mark{
				pos:   len(t.events),
				name:  uint32(rng.Intn(len(t.names))),
				begin: rng.Intn(2) == 0,
				base:  cache.Stats{Loads: uint64(i), L1Misses: uint64(len(t.events)), Ops: uint64(rng.Intn(1000))},
			})
		}
		if rng.Intn(8) == 0 {
			hot = uint64(rng.Intn(lineSpan))
		}
		ln := hot
		if rng.Intn(4) == 0 {
			ln = uint64(rng.Intn(lineSpan))
		}
		ev := (ln * 32) << 1
		if rng.Intn(3) == 0 {
			ev |= 1 // writeback install
		}
		t.events = append(t.events, ev)
	}
	for i := 0; i < rng.Intn(3); i++ {
		t.marks = append(t.marks, l2Mark{
			pos:  len(t.events),
			name: uint32(rng.Intn(len(t.names))),
			base: cache.Stats{Loads: uint64(events)},
		})
	}
	return t
}

// filterTrace is the L1 filter pass as the harness runs it.
func filterTrace(tr *Trace, l1 cache.Config) *L2Trace {
	f := NewL2Filter(l1)
	tr.Replay(f, f)
	return f.Trace()
}

// TestL2FilterMatchesHierarchyProperty: for random traces (with and
// without prefetches), every replacement policy and random small
// geometries, the filtered replay equals a full-trace replay through a
// cache.Hierarchy, whole-run and per phase.
func TestL2FilterMatchesHierarchyProperty(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		tr := synthTrace(rng, 1500+rng.Intn(4000), seed%2 == 0)
		for _, pol := range propPolicies {
			l1 := cache.Config{SizeBytes: 1 << (9 + rng.Intn(4)), LineBytes: 32, Ways: 1 << rng.Intn(3), Policy: pol, Seed: uint64(seed)}
			l2 := cache.Config{SizeBytes: 1 << (13 + rng.Intn(3)), LineBytes: 128, Ways: 1 << rng.Intn(3), Policy: pol, Seed: uint64(seed)}
			live := newLiveHierarchy(l1, l2)
			tr.Replay(live.Hierarchy, live)
			whole, phases := filterTrace(tr, l1).Replay(l2)
			if whole != live.Snapshot() {
				t.Fatalf("seed %d policy %q: filtered whole = %+v, want %+v", seed, pol, whole, live.Snapshot())
			}
			if len(phases) != len(live.acc) {
				t.Fatalf("seed %d policy %q: phases %v, want %v", seed, pol, phases, live.acc)
			}
			for name, want := range live.acc {
				if got := phases[name]; got != want {
					t.Fatalf("seed %d policy %q phase %s: %+v, want %+v", seed, pol, name, got, want)
				}
			}
		}
	}
}

// TestL2ReplayManyMatchesSerial: the fused multi-config pass is
// byte-identical to standalone replays, with and without config-level
// parallelism.
func TestL2ReplayManyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lt := synthL2Trace(rng, 9000, 700)
	var cfgs []cache.Config
	for _, pol := range propPolicies {
		for _, size := range []int{1 << 12, 1 << 14, 1 << 16} {
			cfgs = append(cfgs, cache.Config{SizeBytes: size, LineBytes: 32, Ways: 2, Policy: pol})
		}
	}
	for _, workers := range []int{1, 4} {
		got := lt.ReplayMany(cfgs, workers)
		for i, cfg := range cfgs {
			wantWhole, wantPhases := lt.Replay(cfg)
			if got[i].Whole != wantWhole {
				t.Fatalf("workers %d config %d (%+v): whole = %+v, want %+v", workers, i, cfg, got[i].Whole, wantWhole)
			}
			if !reflect.DeepEqual(got[i].Phases, wantPhases) {
				t.Fatalf("workers %d config %d: phases mismatch", workers, i)
			}
		}
	}
}

// TestL2ReplayManyConcurrent runs several fan-out passes over one
// shared L2 trace at once, as a worker serving concurrent shards of one
// stored trace does; under -race it proves the passes share nothing but
// the read-only trace.
func TestL2ReplayManyConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lt := synthL2Trace(rng, 20000, 500)
	cfgs := []cache.Config{
		{SizeBytes: 1 << 14, LineBytes: 32, Ways: 2},
		{SizeBytes: 1 << 15, LineBytes: 32, Ways: 4},
		{SizeBytes: 1 << 14, LineBytes: 32, Ways: 2, Policy: cache.PolicyFIFO},
	}
	want := lt.ReplayMany(cfgs, 1)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := lt.ReplayMany(cfgs, 3); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent fused replay diverged")
			}
		}()
	}
	wg.Wait()
}

// TestL2FilterSharedTraceConcurrent filters one shared trace from
// several goroutines at once, as the farm's geometry rows do; under
// -race it proves the filters share nothing but the read-only trace.
func TestL2FilterSharedTraceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := synthTrace(rng, 20000, true)
	l1 := cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}
	want := filterTrace(tr, l1)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := filterTrace(tr, l1)
			if !reflect.DeepEqual(got.events, want.events) || got.base != want.base ||
				!reflect.DeepEqual(got.marks, want.marks) || !reflect.DeepEqual(got.names, want.names) {
				t.Errorf("concurrent filter diverged")
			}
		}()
	}
	wg.Wait()
}
