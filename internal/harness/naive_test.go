package harness

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/perf"
	"repro/internal/simmem"
)

// naiveHierarchy is the plainest two-level model that counts as
// cache.Hierarchy does: every line a reference covers goes through one
// cache.Access, with no AccessRows call, so none of the row kernel's
// inline hits, last-way checks or repeat ring.
type naiveHierarchy struct {
	l1, l2 *cache.Cache
	cache.Stats
}

func (h *naiveHierarchy) Access(addr uint64, size uint32, kind simmem.Kind) {
	switch kind {
	case simmem.Load:
		h.Loads++
		h.LoadBytes += uint64(size)
	case simmem.Store:
		h.Stores++
		h.StoreBytes += uint64(size)
	case simmem.Prefetch:
		h.prefetch(addr)
		return
	}
	h.lines(addr, int(size), 0, 1, func(a uint64) { h.reference(a, kind == simmem.Store) })
}

func (h *naiveHierarchy) Run(addr uint64, n int, unit uint32, kind simmem.Kind) {
	h.RunStrided(addr, n, 0, 1, unit, kind)
}

func (h *naiveHierarchy) RunStrided(addr uint64, rowBytes, stride, rows int, unit uint32, kind simmem.Kind) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	if kind == simmem.Prefetch {
		h.lines(addr, rowBytes, stride, rows, h.prefetch)
		return
	}
	refs := uint64(rows) * simmem.RunRefs(rowBytes, unit)
	bytes := uint64(rows) * uint64(rowBytes)
	if kind == simmem.Store {
		h.Stores += refs
		h.StoreBytes += bytes
	} else {
		h.Loads += refs
		h.LoadBytes += bytes
	}
	h.lines(addr, rowBytes, stride, rows, func(a uint64) { h.reference(a, kind == simmem.Store) })
}

func (h *naiveHierarchy) Ops(n uint64) { h.Stats.Ops += n }

// lines visits the line-aligned address of every L1 line the rows
// cover, row by row; a row whose end wraps the address space covers
// none.
func (h *naiveHierarchy) lines(addr uint64, rowBytes, stride, rows int, visit func(uint64)) {
	if rowBytes <= 0 {
		return
	}
	lb := uint64(h.l1.LineBytes())
	for ; rows > 0; rows-- {
		first, last := addr&^(lb-1), (addr+uint64(rowBytes)-1)&^(lb-1)
		addr += uint64(stride)
		if last < first {
			continue
		}
		for a := first; ; a += lb {
			visit(a)
			if a == last {
				break
			}
		}
	}
}

// reference is one L1 reference of the line at a.
func (h *naiveHierarchy) reference(a uint64, write bool) {
	if r := h.l1.Access(a, write); !r.Hit {
		h.l1Miss(a, r)
	}
}

func (h *naiveHierarchy) prefetch(addr uint64) {
	h.Prefetches++
	if h.l1.Lookup(addr) {
		h.PrefetchL1Hits++
		return
	}
	if r := h.l1.Access(addr, false); !r.Hit {
		h.l1Miss(addr, r)
	}
}

// l1Miss writes a dirty L1 victim back into L2, then fills addr from
// L2; an install is an L2 access but not a demand miss.
func (h *naiveHierarchy) l1Miss(addr uint64, r cache.Result) {
	h.L1Misses++
	if r.EvictedDirty {
		h.L1Writebacks++
		h.L2Accesses++
		if r2 := h.l2.Access(r.EvictedLine*uint64(h.l1.LineBytes()), true); !r2.Hit && r2.EvictedDirty {
			h.L2Writebacks++
		}
	}
	h.L2Accesses++
	if r2 := h.l2.Access(addr, false); !r2.Hit {
		h.L2Misses++
		if r2.EvictedDirty {
			h.L2Writebacks++
		}
	}
}

// TestFilteredReplayMatchesNaiveHierarchy checks the fast cache paths
// against the naive model at product scale: the CIF sweep capture
// (352×288, six frames, seed 1) through the paper L1 under each
// replacement policy and a 1 MB L2. The naive hierarchy's Stats must
// equal those of FilterGeometryL1 (the row kernel, then the chunked
// L2-bound stream) followed by ReplayL2Cells (the fused pass).
func TestFilteredReplayMatchesNaiveHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("a CIF capture replayed five times through a per-line model in -short mode")
	}
	pin := captureHashPins[6]
	if pin.name != "CIF sweep capture" {
		t.Fatalf("capture pin 6 is %q, want the CIF sweep capture", pin.name)
	}
	ctx := WithStudy(context.Background(), NewStudy(true))
	tr, err := StudyFrom(ctx).EncodeTrace(pin.wl)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Hash().String(); got != pin.enc {
		t.Fatalf("capture hash %s, want the pinned %s", got, pin.enc)
	}
	for _, pol := range []cache.Policy{cache.PolicyLRU, cache.PolicyPLRU, cache.PolicyFIFO, cache.PolicyRandom, cache.PolicyVictim} {
		l1 := perf.O2R12K1MB().L1
		l1.Policy = pol
		naive := &naiveHierarchy{l1: cache.New(l1), l2: cache.New(GeometryL2For(l1, 1<<20))}
		tr.Replay(naive, nil)
		lt := FilterGeometryL1(ctx, tr, l1)
		_, stats := ReplayL2Cells(lt, []int{1 << 20})
		if stats[0] != naive.Stats {
			t.Errorf("policy %s: filtered replay of %d L2 events\n got %+v\nwant %+v (naive hierarchy)",
				pol, lt.Events(), stats[0], naive.Stats)
		}
	}
}
