package cache

import (
	"repro/internal/simmem"
)

// Stats is the raw event-counter block the hierarchy maintains. The
// fields mirror the R10K/R12K countable events used by the paper
// (graduated loads, graduated stores, primary data cache misses,
// secondary data cache misses, writebacks, prefetch instructions and
// prefetches hitting the primary cache) plus the graduated-instruction
// estimate fed in through Ops.
type Stats struct {
	Loads          uint64
	Stores         uint64
	LoadBytes      uint64
	StoreBytes     uint64
	Ops            uint64 // non-memory graduated instructions (estimate)
	L1Misses       uint64
	L1Writebacks   uint64
	L2Accesses     uint64
	L2Misses       uint64
	L2Writebacks   uint64
	Prefetches     uint64
	PrefetchL1Hits uint64
}

// Sub returns s - b, the counter delta across a phase.
func (s Stats) Sub(b Stats) Stats {
	return Stats{
		Loads:          s.Loads - b.Loads,
		Stores:         s.Stores - b.Stores,
		LoadBytes:      s.LoadBytes - b.LoadBytes,
		StoreBytes:     s.StoreBytes - b.StoreBytes,
		Ops:            s.Ops - b.Ops,
		L1Misses:       s.L1Misses - b.L1Misses,
		L1Writebacks:   s.L1Writebacks - b.L1Writebacks,
		L2Accesses:     s.L2Accesses - b.L2Accesses,
		L2Misses:       s.L2Misses - b.L2Misses,
		L2Writebacks:   s.L2Writebacks - b.L2Writebacks,
		Prefetches:     s.Prefetches - b.Prefetches,
		PrefetchL1Hits: s.PrefetchL1Hits - b.PrefetchL1Hits,
	}
}

// Add returns s + b.
func (s Stats) Add(b Stats) Stats {
	return Stats{
		Loads:          s.Loads + b.Loads,
		Stores:         s.Stores + b.Stores,
		LoadBytes:      s.LoadBytes + b.LoadBytes,
		StoreBytes:     s.StoreBytes + b.StoreBytes,
		Ops:            s.Ops + b.Ops,
		L1Misses:       s.L1Misses + b.L1Misses,
		L1Writebacks:   s.L1Writebacks + b.L1Writebacks,
		L2Accesses:     s.L2Accesses + b.L2Accesses,
		L2Misses:       s.L2Misses + b.L2Misses,
		L2Writebacks:   s.L2Writebacks + b.L2Writebacks,
		Prefetches:     s.Prefetches + b.Prefetches,
		PrefetchL1Hits: s.PrefetchL1Hits + b.PrefetchL1Hits,
	}
}

// References returns graduated loads + stores.
func (s Stats) References() uint64 { return s.Loads + s.Stores }

// Instructions estimates graduated instructions: memory operations plus
// the ALU/branch estimate reported by the kernels.
func (s Stats) Instructions() uint64 {
	return s.Loads + s.Stores + s.Prefetches + s.Ops
}

// Hierarchy is a two-level inclusive data-cache hierarchy implementing
// simmem.Tracer. An access that misses L1 probes L2; an L2 miss goes to
// (counted) DRAM. L1 victims that are dirty are written back into L2;
// dirty L2 victims count as DRAM writeback traffic.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	Stats
}

// NewHierarchy builds the two-level hierarchy. Like New, it panics on
// invalid geometry; ingress paths validate each level with
// Config.Validate or TryNew first.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: New(l2)}
}

var (
	_ simmem.Tracer        = (*Hierarchy)(nil)
	_ simmem.StridedTracer = (*Hierarchy)(nil)
)

// Access implements simmem.Tracer. Accesses that straddle an L1 line
// boundary are split per line, as the hardware would split them into
// separate cache references (the compiler mostly avoids such accesses;
// the split keeps the model exact regardless). A load or store
// references each line at its line-aligned address, and an L1 miss
// asks L2 for that address, as L2Filter records it; a prefetch probes
// with its own address.
func (h *Hierarchy) Access(addr uint64, size uint32, kind simmem.Kind) {
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
	h.L1.AccessRows(addr, int(size), 0, 1, kind == simmem.Store, h.l1Miss)
}

// prefetch probes L1 with one prefetch of addr.
func (h *Hierarchy) prefetch(addr uint64) {
	h.Prefetches++
	// A prefetch that hits L1 is a wasted instruction slot; the R12K
	// counts these. It does not re-reference the hierarchy.
	if h.L1.Lookup(addr) {
		h.PrefetchL1Hits++
		return
	}
	if r1 := h.L1.Access(addr, false); !r1.Hit {
		h.l1Miss(addr, r1)
	}
}

// Run implements simmem.Tracer: a contiguous run of n bytes referenced
// in unit-sized accesses, the one-row case of RunStrided.
func (h *Hierarchy) Run(addr uint64, n int, unit uint32, kind simmem.Kind) {
	h.RunStrided(addr, n, 0, 1, unit, kind)
}

// RunStrided implements simmem.StridedTracer: rows runs of rowBytes
// bytes, stride bytes apart. The graduated-operation counters advance
// by rowBytes/unit per row, but each covered L1 line is probed exactly
// once per row — consecutive same-line references cannot change any
// policy's state in between, so the hit/miss outcome is identical to
// per-access probing at a fraction of the simulation cost. The lines go
// through Cache.AccessRows, the row walker L2Filter shares: hits
// resolve inside the L1, and only misses reach L2. The SAD and
// compensation kernels deliver their blocks through this path, so it
// carries most of the simulated stream.
func (h *Hierarchy) RunStrided(addr uint64, rowBytes, stride, rows int, unit uint32, kind simmem.Kind) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	if kind == simmem.Prefetch {
		// Prefetch runs degenerate to per-line prefetch probes.
		h.L1.EachLine(addr, rowBytes, stride, rows, h.prefetch)
		return
	}
	refs := uint64(rows) * simmem.RunRefs(rowBytes, unit)
	bytes := uint64(rows) * uint64(rowBytes)
	write := kind == simmem.Store
	if write {
		h.Stores += refs
		h.StoreBytes += bytes
	} else {
		h.Loads += refs
		h.LoadBytes += bytes
	}
	h.L1.AccessRows(addr, rowBytes, stride, rows, write, h.l1Miss)
}

// l1Miss handles one L1 reference that missed with result r1: the
// dirty victim's writeback into L2, then the demand fill of addr.
func (h *Hierarchy) l1Miss(addr uint64, r1 Result) {
	h.L1Misses++
	if r1.EvictedDirty {
		h.L1Writebacks++
		// The dirty L1 victim is written into L2. With an inclusive L2
		// this is a hit that dirties the line; count it as an L2 access
		// but not a demand miss even in the (rare, non-inclusive) case
		// it is absent.
		// Writeback installs are not demand misses: the data travels
		// L1→L2 without a DRAM fill (the victim is a full L1 line and
		// the enclosing L2 line is present in the inclusive common
		// case). Only a dirty L2 victim displaced by the install adds
		// DRAM traffic. Hierarchy.L2Misses (demand misses) is therefore
		// not incremented here; the Cache's internal Misses counter is
		// raw and includes installs.
		wbAddr := r1.EvictedLine << h.L1.lineShift
		h.L2Accesses++
		r2 := h.L2.Access(wbAddr, true)
		if !r2.Hit && r2.EvictedDirty {
			h.L2Writebacks++
		}
	}
	// Demand fill from L2.
	h.L2Accesses++
	r2 := h.L2.Access(addr, false)
	if !r2.Hit {
		h.L2Misses++
		if r2.EvictedDirty {
			h.L2Writebacks++
		}
	}
}

// Ops implements simmem.Tracer.
func (h *Hierarchy) Ops(n uint64) { h.Stats.Ops += n }

// Snapshot returns a copy of the current counters.
func (h *Hierarchy) Snapshot() Stats { return h.Stats }

// Reset clears both cache levels and all counters.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.Stats = Stats{}
}
