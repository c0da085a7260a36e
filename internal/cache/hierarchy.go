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

// CountL2 is the L2 rule: it counts one L2 access whose result is r.
// A writeback install (a dirty L1 victim written into L2) is an access
// but never a demand miss: the data travels L1→L2 without a DRAM fill
// (the victim is a full L1 line and the enclosing L2 line is present in
// the inclusive common case). A demand access that misses is an L2
// miss. Either way, a dirty L2 victim the access displaces is DRAM
// writeback traffic. The Cache's own Misses counter is raw and includes
// installs.
func (s *Stats) CountL2(r Result, writeback bool) {
	s.L2Accesses++
	if r.Hit {
		return
	}
	if !writeback {
		s.L2Misses++
	}
	if r.EvictedDirty {
		s.L2Writebacks++
	}
}

// Phases accumulates counter deltas per named phase: Begin snapshots
// the counters a phase starts at, and End adds how far they moved since
// to the phase's total. An End without an open Begin is ignored, a
// second Begin restarts the open snapshot, and phases of different
// names overlap independently. The zero Phases is empty.
type Phases struct {
	open, totals map[string]Stats
}

// Begin opens phase name at counters at.
func (p *Phases) Begin(name string, at Stats) {
	if p.open == nil {
		p.open = map[string]Stats{}
	}
	p.open[name] = at
}

// End closes phase name at counters at, adding the delta since its
// Begin to the phase's total.
func (p *Phases) End(name string, at Stats) {
	s, ok := p.open[name]
	if !ok {
		return
	}
	delete(p.open, name)
	if p.totals == nil {
		p.totals = map[string]Stats{}
	}
	p.totals[name] = p.totals[name].Add(at.Sub(s))
}

// Totals returns each ended phase's accumulated delta; nil if no phase
// has ended.
func (p *Phases) Totals() map[string]Stats { return p.totals }

// L1Side is the first level of a hierarchy: it counts every load,
// store, prefetch and operation, simulates the L1 and counts its
// misses, and hands each miss on to the next level, which counts
// whatever happens there. A Hierarchy's next level is its own L2;
// trace.L2Filter's is the recorder of the L2-bound stream.
type L1Side struct {
	L1 *Cache
	Stats
	// next receives each L1 miss in order: the writeback install of a
	// dirty victim's line (writeback true), then the demand fill of the
	// missing address.
	next func(addr uint64, writeback bool)
}

// NewL1Side returns the L1 side of a hierarchy with L1 geometry l1 that
// sends its misses to next. Like New, it panics on invalid geometry.
func NewL1Side(l1 Config, next func(addr uint64, writeback bool)) L1Side {
	return L1Side{L1: New(l1), next: next}
}

var (
	_ simmem.Tracer        = (*L1Side)(nil)
	_ simmem.StridedTracer = (*L1Side)(nil)
)

// Access implements simmem.Tracer. Accesses that straddle an L1 line
// boundary are split per line, as the hardware would split them into
// separate cache references (the compiler mostly avoids such accesses;
// the split keeps the model exact regardless). A load or store
// references each line at its line-aligned address, and an L1 miss
// asks the next level for that address; a prefetch probes with its own
// address.
func (s *L1Side) Access(addr uint64, size uint32, kind simmem.Kind) {
	switch kind {
	case simmem.Load:
		s.Loads++
		s.LoadBytes += uint64(size)
	case simmem.Store:
		s.Stores++
		s.StoreBytes += uint64(size)
	case simmem.Prefetch:
		s.prefetch(addr)
		return
	}
	s.L1.AccessRows(addr, int(size), 0, 1, kind == simmem.Store, s.l1Miss)
}

// prefetch probes L1 with one prefetch of addr.
func (s *L1Side) prefetch(addr uint64) {
	s.Prefetches++
	// A prefetch that hits L1 is a wasted instruction slot; the R12K
	// counts these. It does not re-reference the hierarchy.
	if s.L1.Lookup(addr) {
		s.PrefetchL1Hits++
		return
	}
	if r1 := s.L1.Access(addr, false); !r1.Hit {
		s.l1Miss(addr, r1)
	}
}

// Run implements simmem.Tracer: a contiguous run of n bytes referenced
// in unit-sized accesses, the one-row case of RunStrided.
func (s *L1Side) Run(addr uint64, n int, unit uint32, kind simmem.Kind) {
	s.RunStrided(addr, n, 0, 1, unit, kind)
}

// RunStrided implements simmem.StridedTracer: rows runs of rowBytes
// bytes, stride bytes apart. The graduated-operation counters advance
// by rowBytes/unit per row, but each covered L1 line is probed exactly
// once per row — consecutive same-line references cannot change any
// policy's state in between, so the hit/miss outcome is identical to
// per-access probing at a fraction of the simulation cost. The lines go
// through Cache.AccessRows: hits resolve inside the L1, and only misses
// reach the next level. The SAD and compensation kernels deliver their
// blocks through this path, so it carries most of the simulated stream.
func (s *L1Side) RunStrided(addr uint64, rowBytes, stride, rows int, unit uint32, kind simmem.Kind) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	if kind == simmem.Prefetch {
		// Prefetch runs degenerate to per-line prefetch probes.
		s.L1.EachLine(addr, rowBytes, stride, rows, s.prefetch)
		return
	}
	refs := uint64(rows) * simmem.RunRefs(rowBytes, unit)
	bytes := uint64(rows) * uint64(rowBytes)
	write := kind == simmem.Store
	if write {
		s.Stores += refs
		s.StoreBytes += bytes
	} else {
		s.Loads += refs
		s.LoadBytes += bytes
	}
	s.L1.AccessRows(addr, rowBytes, stride, rows, write, s.l1Miss)
}

// l1Miss handles one L1 reference that missed with result r1: the
// dirty victim's writeback install into the next level, then the demand
// fill of addr.
func (s *L1Side) l1Miss(addr uint64, r1 Result) {
	s.L1Misses++
	if r1.EvictedDirty {
		s.L1Writebacks++
		s.next(r1.EvictedLine<<s.L1.lineShift, true)
	}
	s.next(addr, false)
}

// Ops implements simmem.Tracer.
func (s *L1Side) Ops(n uint64) { s.Stats.Ops += n }

// Hierarchy is a two-level inclusive data-cache hierarchy implementing
// simmem.Tracer and the codec's phase recorder. Its L1 side counts the
// references and L1 misses; each miss reaches its L2, where CountL2
// counts the access, and an L2 miss goes to (counted) DRAM. L1 victims
// that are dirty are written back into L2; dirty L2 victims count as
// DRAM writeback traffic.
type Hierarchy struct {
	L1Side
	L2 *Cache
	// Phases holds the per-phase Stats deltas that PhaseBegin and
	// PhaseEnd bracket.
	Phases Phases
}

// NewHierarchy builds the two-level hierarchy. Like New, it panics on
// invalid geometry; ingress paths validate each level with
// Config.Validate or TryNew first.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	h := &Hierarchy{L2: New(l2)}
	h.L1Side = NewL1Side(l1, h.l2Access)
	return h
}

// l2Access is the next level of the hierarchy's L1 side: one access to
// its L2, counted by the L2 rule.
func (h *Hierarchy) l2Access(addr uint64, writeback bool) {
	h.CountL2(h.L2.Access(addr, writeback), writeback)
}

// PhaseBegin implements the codec's PhaseRecorder.
func (h *Hierarchy) PhaseBegin(name string) { h.Phases.Begin(name, h.Stats) }

// PhaseEnd implements the codec's PhaseRecorder.
func (h *Hierarchy) PhaseEnd(name string) { h.Phases.End(name, h.Stats) }

// Snapshot returns a copy of the current counters.
func (h *Hierarchy) Snapshot() Stats { return h.Stats }

// Reset clears both cache levels, all counters and the phases.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.Stats = Stats{}
	h.Phases = Phases{}
}
