// Package cache implements a trace-driven two-level cache and memory
// hierarchy model with the event counters of the MIPS R10000/R12000.
//
// The model is deliberately close to the SGI machines the paper measures:
// a split primary cache (we model the 32 KB 2-way data cache with 32-byte
// lines; instruction-cache misses are negligible in the paper and are not
// modelled), a unified set-associative write-back second-level cache of
// 1/2/8 MB with 128-byte lines, and interleaved SDRAM behind a 64-bit
// 133 MHz split-transaction bus.
//
// Accesses are fed through the simmem.Tracer interface; the hierarchy
// counts the events a hardware counter unit would count (graduated loads
// and stores, primary and secondary data-cache misses, writebacks,
// prefetches and prefetches that hit in L1).
package cache

import (
	"fmt"
)

// Config describes one cache level. The JSON tags are the wire shape
// used by service requests, batch manifests and distributed shard
// jobs; geometry arriving through any of those paths is validated (see
// TryNew) before a cache is built from it.
type Config struct {
	Name      string `json:"name,omitempty"`
	SizeBytes int    `json:"size"`
	LineBytes int    `json:"line"` // power of two
	Ways      int    `json:"ways"`
	// Policy selects the replacement policy (see policy.go). Empty
	// means LRU, so pre-policy configurations keep their meaning on
	// every wire shape.
	Policy Policy `json:"policy,omitempty"`
	// Seed parameterizes PolicyRandom's deterministic victim stream.
	// Zero selects the fixed default seed; any other value gives an
	// independent (still deterministic) stream for seed-sensitivity
	// studies.
	Seed uint64 `json:"seed,omitempty"`
}

// MaxSizeBytes bounds a single cache level's capacity (1 GiB — far
// above any geometry the study sweeps). The bound exists because
// geometries arrive in network requests and manifests: without it, a
// well-formed request naming an absurd size would pass the structural
// checks and then OOM the process inside TryNew's array allocation
// instead of returning an error.
const MaxSizeBytes = 1 << 30

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: nonpositive geometry %+v", c.Name, c)
	}
	if c.SizeBytes > MaxSizeBytes {
		return fmt.Errorf("cache %s: size %d exceeds the %d-byte bound", c.Name, c.SizeBytes, MaxSizeBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets*c.Ways != lines {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if err := c.Policy.Validate(); err != nil {
		return fmt.Errorf("cache %s: %w", c.Name, err)
	}
	if c.Policy == PolicyPLRU {
		if c.Ways&(c.Ways-1) != 0 {
			return fmt.Errorf("cache %s: tree-plru needs power-of-two ways, have %d", c.Name, c.Ways)
		}
		if c.Ways > 64 {
			return fmt.Errorf("cache %s: tree-plru supports at most 64 ways, have %d", c.Name, c.Ways)
		}
	}
	return nil
}

// Cache is one set-associative, write-back, write-allocate cache level
// with a configurable replacement policy (true LRU by default).
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      int

	// Flat arrays indexed by set*ways+way. Under LRU (and the victim
	// wrapper), ways within a set are kept in recency order: way 0 is
	// most recently used. Under the fixed-way policies (plru, fifo,
	// random) lines stay in the way they were installed in.
	tags  []uint64 // line-number tags (full address >> lineShift)
	valid []bool
	dirty []bool

	// Replacement-policy state (see policy.go). pol dispatches the
	// access path; state is one word per set (plru tree bits or the
	// fifo round-robin pointer); rng is the PolicyRandom stream;
	// victim is non-nil only for PolicyVictim.
	pol    uint8
	state  []uint64
	rng    uint64
	victim *victimBuf

	// Counters.
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	// VictimHits counts misses of the set array that were served by
	// the PolicyVictim buffer (always zero otherwise). Such accesses
	// count as hits in Accesses/Misses terms: no next-level reference
	// happens.
	VictimHits uint64
}

// New builds a cache from cfg. It panics on invalid geometry, which is
// a programming error for its callers: New is reserved for static
// machine descriptions (the built-in SGI platforms and compiled-in
// sweep axes). Geometry that arrives from outside the binary — service
// requests, manifests, distributed shard jobs — must go through TryNew
// (or validate with Config.Validate first) so a bad request is an
// error response, not a crashed process.
func New(cfg Config) *Cache {
	c, err := TryNew(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// TryNew builds a cache from cfg, returning an error on invalid
// geometry. This is the constructor for every ingress path where the
// geometry is data rather than code.
func TryNew(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		tags:      make([]uint64, lines),
		valid:     make([]bool, lines),
		dirty:     make([]bool, lines),
	}
	switch cfg.Policy {
	case "", PolicyLRU:
		c.pol = polLRU
	case PolicyVictim:
		c.pol = polLRU
		c.victim = newVictimBuf(VictimLines)
	case PolicyPLRU:
		c.pol = polPLRU
		c.state = make([]uint64, sets)
	case PolicyFIFO:
		c.pol = polFIFO
		c.state = make([]uint64, sets)
	case PolicyRandom:
		c.pol = polRandom
		c.rng = cfg.Seed
		if c.rng == 0 {
			c.rng = defaultSeed
		}
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// LineOf returns the line number containing addr.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// Lookup probes for the line containing addr without allocating. A
// line parked in the PolicyVictim buffer counts as present: the buffer
// sits beside the set array at this level, not behind it.
func (c *Cache) Lookup(addr uint64) bool {
	ln := addr >> c.lineShift
	set := int(ln&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[set+w] && c.tags[set+w] == ln {
			return true
		}
	}
	return c.victim != nil && c.victim.lookup(ln)
}

// Result of a cache access.
type Result struct {
	Hit          bool
	Evicted      bool   // a valid line was displaced
	EvictedDirty bool   // the displaced line was dirty (writeback needed)
	EvictedLine  uint64 // line number of the displaced line
}

// Access references the line containing addr, allocating on miss and
// marking dirty when write is true. The common hit path is kept minimal:
// tag match in LRU position 0 falls through with only the access counter
// incremented. Non-LRU policies dispatch to the fixed-way path up
// front so the LRU fast paths below stay exactly as they were; the
// victim-buffer probes sit on the miss path only and are skipped
// entirely (nil check) outside PolicyVictim.
func (c *Cache) Access(addr uint64, write bool) Result {
	if c.pol != polLRU {
		return c.accessIndexed(addr, write)
	}
	c.Accesses++
	ln := addr >> c.lineShift
	base := int(ln&c.setMask) * c.ways
	// Fast path: MRU hit.
	if c.valid[base] && c.tags[base] == ln {
		if write {
			c.dirty[base] = true
		}
		return Result{Hit: true}
	}
	// 2-way sets (the paper's L1 and L2 geometry) need no slice
	// shuffling: an LRU-way hit is a swap of the two slots, a miss
	// demotes the MRU slot and installs in its place.
	if c.ways == 2 {
		lru := base + 1
		if c.valid[lru] && c.tags[lru] == ln {
			c.tags[lru] = c.tags[base]
			c.tags[base] = ln
			d := c.dirty[lru]
			c.dirty[lru] = c.dirty[base]
			c.dirty[base] = d || write
			c.valid[lru] = c.valid[base]
			c.valid[base] = true
			return Result{Hit: true}
		}
		if c.victim != nil {
			if d, ok := c.victim.take(ln); ok {
				// Victim hit: swap — the line re-installs at MRU and the
				// displaced LRU-way line parks in the slot the hit freed,
				// so nothing leaves this level.
				c.VictimHits++
				if c.valid[lru] {
					c.victim.insert(c.tags[lru], c.dirty[lru])
				}
				c.tags[lru] = c.tags[base]
				c.dirty[lru] = c.dirty[base]
				c.valid[lru] = c.valid[base]
				c.tags[base] = ln
				c.valid[base] = true
				c.dirty[base] = d || write
				return Result{Hit: true}
			}
		}
		c.Misses++
		res := Result{}
		c.evictSlot(&res, lru)
		c.tags[lru] = c.tags[base]
		c.dirty[lru] = c.dirty[base]
		c.valid[lru] = c.valid[base]
		c.tags[base] = ln
		c.valid[base] = true
		c.dirty[base] = write
		return res
	}
	for w := 1; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == ln {
			// Move to MRU position.
			d := c.dirty[i]
			copy(c.tags[base+1:i+1], c.tags[base:i])
			copy(c.dirty[base+1:i+1], c.dirty[base:i])
			copy(c.valid[base+1:i+1], c.valid[base:i])
			c.tags[base] = ln
			c.valid[base] = true
			c.dirty[base] = d || write
			return Result{Hit: true}
		}
	}
	// Miss: victim is the LRU way (last slot).
	v := base + c.ways - 1
	if c.victim != nil {
		if d, ok := c.victim.take(ln); ok {
			c.VictimHits++
			if c.valid[v] {
				c.victim.insert(c.tags[v], c.dirty[v])
			}
			copy(c.tags[base+1:v+1], c.tags[base:v])
			copy(c.dirty[base+1:v+1], c.dirty[base:v])
			copy(c.valid[base+1:v+1], c.valid[base:v])
			c.tags[base] = ln
			c.valid[base] = true
			c.dirty[base] = d || write
			return Result{Hit: true}
		}
	}
	c.Misses++
	res := Result{}
	c.evictSlot(&res, v)
	copy(c.tags[base+1:v+1], c.tags[base:v])
	copy(c.dirty[base+1:v+1], c.dirty[base:v])
	copy(c.valid[base+1:v+1], c.valid[base:v])
	c.tags[base] = ln
	c.valid[base] = true
	c.dirty[base] = write
	return res
}

// FillClean installs the line containing addr in the clean state (used for
// L2 receiving an L1 writeback of a line it already holds would instead
// mark dirty; FillClean is used when warming or installing lines without
// an explicit demand reference semantic).
func (c *Cache) FillClean(addr uint64) Result { return c.Access(addr, false) }

// Reset clears contents, counters and replacement-policy state (the
// PolicyRandom stream rewinds to its seed, so a reset cache replays a
// stream identically to a fresh one).
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
	for i := range c.state {
		c.state[i] = 0
	}
	if c.pol == polRandom {
		c.rng = c.cfg.Seed
		if c.rng == 0 {
			c.rng = defaultSeed
		}
	}
	if c.victim != nil {
		c.victim.reset()
	}
	c.Accesses, c.Misses, c.Writebacks, c.VictimHits = 0, 0, 0, 0
}

// Occupancy returns the number of valid lines (for tests and diagnostics).
func (c *Cache) Occupancy() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
