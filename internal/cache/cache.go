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
	"math/bits"
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
	tags  []uint64 // line-number tags (full address >> lineShift); noLine when invalid
	valid []bool
	dirty []bool

	// Replacement-policy state (see policy.go). pol dispatches the
	// access path; state is one word per set (plru tree bits or the
	// fifo round-robin pointer); rng is the PolicyRandom stream;
	// victim is non-nil only for PolicyVictim. lastWay, non-nil only
	// under the fixed-way policies, holds the way each set touched
	// last — the one way AccessRows may hit without a policy update.
	pol     uint8
	state   []uint64
	lastWay []uint32
	rng     uint64
	victim  *victimBuf

	// The repeat shortcut (see AccessRows). gen advances on every
	// reference that takes the Access path and on Reset: the only
	// changes to tag, order and policy state. recent holds the last
	// recentBlocks load blocks whose every line resolved inline, each
	// stamped with the gen it finished at; an entry is live while its
	// gen is current. next is the slot the next entry takes.
	gen    uint64
	recent [recentBlocks]recentBlock
	next   int

	// Counters.
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	// VictimHits counts misses of the set array that were served by
	// the PolicyVictim buffer (always zero otherwise). Such accesses
	// count as hits in Accesses/Misses terms: no next-level reference
	// happens.
	VictimHits uint64
	// RepeatLines counts the line references AccessRows resolved by
	// the repeat shortcut, without walking them; Accesses counts them
	// too. It measures the simulator, not the simulated machine, so no
	// Stats field carries it.
	RepeatLines uint64
}

// recentBlocks is the size of the repeat shortcut's ring.
const recentBlocks = 4

// recentBlock is one load block whose every line was an inline hit
// when its walk finished at generation gen.
type recentBlock struct {
	addr, rowBytes, stride uint64
	rows                   int
	gen                    uint64
	// lo is the first byte of the first row's first line, and lo+hull
	// the last byte of its last line.
	lo, hull uint64
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
		gen:       1, // the zero entries of recent are dead
	}
	for i := range c.tags {
		c.tags[i] = noLine
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
	if c.pol != polLRU {
		c.lastWay = make([]uint32, sets)
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

// noLine is the tag of every invalid slot. Only a 1-byte-line cache
// can name a line with it, so AccessRows compares tags alone and reads
// a valid flag only for that line.
const noLine = ^uint64(0)

// Result of a cache access.
type Result struct {
	Hit          bool
	Evicted      bool   // a valid line was displaced
	EvictedDirty bool   // the displaced line was dirty (writeback needed)
	EvictedLine  uint64 // line number of the displaced line
}

// AccessRows references every line covered by rows rows of rowBytes
// bytes, stride bytes apart from addr: row by row, first line to last,
// exactly the references of one Access per line-aligned address. A row
// whose end wraps the address space covers no line. Hits resolve
// inline, without a call: a recency-ordered set (LRU, victim) checks
// way 0, its MRU line; a fixed-way set (PLRU, FIFO, random) checks the
// way it touched last, which it may touch again with no policy update
// — PLRU's tree already points away from that way, and FIFO and random
// hits change no state. Every other reference takes the Access path,
// and miss receives the line-aligned address and Result of each one
// that missed. The kernel allocates nothing, and miss does not escape,
// so a method value made per call stays on the caller's stack.
//
// Load rows that repeat a recent block are not walked at all. An
// inline load hit changes no cache state, so after a load block walks
// entirely inline, every line it covers stays an inline hit until the
// next Access-path reference or Reset. The kernel remembers the last
// recentBlocks such blocks with the generation they finished at. A
// later load block whose leading rows lie in a live entry adds their
// line count to Accesses (and RepeatLines) and walks only the rest.
// Stores, which dirty their lines, and blocks whose span wraps the
// address space always walk.
func (c *Cache) AccessRows(addr uint64, rowBytes, stride, rows int, write bool, miss func(addr uint64, r Result)) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	done := 0
	if !write {
		if done = c.repeat(addr, uint64(rowBytes), uint64(stride), rows); done == rows {
			return
		}
	}
	gen := c.gen
	w := rowWalk{addr: addr + uint64(done)*uint64(stride), end: uint64(rowBytes) - 1, stride: uint64(stride), rows: rows - done}
	for {
		ln, ok := c.walkHits(&w, write)
		if !ok {
			break
		}
		if r := c.Access(ln<<c.lineShift, write); !r.Hit {
			miss(ln<<c.lineShift, r)
		}
	}
	if !write && c.gen == gen {
		c.remember(addr, rowBytes, stride, rows)
	}
}

// repeat resolves the leading rows of a load block that lie in a live
// recent block and returns how many it resolved. The block must have
// the entry's stride, and its first row must lie in the lines of the
// entry's first row; then up to the entry's row count, row r of the
// block lies in the entry's row r. Both rows start the same distance
// apart, so whether row r stays inside depends only on where the
// entry's row r starts within a line. With equal strides that phase
// repeats every lineBytes/gcd(stride mod lineBytes, lineBytes) rows:
// every row for 352-byte rows over 32-byte lines, every other row for
// 176- or 720-byte ones. Checking one row per phase therefore checks
// them all, and counts their lines. An entry's span does not wrap the
// address space (remember), so neither do the rows it holds.
func (c *Cache) repeat(addr, rowBytes, stride uint64, rows int) int {
	mask := uint64(1)<<c.lineShift - 1
	// Newest first: entries are stamped in the order they were made, so
	// behind the first dead one every entry is dead.
	for k := 1; k <= recentBlocks; k++ {
		e := &c.recent[(c.next-k)&(recentBlocks-1)]
		if e.gen != c.gen {
			return 0
		}
		// q is the block's first byte counted from the entry's first
		// line; below that line it wraps past hull.
		q := addr - e.lo
		if e.stride != stride || q > e.hull || q+rowBytes-1 > e.hull {
			continue
		}
		n := min(rows, e.rows)
		lines := (q+rowBytes-1)>>c.lineShift - q>>c.lineShift + 1
		if stride&mask == 0 || n == 1 {
			lines *= uint64(n)
		} else if lines = e.phases(addr, rowBytes, n, c.lineShift, lines); lines == 0 {
			continue
		}
		c.Accesses += lines
		c.RepeatLines += lines
		return n
	}
	return 0
}

// phases counts the lines of a block whose first row, of lines0 lines,
// lies in e's first row, and whose stride, e's, moves the row phase. It
// checks the other rows of one phase period and returns 0 if one of
// them reaches past the lines of e's row.
func (e *recentBlock) phases(addr, rowBytes uint64, rows int, shift uint, lines0 uint64) uint64 {
	mask := uint64(1)<<shift - 1
	log := shift - uint(bits.TrailingZeros64(e.stride&mask)) // log2 of the period
	n, full, rem := rows, uint64(1), 0
	if period := 1 << log; period < rows {
		n, full, rem = period, uint64(rows>>log), rows&(period-1)
	}
	lines, head := lines0, uint64(0)
	if rem > 0 {
		head = lines0
	}
	ph, off := e.addr&mask, addr-e.addr
	for r := 1; r < n; r++ {
		// Row r spans bytes q..q+rowBytes-1 counted from the line that
		// starts e's row r, whose lines end at byte hull.
		ph = (ph + e.stride) & mask
		q, hull := ph+off, (ph+e.rowBytes-1)|mask
		if q > hull || q+rowBytes-1 > hull {
			return 0
		}
		k := (q+rowBytes-1)>>shift - q>>shift + 1
		lines += k
		if r < rem {
			head += k
		}
	}
	return full*lines + head
}

// remember records a load block whose every line resolved inline,
// unless its stride is negative or its span — from its first row's
// first byte to its last row's last byte — wraps the address space.
func (c *Cache) remember(addr uint64, rowBytes, stride, rows int) {
	if uint64(rowBytes)|uint64(stride)|uint64(rows) >= 1<<31 {
		return // a negative stride, or a span too long to add up safely
	}
	if addr+uint64(rows-1)*uint64(stride)+uint64(rowBytes)-1 < addr {
		return
	}
	mask := uint64(1)<<c.lineShift - 1
	c.recent[c.next] = recentBlock{
		addr: addr, rowBytes: uint64(rowBytes), stride: uint64(stride), rows: rows, gen: c.gen,
		lo: addr &^ mask, hull: (addr&mask + uint64(rowBytes) - 1) | mask,
	}
	c.next = (c.next + 1) & (recentBlocks - 1)
}

// EachLine calls visit with the line-aligned address of every line
// AccessRows would reference for the same block, in the same order: a
// row whose end wraps the address space covers no line, and a row
// ending on the last line stops there. It touches no cache state.
func (c *Cache) EachLine(addr uint64, rowBytes, stride, rows int, visit func(addr uint64)) {
	if rowBytes <= 0 {
		return
	}
	for ; rows > 0; rows-- {
		first, last := addr>>c.lineShift, (addr+uint64(rowBytes)-1)>>c.lineShift
		addr += uint64(stride)
		if last < first {
			continue
		}
		for ln := first; ; ln++ {
			visit(ln << c.lineShift)
			if ln == last {
				break
			}
		}
	}
}

// rowWalk is AccessRows's position: the lines left in the current row,
// and the rows not yet started.
type rowWalk struct {
	addr, end, stride uint64 // next row's first byte, rowBytes-1, stride
	rows              int    // rows not yet started
	ln, left          uint64 // next line of the current row, lines left in it
}

// walkHits advances w over inline hits. It returns the first line that
// needs the Access path, with w already past it, or false once every
// row is done. It makes no call, so the walk stays in registers;
// Accesses is current whenever it returns.
func (c *Cache) walkHits(w *rowWalk, write bool) (uint64, bool) {
	mask, ways, lastWay, tags := c.setMask, c.ways, c.lastWay, c.tags
	ln, left := w.ln, w.left
	// lines counts every line of the rows begun here, the current row's
	// remainder included; the lines not consumed as hits come off it.
	lines := left
	for {
		for ; left > 0; left-- {
			set := int(ln & mask)
			i := set * ways
			if lastWay != nil {
				i += int(lastWay[set])
			}
			if tags[i] != ln || ln == noLine && !c.valid[i] {
				w.ln, w.left = ln+1, left-1
				c.Accesses += lines - left
				return ln, true
			}
			if write {
				c.dirty[i] = true
			}
			ln++
		}
		if w.rows <= 0 {
			w.ln, w.left = ln, 0
			c.Accesses += lines
			return 0, false
		}
		first, last := w.addr>>c.lineShift, (w.addr+w.end)>>c.lineShift
		w.addr += w.stride
		w.rows--
		ln = first
		if last >= first {
			left = last - first + 1
			lines += left
		}
	}
}

// Access references the line containing addr, allocating on miss and
// marking dirty when write is true. The common hit path is kept minimal:
// tag match in LRU position 0 falls through with only the access counter
// incremented. Non-LRU policies dispatch to the fixed-way path up
// front so the LRU fast paths below stay exactly as they were; the
// victim-buffer probes sit on the miss path only and are skipped
// entirely (nil check) outside PolicyVictim. AccessRows resolves the
// commonest hits before reaching here.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.gen++
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

// Reset clears contents, counters and replacement-policy state (the
// PolicyRandom stream rewinds to its seed, so a reset cache replays a
// stream identically to a fresh one).
func (c *Cache) Reset() {
	for i := range c.valid {
		c.tags[i] = noLine
		c.valid[i] = false
		c.dirty[i] = false
	}
	clear(c.state)
	clear(c.lastWay)
	if c.pol == polRandom {
		c.rng = c.cfg.Seed
		if c.rng == 0 {
			c.rng = defaultSeed
		}
	}
	if c.victim != nil {
		c.victim.reset()
	}
	c.gen++
	c.Accesses, c.Misses, c.Writebacks, c.VictimHits, c.RepeatLines = 0, 0, 0, 0, 0
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
