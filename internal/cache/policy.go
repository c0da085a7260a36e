// Replacement policies. The paper's machines (and the original model)
// use true LRU everywhere, but real second-level caches ship tree-PLRU,
// FIFO ("round-robin" in vendor manuals) or random replacement, and
// some primaries hide conflict misses behind a small victim buffer
// (Jouppi, ISCA 1990). Config.Policy selects the policy per cache
// level; the default (empty string) is the original true-LRU model,
// and its results are byte-identical to the pre-policy model.
//
// The seam is deliberately enum-dispatched rather than an interface:
// Access is the innermost loop of every simulation, and the LRU fast
// paths (MRU probe, 2-way swap) must stay free of indirect calls. LRU
// keeps the recency-ordered set array of cache.go; the other policies
// share one fixed-way-placement path (accessIndexed) with per-set
// policy state in Cache.state. In front of both, the row walker
// AccessRows resolves the commonest hit of every policy inline: way 0
// of a recency-ordered set, or the way a fixed-way set touched last
// (Cache.lastWay), whose re-touch changes no policy state.
package cache

import "fmt"

// Policy names a replacement policy. The zero value means LRU, so
// configurations that predate the policy axis — JSON manifests, shard
// specs, wire-format traces — keep their meaning unchanged.
type Policy string

const (
	// PolicyLRU is true least-recently-used replacement (the default;
	// "" is accepted as an alias so pre-policy configurations decode
	// unchanged).
	PolicyLRU Policy = "lru"
	// PolicyPLRU is tree pseudo-LRU: one bit per internal node of a
	// binary tree over the ways, flipped away from every access and
	// followed to the victim. Requires power-of-two associativity (at
	// most 64 ways). Identical to true LRU for 1- and 2-way sets.
	PolicyPLRU Policy = "plru"
	// PolicyFIFO evicts in installation order (round-robin): hits do
	// not refresh a line's position.
	PolicyFIFO Policy = "fifo"
	// PolicyRandom evicts a uniformly random way of a full set, drawn
	// from a deterministic per-cache xorshift stream (see Config.Seed)
	// so every replay of one capture reproduces the same Stats.
	PolicyRandom Policy = "random"
	// PolicyVictim is true LRU plus a VictimLines-entry fully
	// associative victim buffer: displaced lines park in the buffer and
	// a miss that hits there is re-installed without a next-level
	// access. Meaningful on an L1 (where conflict misses dominate);
	// accepted on any level.
	PolicyVictim Policy = "victim"
)

// VictimLines is the capacity of the PolicyVictim buffer, in cache
// lines — Jouppi's classic 1–16 line range, mid-point.
const VictimLines = 8

// defaultSeed feeds PolicyRandom when Config.Seed is zero. The value
// is arbitrary but fixed: determinism across runs, machines and
// distributed workers is what makes random-replacement results
// comparable at all.
const defaultSeed = 0x9E3779B97F4A7C15

// Internal dispatch codes. polLRU covers PolicyVictim too: the victim
// buffer wraps the LRU set array, it does not change its ordering.
const (
	polLRU uint8 = iota
	polPLRU
	polFIFO
	polRandom
)

// Policies lists every valid policy, in display order.
func Policies() []Policy {
	return []Policy{PolicyLRU, PolicyPLRU, PolicyFIFO, PolicyRandom, PolicyVictim}
}

// ParsePolicy maps a configuration string to a Policy. The empty
// string is LRU (the pre-policy default); anything unknown is an error
// naming the valid set — ingress paths (manifests, service requests,
// shard specs, CLI flags) rely on this never panicking.
func ParsePolicy(s string) (Policy, error) {
	switch p := Policy(s); p {
	case "":
		return PolicyLRU, nil
	case PolicyLRU, PolicyPLRU, PolicyFIFO, PolicyRandom, PolicyVictim:
		return p, nil
	default:
		return "", fmt.Errorf("unknown replacement policy %q (have lru, plru, fifo, random, victim)", s)
	}
}

// Validate checks that p names a known policy ("" counts as LRU).
func (p Policy) Validate() error {
	_, err := ParsePolicy(string(p))
	return err
}

// Canonical returns c with its Policy normalized ("" becomes "lru" —
// the two spellings name the same cache). Use it when comparing
// configurations that may have crossed a wire or a JSON boundary,
// where either spelling can appear; an unknown policy is returned
// unchanged (validation rejects it elsewhere).
func (c Config) Canonical() Config {
	if p, err := ParsePolicy(string(c.Policy)); err == nil {
		c.Policy = p
	}
	return c
}

// ForL2 maps a hierarchy-wide policy choice onto a second-level cache:
// the victim buffer is an L1 wrapper, so "victim" means an LRU L2;
// every other policy applies as-is.
func (p Policy) ForL2() Policy {
	if p == PolicyVictim {
		return PolicyLRU
	}
	return p
}

// victimBuf is the fully associative buffer behind PolicyVictim. Like
// the reference LRU set model, entries are kept in recency order
// (index 0 most recent); with VictimLines = 8 entries the linear scans
// are cheaper than any map.
type victimBuf struct {
	tags  []uint64
	dirty []bool
	cap   int
}

func newVictimBuf(lines int) *victimBuf {
	return &victimBuf{
		tags:  make([]uint64, 0, lines),
		dirty: make([]bool, 0, lines),
		cap:   lines,
	}
}

// lookup reports whether the buffer holds line ln, without touching
// recency (used by Cache.Lookup / prefetch probes).
func (v *victimBuf) lookup(ln uint64) bool {
	for _, t := range v.tags {
		if t == ln {
			return true
		}
	}
	return false
}

// take removes line ln, returning its dirty bit — the victim-hit half
// of the swap (the caller re-installs the line in the set array).
func (v *victimBuf) take(ln uint64) (dirty, ok bool) {
	for i, t := range v.tags {
		if t != ln {
			continue
		}
		dirty = v.dirty[i]
		v.tags = append(v.tags[:i], v.tags[i+1:]...)
		v.dirty = append(v.dirty[:i], v.dirty[i+1:]...)
		return dirty, true
	}
	return false, false
}

// insert parks a line displaced from the set array. When the buffer is
// full its least recent entry falls out and is returned — that entry
// is the true eviction of the L1+victim complex.
func (v *victimBuf) insert(ln uint64, dirty bool) (outTag uint64, outDirty, evicted bool) {
	if len(v.tags) == v.cap {
		last := len(v.tags) - 1
		outTag, outDirty, evicted = v.tags[last], v.dirty[last], true
		v.tags = v.tags[:last]
		v.dirty = v.dirty[:last]
	}
	v.tags = append(v.tags, 0)
	v.dirty = append(v.dirty, false)
	copy(v.tags[1:], v.tags)
	copy(v.dirty[1:], v.dirty)
	v.tags[0] = ln
	v.dirty[0] = dirty
	return outTag, outDirty, evicted
}

func (v *victimBuf) reset() {
	v.tags = v.tags[:0]
	v.dirty = v.dirty[:0]
}

// accessIndexed is the fixed-way-placement access path shared by PLRU,
// FIFO and random replacement: lines stay in the way they were
// installed in, and the per-set policy state (tree bits or round-robin
// pointer in c.state, the xorshift stream in c.rng) picks victims.
// Counter and Result semantics match the LRU path exactly. Every hit
// and every fill records its way in c.lastWay, which AccessRows's
// inline hit relies on: touching PLRU's last-touched way again is a
// no-op only while that record is current.
func (c *Cache) accessIndexed(addr uint64, write bool) Result {
	c.Accesses++
	ln := addr >> c.lineShift
	set := int(ln & c.setMask)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == ln {
			if write {
				c.dirty[i] = true
			}
			if c.pol == polPLRU {
				c.touchPLRU(set, w)
			}
			c.lastWay[set] = uint32(w)
			return Result{Hit: true}
		}
	}
	c.Misses++
	// Invalid ways fill first, lowest index first (lines never
	// invalidate mid-run, so this only shapes the cold start — and for
	// FIFO it fills ways in exactly the order the round-robin pointer
	// will later evict them, preserving installation order).
	w := -1
	for j := 0; j < c.ways; j++ {
		if !c.valid[base+j] {
			w = j
			break
		}
	}
	if w < 0 {
		switch c.pol {
		case polPLRU:
			w = c.plruVictim(set)
		case polFIFO:
			w = int(c.state[set])
			c.state[set] = uint64((w + 1) % c.ways)
		default: // polRandom
			w = int(c.nextRand() % uint64(c.ways))
		}
	}
	i := base + w
	res := Result{}
	c.evictSlot(&res, i)
	c.tags[i] = ln
	c.valid[i] = true
	c.dirty[i] = write
	if c.pol == polPLRU {
		c.touchPLRU(set, w)
	}
	c.lastWay[set] = uint32(w)
	return res
}

// evictSlot accounts the displacement of the line in slot i by a miss
// fill, shared by every access path: without a victim buffer a valid
// line leaves the cache (Result eviction, writeback count); with one
// it parks in the buffer and only the buffer's own castout — if the
// insert overflowed — leaves this level.
func (c *Cache) evictSlot(res *Result, i int) {
	if !c.valid[i] {
		return
	}
	tag, dirty := c.tags[i], c.dirty[i]
	if c.victim != nil {
		var overflowed bool
		tag, dirty, overflowed = c.victim.insert(tag, dirty)
		if !overflowed {
			return
		}
	}
	res.Evicted = true
	res.EvictedLine = tag
	if dirty {
		res.EvictedDirty = true
		c.Writebacks++
	}
}

// touchPLRU flips the tree bits on the path to way w to point away
// from it. Nodes are heap-numbered from 1; node i's bit lives at
// position i-1 of c.state[set]; bit 0 sends the victim walk left,
// bit 1 right.
func (c *Cache) touchPLRU(set, w int) {
	bits := c.state[set]
	node, lo, span := 1, 0, c.ways
	for span > 1 {
		half := span >> 1
		if w < lo+half {
			bits |= 1 << (node - 1) // w went left; victim is right
			node = 2 * node
		} else {
			bits &^= 1 << (node - 1) // w went right; victim is left
			node = 2*node + 1
			lo += half
		}
		span = half
	}
	c.state[set] = bits
}

// plruVictim follows the tree bits of set to the pseudo-LRU way.
func (c *Cache) plruVictim(set int) int {
	bits := c.state[set]
	node, lo, span := 1, 0, c.ways
	for span > 1 {
		half := span >> 1
		if bits&(1<<(node-1)) != 0 {
			node = 2*node + 1
			lo += half
		} else {
			node = 2 * node
		}
		span = half
	}
	return lo
}

// nextRand advances the xorshift64 stream behind PolicyRandom. One
// draw per full-set victim choice, nothing else — replays of the same
// reference stream therefore consume identical sequences.
func (c *Cache) nextRand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// CheckInvariant verifies the cache's internal consistency under its
// configured policy: no duplicate tags within a set, every tag mapped
// to its own set, plus per-policy structure — LRU keeps valid lines
// packed ahead of invalid slots (installs happen at the MRU end), the
// victim buffer never shadows a resident line, FIFO's round-robin
// pointer, PLRU's tree bits and the last-touched way stay in range, and
// every invalid slot holds the noLine tag AccessRows relies on.
// Intended for property tests; returns an error describing the first
// violation.
func (c *Cache) CheckInvariant() error {
	sets := len(c.tags) / c.ways
	for s := 0; s < sets; s++ {
		base := s * c.ways
		seen := make(map[uint64]bool, c.ways)
		invalidAt := -1
		for w := 0; w < c.ways; w++ {
			i := base + w
			if !c.valid[i] {
				if c.tags[i] != noLine {
					return fmt.Errorf("set %d: invalid way %d holds tag %#x, not the invalid marker", s, w, c.tags[i])
				}
				if invalidAt < 0 {
					invalidAt = w
				}
				continue
			}
			if c.pol == polLRU && invalidAt >= 0 {
				return fmt.Errorf("set %d: valid way %d after invalid way %d breaks LRU packing", s, w, invalidAt)
			}
			if int(c.tags[i]&c.setMask) != s {
				return fmt.Errorf("set %d way %d holds tag %#x mapping to wrong set", s, w, c.tags[i])
			}
			if seen[c.tags[i]] {
				return fmt.Errorf("set %d: duplicate tag %#x", s, c.tags[i])
			}
			seen[c.tags[i]] = true
		}
		if c.lastWay != nil && int(c.lastWay[s]) >= c.ways {
			return fmt.Errorf("set %d: last-touched way %d out of range (%d ways)", s, c.lastWay[s], c.ways)
		}
		switch c.pol {
		case polFIFO:
			if int(c.state[s]) >= c.ways {
				return fmt.Errorf("set %d: fifo pointer %d out of range (%d ways)", s, c.state[s], c.ways)
			}
		case polPLRU:
			if c.ways > 1 && c.state[s]>>(c.ways-1) != 0 {
				return fmt.Errorf("set %d: plru state %#x has bits beyond the %d tree nodes", s, c.state[s], c.ways-1)
			}
		}
	}
	if c.victim != nil {
		if len(c.victim.tags) > c.victim.cap {
			return fmt.Errorf("victim buffer holds %d lines, capacity %d", len(c.victim.tags), c.victim.cap)
		}
		seen := make(map[uint64]bool, len(c.victim.tags))
		for _, ln := range c.victim.tags {
			if seen[ln] {
				return fmt.Errorf("victim buffer: duplicate line %#x", ln)
			}
			seen[ln] = true
			base := int(ln&c.setMask) * c.ways
			for w := 0; w < c.ways; w++ {
				if c.valid[base+w] && c.tags[base+w] == ln {
					return fmt.Errorf("line %#x resident in both set array and victim buffer", ln)
				}
			}
		}
	}
	return nil
}
