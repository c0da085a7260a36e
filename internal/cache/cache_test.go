package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 256, LineBytes: 32, Ways: 2} // 4 sets
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 32, Ways: 2},
		{Name: "b", SizeBytes: 256, LineBytes: 33, Ways: 2},
		{Name: "c", SizeBytes: 250, LineBytes: 32, Ways: 2},
		{Name: "d", SizeBytes: 256, LineBytes: 32, Ways: 3},
		{Name: "e", SizeBytes: 96, LineBytes: 32, Ways: 1}, // 3 sets: not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s should be invalid", c.Name)
		}
	}
	if err := small().Validate(); err != nil {
		t.Errorf("small config invalid: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 100, LineBytes: 32, Ways: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	r := c.Access(0x1000, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	r = c.Access(0x1004, false)
	if !r.Hit {
		t.Fatal("same-line access missed")
	}
	if c.Accesses != 2 || c.Misses != 1 {
		t.Fatalf("counters: %d accesses %d misses", c.Accesses, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small()) // 2-way, 4 sets, 32B lines; same set every 128B
	a0 := uint64(0x0000)
	a1 := a0 + 128 // same set
	a2 := a0 + 256 // same set
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 MRU, a1 LRU
	r := c.Access(a2, false)
	if r.Hit {
		t.Fatal("a2 should miss")
	}
	if !r.Evicted || r.EvictedLine != c.LineOf(a1) {
		t.Fatalf("expected a1 evicted, got %+v (want line %#x)", r, c.LineOf(a1))
	}
	if !c.Lookup(a0) {
		t.Fatal("a0 should have survived")
	}
	if c.Lookup(a1) {
		t.Fatal("a1 should be gone")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(small())
	c.Access(0x0000, true) // dirty
	c.Access(0x0080, false)
	r := c.Access(0x0100, false) // evicts dirty 0x0000
	if !r.EvictedDirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Writebacks)
	}
}

func TestWriteHitDirties(t *testing.T) {
	c := New(small())
	c.Access(0x0000, false)
	c.Access(0x0000, true) // hit, mark dirty
	c.Access(0x0080, false)
	r := c.Access(0x0100, false)
	if !r.EvictedDirty {
		t.Fatal("write-hit did not dirty the line")
	}
}

func TestHitOnNonMRUWayPreservesDirty(t *testing.T) {
	c := New(small())
	c.Access(0x0000, true)  // A dirty
	c.Access(0x0080, false) // B; A now LRU
	r := c.Access(0x0000, false)
	if !r.Hit {
		t.Fatal("expected hit on LRU way")
	}
	c.Access(0x0080, false)
	r = c.Access(0x0100, false) // evict A (LRU after B,B? no: order B MRU, A LRU)
	if !r.Evicted {
		t.Fatal("expected eviction")
	}
	if r.EvictedLine == c.LineOf(0x0000) && !r.EvictedDirty {
		t.Fatal("A's dirty bit lost during LRU reordering")
	}
}

func TestOccupancyAndReset(t *testing.T) {
	c := New(small())
	for i := 0; i < 8; i++ {
		c.Access(uint64(i*32), false)
	}
	if c.Occupancy() != 8 {
		t.Fatalf("occupancy %d want 8", c.Occupancy())
	}
	c.Reset()
	if c.Occupancy() != 0 || c.Accesses != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestQuickLRUInvariant(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "q", SizeBytes: 1024, LineBytes: 32, Ways: 4})
		for i := 0; i < int(n)%2000; i++ {
			c.Access(uint64(rng.Intn(8192)), rng.Intn(2) == 0)
		}
		return c.CheckInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMissesNeverExceedAccesses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(small())
		for i := 0; i < 500; i++ {
			c.Access(uint64(rng.Intn(4096)), rng.Intn(2) == 0)
		}
		return c.Misses <= c.Accesses && c.Writebacks <= c.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFullyAssociativeBehaviour(t *testing.T) {
	// 1-set cache: 8 ways of 32B = 256B.
	c := New(Config{Name: "fa", SizeBytes: 256, LineBytes: 32, Ways: 8})
	for i := 0; i < 8; i++ {
		c.Access(uint64(i)*32, false)
	}
	// All 8 should hit now.
	for i := 0; i < 8; i++ {
		if r := c.Access(uint64(i)*32, false); !r.Hit {
			t.Fatalf("line %d missed in fully-associative fill", i)
		}
	}
	// Ninth distinct line evicts the LRU (line 0 after sequential re-touch).
	r := c.Access(8*32, false)
	if r.Hit || !r.Evicted || r.EvictedLine != 0 {
		t.Fatalf("unexpected result %+v", r)
	}
}

func TestDirectMapped(t *testing.T) {
	c := New(Config{Name: "dm", SizeBytes: 128, LineBytes: 32, Ways: 1})
	c.Access(0, false)
	r := c.Access(128, false) // same set, conflict
	if r.Hit || !r.Evicted {
		t.Fatalf("direct-mapped conflict not detected: %+v", r)
	}
}

// refLRUSet is a trivially-correct LRU set model (slice reordering) the
// fast paths are differenced against.
type refLRUSet struct {
	lines []struct {
		tag   uint64
		dirty bool
	}
	ways int
}

func (s *refLRUSet) access(tag uint64, write bool) Result {
	for i, l := range s.lines {
		if l.tag == tag {
			s.lines = append(s.lines[:i], s.lines[i+1:]...)
			l.dirty = l.dirty || write
			s.lines = append([]struct {
				tag   uint64
				dirty bool
			}{l}, s.lines...)
			return Result{Hit: true}
		}
	}
	res := Result{}
	if len(s.lines) == s.ways {
		v := s.lines[len(s.lines)-1]
		s.lines = s.lines[:len(s.lines)-1]
		res.Evicted = true
		res.EvictedLine = v.tag
		res.EvictedDirty = v.dirty
	}
	s.lines = append([]struct {
		tag   uint64
		dirty bool
	}{{tag: tag, dirty: write}}, s.lines...)
	return res
}

// TestAccessMatchesReferenceLRU differences Cache.Access — including
// the specialised 2-way swap path — against the reference model, for
// 2-way and 4-way geometries under random access/write sequences.
func TestAccessMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4} {
		cfg := Config{Name: "t", SizeBytes: 32 * 4 * ways, LineBytes: 32, Ways: ways} // 4 sets
		c := New(cfg)
		refs := make([]*refLRUSet, 4)
		for i := range refs {
			refs[i] = &refLRUSet{ways: ways}
		}
		rng := rand.New(rand.NewSource(int64(ways)))
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(64)) * 32 // 64 distinct lines over 4 sets
			write := rng.Intn(3) == 0
			got := c.Access(addr, write)
			ln := addr >> 5
			want := refs[ln&3].access(ln, write)
			if got != want {
				t.Fatalf("ways=%d step %d addr %#x write=%v: got %+v want %+v", ways, i, addr, write, got, want)
			}
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatalf("ways=%d: %v", ways, err)
		}
	}
}
