package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// AccessRows must make exactly the references of one Access per
// covered line-aligned address. The tests below run the kernel on one
// cache and that per-line loop on a twin of the same geometry, and
// compare every miss, the counters and the invariant.

// rowMiss is one miss the kernel reported.
type rowMiss struct {
	addr uint64
	res  Result
}

// perLineRows is the oracle: one Access per line-aligned address the
// rows cover, in order, collecting the misses. A row whose end wraps
// the address space covers no line.
func perLineRows(c *Cache, addr uint64, rowBytes, stride, rows int, write bool, out []rowMiss) []rowMiss {
	if rowBytes <= 0 {
		return out
	}
	lb := uint64(c.LineBytes())
	for ; rows > 0; rows-- {
		first := addr &^ (lb - 1)
		last := (addr + uint64(rowBytes) - 1) &^ (lb - 1)
		addr += uint64(stride)
		if last < first {
			continue
		}
		for a := first; ; a += lb {
			if r := c.Access(a, write); !r.Hit {
				out = append(out, rowMiss{a, r})
			}
			if a == last {
				break
			}
		}
	}
	return out
}

// rowTwins drives a kernel cache and its per-line twin through the same
// calls and reports the first divergence.
type rowTwins struct {
	kernel, twin *Cache
	got, want    []rowMiss
}

func newRowTwins(cfg Config) (*rowTwins, error) {
	k, err := TryNew(cfg)
	if err != nil {
		return nil, err
	}
	return &rowTwins{kernel: k, twin: New(cfg)}, nil
}

func (p *rowTwins) rows(addr uint64, rowBytes, stride, rows int, write bool) error {
	p.got, p.want = p.got[:0], p.want[:0]
	p.kernel.AccessRows(addr, rowBytes, stride, rows, write, func(a uint64, r Result) {
		p.got = append(p.got, rowMiss{a, r})
	})
	p.want = perLineRows(p.twin, addr, rowBytes, stride, rows, write, p.want)
	if len(p.got) != len(p.want) {
		return fmt.Errorf("rows(%#x, %d, %d, %d, %v): %d misses, want %d: %+v vs %+v",
			addr, rowBytes, stride, rows, write, len(p.got), len(p.want), p.got, p.want)
	}
	for i := range p.got {
		if p.got[i] != p.want[i] {
			return fmt.Errorf("rows(%#x, %d, %d, %d, %v): miss %d = %+v, want %+v",
				addr, rowBytes, stride, rows, write, i, p.got[i], p.want[i])
		}
	}
	k, w := p.kernel, p.twin
	if k.Accesses != w.Accesses || k.Misses != w.Misses || k.Writebacks != w.Writebacks || k.VictimHits != w.VictimHits {
		return fmt.Errorf("rows(%#x, %d, %d, %d, %v): counters %d/%d/%d/%d, want %d/%d/%d/%d",
			addr, rowBytes, stride, rows, write,
			k.Accesses, k.Misses, k.Writebacks, k.VictimHits, w.Accesses, w.Misses, w.Writebacks, w.VictimHits)
	}
	return nil
}

// prefetch probes both caches as a prefetch does: Lookup, then an
// Access if the line is absent.
func (p *rowTwins) prefetch(addr uint64) error {
	kl, wl := p.kernel.Lookup(addr), p.twin.Lookup(addr)
	if kl != wl {
		return fmt.Errorf("prefetch(%#x): present %v, want %v", addr, kl, wl)
	}
	if kl {
		return nil
	}
	if kr, wr := p.kernel.Access(addr, false), p.twin.Access(addr, false); kr != wr {
		return fmt.Errorf("prefetch(%#x): %+v, want %+v", addr, kr, wr)
	}
	return nil
}

func (p *rowTwins) reset() {
	p.kernel.Reset()
	p.twin.Reset()
}

// rowOp is one step of a generated reference sequence: a block through
// AccessRows, a prefetch probe, or a Reset.
type rowOp struct {
	kind                   uint8
	addr                   uint64
	rowBytes, stride, rows int
	write                  bool
}

const (
	opRows uint8 = iota
	opPrefetch
	opReset
)

func (p *rowTwins) apply(o rowOp) error {
	switch o.kind {
	case opPrefetch:
		return p.prefetch(o.addr)
	case opReset:
		p.reset()
		return nil
	}
	return p.rows(o.addr, o.rowBytes, o.stride, o.rows, o.write)
}

// motionSearchOps returns the references full-search motion estimation
// makes over planes of the given stride, as the codec's SAD kernels
// report them. For each of mbs macroblocks it reads the 16x16 current
// block (all 16 rows for the zero vector, then early-terminated row
// counts), and for each candidate the reference block at one-pixel
// steps over a ±window-pixel window, then the eight half-pel
// candidates, with 17-byte rows where they move sideways. Every other
// macroblock is shaped and reads its alpha block too. Between
// candidates it drops stores and prefetch probes to lines that share
// sets with the blocks (conflict bytes apart), and it resets the cache
// once, halfway through.
func motionSearchOps(rng *rand.Rand, stride, mbs, window int, conflict uint64) []rowOp {
	// Planes 32 KB apart hold every window; the offsets give each plane
	// its own line phase.
	const mb, plane = 16, 32 << 10
	cur := uint64(1 << 20)
	ref := cur + plane + 0x48
	alpha := ref + plane + 0x18
	block := func(plane uint64, x, y, rowBytes, rows int) rowOp {
		return rowOp{addr: plane + uint64(y*stride+x), rowBytes: rowBytes, stride: stride, rows: rows}
	}
	var ops []rowOp
	candidate := func(mbx, mby, rx, ry, rowBytes int, shaped bool, second bool) {
		// Early termination: most candidates of a real capture lose in
		// the block's second half, some sooner.
		rows := mb - rng.Intn(mb/2)
		if rng.Intn(4) == 0 {
			rows = 1 + rng.Intn(mb)
		}
		ops = append(ops, block(cur, mbx, mby, mb, rows), block(ref, rx, ry, rowBytes, rows))
		if second {
			ops = append(ops, block(ref, rx, ry+1, rowBytes, rows))
		}
		if shaped {
			ops = append(ops, block(alpha, mbx, mby, mb, rows))
		}
		switch rng.Intn(32) {
		case 0: // a reconstruction store evicting a current-block line
			a := cur + uint64((mby+rng.Intn(mb))*stride+mbx) + conflict*uint64(1+rng.Intn(3))
			ops = append(ops, rowOp{addr: a, rowBytes: mb, rows: 1, write: true})
		case 1: // a prefetch of the next candidate row, or of a conflicting line
			a := ref + uint64((ry+mb)*stride+mbx)
			if rng.Intn(2) == 0 {
				a = ref + uint64((ry+rng.Intn(mb))*stride+rx) + conflict*uint64(1+rng.Intn(3))
			}
			ops = append(ops, rowOp{kind: opPrefetch, addr: a})
		}
	}
	mby := window
	for m := 0; m < mbs; m++ {
		mbx := window + mb*m // a macroblock row, left to right
		shaped := m%2 == 1
		if m == mbs/2 {
			ops = append(ops, rowOp{kind: opReset})
		}
		ops = append(ops, block(cur, mbx, mby, mb, mb), block(ref, mbx, mby, mb, mb))
		for dy := -window; dy <= window; dy++ {
			for dx := -window; dx <= window; dx++ {
				if dx != 0 || dy != 0 {
					candidate(mbx, mby, mbx+dx, mby+dy, mb, shaped, false)
				}
			}
		}
		for hy := -1; hy <= 1; hy++ {
			for hx := -1; hx <= 1; hx++ {
				if hx == 0 && hy == 0 {
					continue
				}
				// A half-pel vector interpolates from the block it
				// rounds down to: 17-byte rows when it moves
				// horizontally, a second block one row down when it
				// moves vertically.
				candidate(mbx, mby, mbx+min(hx, 0), mby+min(hy, 0), mb+(hx&1), false, hy != 0)
			}
		}
	}
	return ops
}

func (p *rowTwins) check() error {
	if err := p.kernel.CheckInvariant(); err != nil {
		return fmt.Errorf("kernel cache: %w", err)
	}
	return p.twin.CheckInvariant()
}

// TestAccessRowsMatchesPerLineAccess differences the kernel against the
// per-line oracle under every policy: at 1/2/4/8 ways over 4 sets and
// one fully associative set over random blocks (row widths that
// straddle lines, strides under, at and over a line, some negative,
// row counts and writes), and over motion-search sequences.
func TestAccessRowsMatchesPerLineAccess(t *testing.T) {
	t.Run("random", testAccessRowsRandom)
	t.Run("motion-search", testAccessRowsMotionSearch)
}

func testAccessRowsRandom(t *testing.T) {
	type geom struct{ sets, ways int }
	geoms := []geom{{4, 1}, {4, 2}, {4, 4}, {4, 8}, {1, 16}}
	for _, pol := range Policies() {
		for _, g := range geoms {
			cfg := Config{Name: "rows", SizeBytes: 32 * g.sets * g.ways, LineBytes: 32, Ways: g.ways, Policy: pol, Seed: 5}
			p, err := newRowTwins(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(g.ways*10 + g.sets)))
			for i := 0; i < 4000; i++ {
				// 24 lines' worth of addresses over 4 sets keeps every
				// set under pressure and most references hitting.
				addr := uint64(rng.Intn(24 * 32))
				rowBytes := 1 + rng.Intn(100)
				stride := rng.Intn(200) - 40
				rows := 1 + rng.Intn(8)
				if err := p.rows(addr, rowBytes, stride, rows, rng.Intn(4) == 0); err != nil {
					t.Fatalf("%s %d sets x %d ways, step %d: %v", pol, g.sets, g.ways, i, err)
				}
			}
			if err := p.check(); err != nil {
				t.Fatalf("%s %d sets x %d ways: %v", pol, g.sets, g.ways, err)
			}
		}
	}
}

// testAccessRowsMotionSearch runs motionSearchOps under every policy.
// Motion search repeats its blocks, so the repeat shortcut must take
// most of these references, and each one it takes must be exact:
// strides whose rows change line phase (176 and 720 bytes over 32-byte
// lines), loads shifted a pixel at a time, stores and prefetches that
// move the blocks' lines, and a Reset.
func testAccessRowsMotionSearch(t *testing.T) {
	for _, pol := range Policies() {
		for _, ways := range []int{2, 4} {
			// Ways of 128 KB keep the three planes in separate sets; the
			// stores and prefetches conflict on purpose.
			cfg := Config{Name: "motion", SizeBytes: 128 << 10 * ways, LineBytes: 32, Ways: ways, Policy: pol, Seed: 5}
			for _, stride := range []int{352, 176, 720} {
				p, err := newRowTwins(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(stride + ways)))
				for i, o := range motionSearchOps(rng, stride, 4, 8, uint64(cfg.SizeBytes/ways)) {
					if err := p.apply(o); err != nil {
						t.Fatalf("%s %d-way, stride %d, step %d: %v", pol, ways, stride, i, err)
					}
				}
				if err := p.check(); err != nil {
					t.Fatalf("%s %d-way, stride %d: %v", pol, ways, stride, err)
				}
				if k := p.kernel; 2*k.RepeatLines <= k.Accesses {
					t.Errorf("%s %d-way, stride %d: the repeat shortcut took %d of %d line references, want most",
						pol, ways, stride, k.RepeatLines, k.Accesses)
				}
			}
		}
	}
}

// TestRepeatShortcutLiveness walks one 16x16 load block through the
// repeat shortcut's life: a cold read misses and is not remembered, a
// second read walks all hits and is, then repeats of its leading rows
// and of the block shifted a byte skip the walk until an Access-path
// reference or a Reset retires it.
func TestRepeatShortcutLiveness(t *testing.T) {
	const block, stride, waySize = 0x10000, 352, 16 << 10
	p, err := newRowTwins(Config{SizeBytes: 2 * waySize, LineBytes: 32, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := p.kernel
	step := func(what string, o rowOp, repeats uint64) {
		t.Helper()
		before := k.RepeatLines
		if o.kind == opReset {
			before = 0 // Reset clears the counter too
		}
		if err := p.apply(o); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := k.RepeatLines - before; got != repeats {
			t.Fatalf("%s: the shortcut took %d lines, want %d", what, got, repeats)
		}
	}
	load := func(addr uint64, rows int) rowOp {
		return rowOp{addr: addr, rowBytes: 16, stride: stride, rows: rows}
	}
	step("cold read", load(block, 16), 0)
	step("first repeat, remembered", load(block, 16), 0)
	step("early-terminated repeat", load(block, 5), 5)
	step("one byte right", load(block+1, 16), 16)
	step("a store hit changes no tag", rowOp{addr: block, rowBytes: 16, rows: 1, write: true}, 0)
	step("still live", load(block, 16), 16)
	step("a store to the same set moves a line", rowOp{addr: block + waySize, rowBytes: 16, rows: 1, write: true}, 0)
	step("retired by the store", load(block, 16), 0)
	step("remembered again", load(block, 16), 0)
	step("live again", load(block, 16), 16)
	step("a prefetch of a new line", rowOp{kind: opPrefetch, addr: block + 2*waySize}, 0)
	step("retired by the prefetch", load(block, 16), 0)
	step("remembered after the prefetch", load(block, 16), 0)
	step("live after the prefetch", load(block, 8), 8)
	step("reset", rowOp{kind: opReset}, 0)
	step("cold again after the reset", load(block, 16), 0)
}

// TestAccessRowsPLRUTracksLastWay moves hits among the ways of one
// 4-way PLRU set. The kernel hits the way the set touched last without
// touching the tree, which is exact only while that record is current:
// after A's hit moves the tree away from way 0, a stale record still
// naming D's way would let D's next hit skip its tree update, and E
// would then evict C instead of B.
func TestAccessRowsPLRUTracksLastWay(t *testing.T) {
	const lb, sets = 32, 2
	p, err := newRowTwins(Config{SizeBytes: lb * sets * 4, LineBytes: lb, Ways: 4, Policy: PolicyPLRU})
	if err != nil {
		t.Fatal(err)
	}
	line := func(tag uint64) uint64 { return tag * sets * lb } // every tag in set 0
	A, B, C, D, E := line(1), line(2), line(3), line(4), line(5)
	for i, addr := range []uint64{A, B, C, D, A, D, E, B, C, D, A, E} {
		if err := p.rows(addr, 8, 0, 1, false); err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
	}
	// The same dance as one strided block: rows one set-span apart walk
	// A, B, C, D, then again A..D, all in set 0.
	if err := p.rows(A, lb, sets*lb, 4, true); err != nil {
		t.Fatal(err)
	}
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
}

// FuzzAccessRows differences the kernel against the per-line oracle
// for fuzzed geometry and blocks. The geometry goes through TryNew, as
// ingress geometry does; invalid geometry is skipped. The seeds include
// a row whose end wraps the address space, one that ends on its last
// line, and motion-search sequences (motionSearchOps) at strides of
// 352, 176 and 720 bytes. `go test` runs the seed corpus;
// `go test -fuzz=FuzzAccessRows ./internal/cache` searches for
// divergences.
func FuzzAccessRows(f *testing.F) {
	// Each op is 16 bytes: address, then row bytes, stride, rows, a
	// kind (opPrefetch, opReset, anything else a block), a spare byte
	// and a write flag.
	op := func(addr uint64, rowBytes uint16, stride int16, rows uint8, write bool) []byte {
		b := binary.LittleEndian.AppendUint64(nil, addr)
		b = binary.LittleEndian.AppendUint16(b, rowBytes)
		b = binary.LittleEndian.AppendUint16(b, uint16(stride))
		b = append(b, rows, 0, 0)
		if write {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		return b
	}
	encode := func(ops []rowOp) []byte {
		var b []byte
		for _, o := range ops {
			e := op(o.addr, uint16(o.rowBytes), int16(o.stride), uint8(o.rows), o.write)
			e[13] = o.kind
			b = append(b, e...)
		}
		return b
	}
	var ops []byte
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		ops = append(ops, op(uint64(rng.Intn(4096)), uint16(1+rng.Intn(96)), int16(rng.Intn(160)-32), uint8(1+rng.Intn(6)), rng.Intn(3) == 0)...)
	}
	wrap := append(op(^uint64(0)-40, 64, 32, 3, false), op(^uint64(0)-95, 96, 0, 1, true)...)
	for pol := range Policies() {
		f.Add(uint8(10), uint8(5), uint8(1), uint8(pol), uint64(0), ops)
		f.Add(uint8(12), uint8(4), uint8(2), uint8(pol), uint64(7), ops)
		f.Add(uint8(9), uint8(5), uint8(4), uint8(pol), uint64(1), wrap)
	}
	f.Add(uint8(8), uint8(0), uint8(8), uint8(0), uint64(0), ops) // 1-byte lines
	for pol := range Policies() {
		for _, stride := range []int{352, 176, 720} {
			// 32 KB, 32-byte lines, 2 ways: the paper's L1.
			motion := encode(motionSearchOps(rand.New(rand.NewSource(int64(stride))), stride, 2, 3, 16<<10))
			f.Add(uint8(15), uint8(5), uint8(1), uint8(pol), uint64(0), motion)
		}
	}
	f.Fuzz(func(t *testing.T, sizeLog, lineLog, waysLog, pol uint8, seed uint64, data []byte) {
		policies := Policies()
		cfg := Config{
			SizeBytes: 1 << (sizeLog % 17),
			LineBytes: 1 << (lineLog % 9),
			Ways:      1 << (waysLog % 7),
			Policy:    policies[int(pol)%len(policies)],
			Seed:      seed,
		}
		p, err := newRowTwins(cfg)
		if err != nil {
			return
		}
		// Bound the references per input so every exec stays fast.
		budget := 1 << 14
		for ; len(data) >= 16; data = data[16:] {
			o := rowOp{
				kind:     data[13],
				addr:     binary.LittleEndian.Uint64(data),
				rowBytes: int(binary.LittleEndian.Uint16(data[8:]) % 1024),
				stride:   int(int16(binary.LittleEndian.Uint16(data[10:]))),
				rows:     int(data[12] % 32),
				write:    data[15]&1 != 0,
			}
			cost := o.rows*(o.rowBytes/cfg.LineBytes+2) + 1
			if o.kind == opReset {
				cost = cfg.SizeBytes / cfg.LineBytes
			}
			if budget -= cost; budget < 0 {
				break
			}
			if err := p.apply(o); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
		}
		if err := p.check(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
