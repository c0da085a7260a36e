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

func (p *rowTwins) check() error {
	if err := p.kernel.CheckInvariant(); err != nil {
		return fmt.Errorf("kernel cache: %w", err)
	}
	return p.twin.CheckInvariant()
}

// TestAccessRowsMatchesPerLineAccess differences the kernel against the
// per-line oracle under every policy, at 1/2/4/8 ways over 4 sets and
// one fully associative set, over random blocks: row widths that
// straddle lines, strides under, at and over a line (some negative),
// row counts and writes.
func TestAccessRowsMatchesPerLineAccess(t *testing.T) {
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
// a row whose end wraps the address space and one that ends on its last
// line. `go test` runs the seed corpus; `go test -fuzz=FuzzAccessRows
// ./internal/cache` searches for divergences.
func FuzzAccessRows(f *testing.F) {
	// Each op is 16 bytes: address, then row bytes, stride, rows and a
	// write flag.
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
			addr := binary.LittleEndian.Uint64(data)
			rowBytes := int(binary.LittleEndian.Uint16(data[8:]) % 1024)
			stride := int(int16(binary.LittleEndian.Uint16(data[10:])))
			rows := int(data[12] % 32)
			if budget -= rows * (rowBytes/cfg.LineBytes + 2); budget < 0 {
				break
			}
			if err := p.rows(addr, rowBytes, stride, rows, data[15]&1 != 0); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
		}
		if err := p.check(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
