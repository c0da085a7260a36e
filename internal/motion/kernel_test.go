package motion

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simmem"
	"repro/internal/video"
)

// event is one tracer call, as logTracer records it.
type event struct {
	op              byte // 'a' Access, 'r' Run, 's' RunStrided, 'o' Ops
	kind            simmem.Kind
	addr            uint64
	n, stride, rows int
	unit            uint32
	ops             uint64
}

// logTracer records every tracer call in order, so a test can require
// the same calls in the same order, not just the same totals.
type logTracer struct{ ev []event }

func (l *logTracer) Access(addr uint64, size uint32, kind simmem.Kind) {
	l.ev = append(l.ev, event{op: 'a', kind: kind, addr: addr, n: int(size)})
}

func (l *logTracer) Run(addr uint64, n int, unit uint32, kind simmem.Kind) {
	l.ev = append(l.ev, event{op: 'r', kind: kind, addr: addr, n: n, unit: unit})
}

func (l *logTracer) RunStrided(addr uint64, rowBytes, stride, rows int, unit uint32, kind simmem.Kind) {
	l.ev = append(l.ev, event{op: 's', kind: kind, addr: addr, n: rowBytes, stride: stride, rows: rows, unit: unit})
}

func (l *logTracer) Ops(n uint64) { l.ev = append(l.ev, event{op: 'o', ops: n}) }

// traced is a kernel run: its results, its tracer calls and their
// totals.
type traced struct {
	mv    MV
	sad   int
	ok    bool
	log   []event
	count simmem.Count
}

func runTraced(run func(simmem.Tracer) (MV, int, bool)) traced {
	var r traced
	var l logTracer
	r.mv, r.sad, r.ok = run(simmem.Multi{&l, &r.count})
	r.log = l.ev
	return r
}

func (r traced) equal(o traced) bool {
	return r.mv == o.mv && r.sad == o.sad && r.ok == o.ok && r.count == o.count && slices.Equal(r.log, o.log)
}

// checkSame fails t unless the kernel and its reference return the same
// results and make the same tracer calls.
func checkSame(t *testing.T, what string, got, want func(simmem.Tracer) (MV, int, bool)) {
	t.Helper()
	g, w := runTraced(got), runTraced(want)
	if !g.equal(w) {
		t.Fatalf("%s: got mv %+v sad %d ok %v %+v (%d calls), reference mv %+v sad %d ok %v %+v (%d calls)",
			what, g.mv, g.sad, g.ok, g.count, len(g.log), w.mv, w.sad, w.ok, w.count, len(w.log))
	}
}

// lanesOf returns the four 16-bit lanes of w.
func lanesOf(w uint64) [4]uint64 {
	return [4]uint64{w & 0xFFFF, w >> 16 & 0xFFFF, w >> 32 & 0xFFFF, w >> 48}
}

// word packs four lane values.
func word(l [4]uint64) uint64 { return l[0] | l[1]<<16 | l[2]<<32 | l[3]<<48 }

// TestLanePrimitivesExhaustive checks absDiff, nonzero and both
// interpolation roundings lane by lane: every input in every lane, with
// different inputs in the other three, so no lane borrows from or
// carries into another.
func TestLanePrimitivesExhaustive(t *testing.T) {
	for a := uint64(0); a < 256; a++ {
		for b := uint64(0); b < 256; b++ {
			as := [4]uint64{a, b, 255 - a, 255 - b}
			bs := [4]uint64{b, a, b, 255 - a}
			for rot := 0; rot < 4; rot++ {
				var x, y [4]uint64
				for i := range x {
					x[i], y[i] = as[(i+rot)%4], bs[(i+rot)%4]
				}
				got := lanesOf(absDiff(word(x), word(y)))
				for i := range got {
					want := x[i] - y[i]
					if x[i] < y[i] {
						want = y[i] - x[i]
					}
					if got[i] != want {
						t.Fatalf("absDiff lane %d of %v, %v = %d, want %d", i, x, y, got[i], want)
					}
				}
				half := lanesOf(rowLanes{e0: word(x) + word(y)}.mean(laneOne, 1).e0)
				for i := range half {
					if want := (x[i] + y[i] + 1) >> 1; half[i] != want {
						t.Fatalf("(a+b+1)>>1 lane %d of %v, %v = %d, want %d", i, x, y, half[i], want)
					}
				}
			}
		}
	}
	// Every lane sum of four pixels, for (a+b+c+d+2)>>2.
	for s := uint64(0); s <= 4*255; s++ {
		ss := [4]uint64{s, 4*255 - s, s / 2, 4*255 - s/3}
		for rot := 0; rot < 4; rot++ {
			var x [4]uint64
			for i := range x {
				x[i] = ss[(i+rot)%4]
			}
			got := lanesOf(rowLanes{o1: word(x)}.mean(2*laneOne, 2).o1)
			for i := range got {
				if want := (x[i] + 2) >> 2; got[i] != want {
					t.Fatalf("(a+b+c+d+2)>>2 lane %d of sums %v = %d, want %d", i, x, got[i], want)
				}
			}
		}
	}
	for v := uint64(0); v < 256; v++ {
		vs := [4]uint64{v, 255 - v, v ^ 1, 0}
		for rot := 0; rot < 4; rot++ {
			var x [4]uint64
			for i := range x {
				x[i] = vs[(i+rot)%4]
			}
			got := lanesOf(nonzero(word(x)))
			for i := range got {
				want := uint64(0)
				if x[i] != 0 {
					want = 0xFFFF
				}
				if got[i] != want {
					t.Fatalf("nonzero lane %d of %v = %#x, want %#x", i, x, got[i], want)
				}
			}
		}
	}
}

// pairRow returns the 16 pixels whose position i holds the (c, r) pair
// number (k + 4096·i) mod 65536: over k = 0..65535 every pair visits
// every position of a row, sixteen different pairs per row.
func pairRow(k int) (c, r [MBSize]byte) {
	for i := range c {
		p := (k + 4096*i) & 0xFFFF
		c[i], r[i] = byte(p>>8), byte(p)
	}
	return c, r
}

// alphaValues are the alpha levels the masked rows are tested at: the
// byte loop counted every nonzero alpha as inside, not just 255.
var alphaValues = [6]byte{0, 1, 127, 128, 254, 255}

// TestSADRowsMatchByteLoop runs the first row of SAD16 and SAD16Masked
// (limit -1 stops after it) against the byte loops for every (c, r)
// pair at every position, and the masked row with every alpha level at
// every position.
func TestSADRowsMatchByteLoop(t *testing.T) {
	sp := simmem.NewSpace(0)
	cur, ref, alpha := video.NewPlane(sp, MBSize, 1), video.NewPlane(sp, MBSize, 1), video.NewPlane(sp, MBSize, 1)
	for k := 0; k < 1<<16; k++ {
		c, r := pairRow(k)
		copy(cur.Pix, c[:])
		copy(ref.Pix, r[:])
		if got, want := SAD16(simmem.Nop{}, cur, ref, 0, 0, 0, 0, -1), refSAD16(simmem.Nop{}, cur, ref, 0, 0, 0, 0, -1); got != want {
			t.Fatalf("SAD16 row %v against %v = %d, byte loop %d", c, r, got, want)
		}
		for ai := range alphaValues {
			for i := range alpha.Pix {
				alpha.Pix[i] = alphaValues[(ai+i)%len(alphaValues)]
			}
			got := SAD16Masked(simmem.Nop{}, cur, ref, alpha, 0, 0, 0, 0, -1)
			if want := refSAD16Masked(simmem.Nop{}, cur, ref, alpha, 0, 0, 0, 0, -1); got != want {
				t.Fatalf("SAD16Masked row %v against %v under alpha %v = %d, byte loop %d", c, r, alpha.Pix, got, want)
			}
		}
	}
}

// TestHalfPelRowsMatchByteLoop runs the first row of the half-pel SAD
// at all four phases against the byte loop. Over k the first two
// reference rows put every pair of horizontal and of vertical
// neighbours at every position. The reference plane is as large as the
// interpolation support of a whole block, which the kernel checks
// before its first row.
func TestHalfPelRowsMatchByteLoop(t *testing.T) {
	sp := simmem.NewSpace(0)
	cur, ref := video.NewPlane(sp, MBSize, 1), video.NewPlane(sp, MBSize+1, MBSize+1)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1<<16; k++ {
		hi, lo := k>>8, k&0xFF
		for j := 0; j <= MBSize; j++ {
			if j%2 == 0 {
				ref.Pix[j], ref.Pix[ref.Stride+j] = byte(hi+37*j), byte(lo+41*j)
			} else {
				ref.Pix[j], ref.Pix[ref.Stride+j] = byte(lo+53*j), byte(hi+29*j)
			}
		}
		rng.Read(cur.Pix)
		for _, mv := range []MV{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
			b := block{cur: cur}
			got, ok := b.sadHalfPel(simmem.Nop{}, ref, mv, -1)
			if want, _ := refSADHalfPel(simmem.Nop{}, cur, ref, 0, 0, mv, -1); got != want || !ok {
				t.Fatalf("half-pel %+v row of %v against %v = %d (ok %v), byte loop %d", mv, cur.Pix, ref.Pix[:2*ref.Stride], got, ok, want)
			}
		}
	}
}

// fuzzPlanes builds the current, reference and alpha planes of a fuzz
// input: 48×48 (nine macroblocks) filled from data, alpha zero on about
// half its pixels.
func fuzzPlanes(data []byte) (cur, ref, alpha *video.Plane) {
	sp := simmem.NewSpace(0)
	cur, ref, alpha = video.NewPlane(sp, 48, 48), video.NewPlane(sp, 48, 48), video.NewPlane(sp, 48, 48)
	if len(data) == 0 {
		return cur, ref, alpha
	}
	for i := range cur.Pix {
		cur.Pix[i] = data[i%len(data)]
		ref.Pix[i] = data[(i+len(data)/2+1)%len(data)] + byte(i/len(data))
		if a := data[(i*7+3)%len(data)]; a&1 == 1 {
			alpha.Pix[i] = a
		}
	}
	return cur, ref, alpha
}

// FuzzSADKernels compares every SAD kernel, and the searches built on
// them, with the byte-loop references: the same SADs and vectors, the
// same early-termination rows, and the same tracer calls in the same
// order.
func FuzzSADKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	textured := make([]byte, 48*48)
	rng.Read(textured)
	smooth := make([]byte, 97)
	for i := range smooth {
		smooth[i] = byte(3 * i)
	}
	f.Add(textured, uint8(16), uint8(16), uint8(18), uint8(17), int32(1<<30), uint8(0))
	f.Add(textured, uint8(0), uint8(32), uint8(32), uint8(0), int32(-1), uint8(9))
	f.Add(textured, uint8(5), uint8(7), uint8(6), uint8(9), int32(3000), uint8(42))
	f.Add(smooth, uint8(16), uint8(16), uint8(15), uint8(16), int32(1<<30), uint8(3))
	f.Add(smooth, uint8(32), uint8(32), uint8(31), uint8(30), int32(0), uint8(77))
	f.Add([]byte{}, uint8(16), uint8(16), uint8(16), uint8(16), int32(1<<30), uint8(1))
	f.Add([]byte{255, 0}, uint8(1), uint8(2), uint8(3), uint8(4), int32(200), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, cx8, cy8, rx8, ry8 uint8, limit32 int32, knobs uint8) {
		cur, ref, alpha := fuzzPlanes(data)
		cx, cy, rx, ry := int(cx8)%33, int(cy8)%33, int(rx8)%33, int(ry8)%33
		limit := int(limit32)
		checkSame(t, "SAD16", func(tr simmem.Tracer) (MV, int, bool) {
			return MV{}, SAD16(tr, cur, ref, cx, cy, rx, ry, limit), true
		}, func(tr simmem.Tracer) (MV, int, bool) {
			return MV{}, refSAD16(tr, cur, ref, cx, cy, rx, ry, limit), true
		})
		checkSame(t, "SAD16Masked", func(tr simmem.Tracer) (MV, int, bool) {
			return MV{}, SAD16Masked(tr, cur, ref, alpha, cx, cy, rx, ry, limit), true
		}, func(tr simmem.Tracer) (MV, int, bool) {
			return MV{}, refSAD16Masked(tr, cur, ref, alpha, cx, cy, rx, ry, limit), true
		})
		full := MV{X: 2 * (rx - cx), Y: 2 * (ry - cy)}
		for _, d := range []MV{{1, 0}, {-1, 1}, {0, -1}, {1, 1}} {
			mv := MV{X: full.X + d.X, Y: full.Y + d.Y}
			checkSame(t, "half-pel SAD", func(tr simmem.Tracer) (MV, int, bool) {
				b := block{cur: cur, x: cx, y: cy}
				sad, ok := b.sadHalfPel(tr, ref, mv, limit)
				return mv, sad, ok
			}, func(tr simmem.Tracer) (MV, int, bool) {
				sad, ok := refSADHalfPel(tr, cur, ref, cx, cy, mv, limit)
				return mv, sad, ok
			})
		}
		checkSame(t, "RefineHalfPel", func(tr simmem.Tracer) (MV, int, bool) {
			mv, sad := RefineHalfPel(tr, cur, ref, cx, cy, full, limit)
			return mv, sad, true
		}, func(tr simmem.Tracer) (MV, int, bool) {
			mv, sad := refRefineHalfPel(tr, cur, ref, cx, cy, full, limit)
			return mv, sad, true
		})
		// The searches run from a macroblock-aligned corner, as in the
		// codec, with a range and prefetch cadence from knobs.
		mbx, mby := cx/16*16, cy/16*16
		for _, a := range []*video.Plane{nil, alpha} {
			for _, alg := range []Algorithm{FullSearch, DiamondSearch} {
				s := Searcher{Range: 1 + int(knobs%8), PrefetchInterval: int(knobs / 8 % 5)}
				sr := s
				search := refSearch
				if alg == DiamondSearch {
					search = refSearchDiamond
				}
				checkSame(t, "Search "+alg.String(), func(tr simmem.Tracer) (MV, int, bool) {
					mv, sad := s.SearchWith(alg, tr, cur, ref, a, mbx, mby)
					return mv, sad, true
				}, func(tr simmem.Tracer) (MV, int, bool) {
					mv, sad := search(&sr, tr, cur, ref, a, mbx, mby)
					return mv, sad, true
				})
				if s.candidates != sr.candidates {
					t.Fatalf("search counted %d candidates, reference %d", s.candidates, sr.candidates)
				}
			}
		}
	})
}

// TestKernelsAllocateNothing: the kernels keep their scratch on the
// stack.
func TestKernelsAllocateNothing(t *testing.T) {
	cur, ref, alpha := benchPlanes()
	s := Searcher{Range: 8, PrefetchInterval: 16}
	for name, run := range map[string]func(){
		"SAD16":         func() { benchSink = SAD16(simmem.Nop{}, cur, ref, 16, 16, 18, 17, 1<<30) },
		"SAD16Masked":   func() { benchSink = SAD16Masked(simmem.Nop{}, cur, ref, alpha, 16, 16, 18, 17, 1<<30) },
		"RefineHalfPel": func() { _, benchSink = RefineHalfPel(simmem.Nop{}, cur, ref, 16, 16, MV{X: 4, Y: 2}, 1<<30) },
		"Search":        func() { _, benchSink = s.Search(simmem.Nop{}, cur, ref, alpha, 16, 16) },
		"SearchDiamond": func() { _, benchSink = s.SearchDiamond(simmem.Nop{}, cur, ref, nil, 16, 16) },
	} {
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%s allocates %v times per run", name, n)
		}
	}
}
