// Package motion implements block motion estimation and compensation for
// 16×16 macroblocks (and 8×8 chroma blocks): instrumented SAD kernels,
// restricted-window full search with early termination, half-pel
// refinement with bilinear interpolation, and forward / backward /
// bidirectionally-interpolated compensation.
//
// The paper identifies motion estimation as the encoder's dominant
// kernel and explains why it generates cache locality despite streaming
// per-candidate references: the search proceeds over a restricted window
// with candidate offsets one pixel apart, so consecutive candidate
// blocks overlap almost entirely. The kernels here reproduce exactly
// that access pattern and report every pixel load to the tracer.
package motion

import (
	"encoding/binary"

	"repro/internal/simmem"
	"repro/internal/video"
)

// MV is a motion vector in half-pel units: full-pel displacement is
// X>>1, Y>>1, and the low bit selects half-pel interpolation.
type MV struct {
	X, Y int
}

// FullPel reports whether the vector has no half-pel component.
func (v MV) FullPel() bool { return v.X&1 == 0 && v.Y&1 == 0 }

// MBSize is the luma macroblock dimension.
const MBSize = 16

// opsPerSADRow approximates the graduated ALU instructions of one
// 16-pixel SAD row (load-expand, absolute difference, accumulate).
const opsPerSADRow = 40

// The SAD kernels run SWAR (SIMD within a register): a uint64 holds
// four 16-bit lanes, each carrying one byte-valued pixel, so one word
// operation works on four pixels and no lane can carry into the next.
// The host arithmetic is invisible to the simulation, which sees only
// the loads and ops the kernels report after it, so it may change
// freely as long as every result, and the row where early termination
// stops, equals that of the plain byte-at-a-time loop (the tests keep
// that loop as their reference).
const (
	laneLo   = 0x00FF00FF00FF00FF // the low byte of every lane
	laneOne  = 0x0001000100010001 // 1 in every lane
	laneBias = 0x0100010001000100 // 256 in every lane
)

// rowLanes is one 16-pixel row in lanes: the even and the odd pixels of
// its first eight (e0, o0), then of its last eight (e1, o1).
type rowLanes struct{ e0, o0, e1, o1 uint64 }

// splitRow loads the 16 pixels of p into lanes.
func splitRow(p []byte) rowLanes {
	w0 := binary.LittleEndian.Uint64(p[0:8])
	w1 := binary.LittleEndian.Uint64(p[8:16])
	return rowLanes{w0 & laneLo, w0 >> 8 & laneLo, w1 & laneLo, w1 >> 8 & laneLo}
}

// absDiff returns |a-b| in every lane of two words of byte-valued lanes.
func absDiff(a, b uint64) uint64 {
	d := (a | laneBias) - b // 256+a-b in [1, 511]: never borrows across lanes
	n := ^d >> 8 & laneOne  // 1 where a < b
	// a >= b: the low byte of d is a-b. a < b: 255-d is b-a-1.
	return (d^n*0xFF)&laneLo + n
}

// laneSum adds the four lanes of w; the sum must fit 16 bits.
func laneSum(w uint64) int { return int(w * laneOne >> 48) }

// rowSAD is the SAD of a row, c against r. A lane of the four-word sum
// holds at most 4·255 and the whole row at most 16·255 = 4080.
func rowSAD(c, r rowLanes) int {
	return laneSum(absDiff(c.e0, r.e0) + absDiff(c.o0, r.o0) + absDiff(c.e1, r.e1) + absDiff(c.o1, r.o1))
}

// rowSADMasked is rowSAD over the lanes that mask m keeps.
func rowSADMasked(c, r, m rowLanes) int {
	return laneSum(absDiff(c.e0, r.e0)&m.e0 + absDiff(c.o0, r.o0)&m.o0 +
		absDiff(c.e1, r.e1)&m.e1 + absDiff(c.o1, r.o1)&m.o1)
}

// alphaMask returns 0xFFFF in the lanes of a whose alpha is nonzero and
// 0 elsewhere.
func alphaMask(a rowLanes) rowLanes {
	return rowLanes{nonzero(a.e0), nonzero(a.o0), nonzero(a.e1), nonzero(a.o1)}
}

// nonzero returns 0xFFFF in the lanes of w that are not 0: a+255
// reaches bit 8 exactly when a is not 0.
func nonzero(w uint64) uint64 { return (w + laneLo) >> 8 & laneOne * 0xFFFF }

// plus adds b to a lane by lane.
func (a rowLanes) plus(b rowLanes) rowLanes {
	return rowLanes{a.e0 + b.e0, a.o0 + b.o0, a.e1 + b.e1, a.o1 + b.o1}
}

// mean returns (a+round)>>shift in every lane, for a lane sum of 2 or 4
// pixels: the sum fits its lane, and the mask drops the bits the next
// lane shifts in.
func (a rowLanes) mean(round uint64, shift uint) rowLanes {
	f := func(w uint64) uint64 { return (w + round) >> shift & laneLo }
	return rowLanes{f(a.e0), f(a.o0), f(a.e1), f(a.o1)}
}

// block is the current-frame 16×16 block a SAD compares against. Its
// rows are split into lanes on first use and kept, so every candidate of
// a search reuses them.
type block struct {
	cur   *video.Plane
	alpha *video.Plane // nil: every pixel counts
	x, y  int
	n     int // rows split so far
	rows  [MBSize]rowLanes
	mask  [MBSize]rowLanes // 0xFFFF in the lanes whose alpha is nonzero
}

// splitNext splits the next row of the block, and its alpha mask.
func (b *block) splitNext() {
	o := (b.y+b.n)*b.cur.Stride + b.x
	b.rows[b.n] = splitRow(b.cur.Pix[o : o+MBSize])
	if b.alpha != nil {
		o := (b.y+b.n)*b.alpha.Stride + b.x
		b.mask[b.n] = alphaMask(splitRow(b.alpha.Pix[o : o+MBSize]))
	}
	b.n++
}

// sad is SAD16 (SAD16Masked when the block has an alpha plane) of the
// block against the reference block at (rx, ry).
func (b *block) sad(t simmem.Tracer, ref *video.Plane, rx, ry, limit int) int {
	sad := 0
	rows := 0
	for row := 0; row < MBSize; row++ {
		if row == b.n {
			b.splitNext()
		}
		ro := (ry+row)*ref.Stride + rx
		r := splitRow(ref.Pix[ro : ro+MBSize])
		if b.alpha == nil {
			sad += rowSAD(b.rows[row], r)
		} else {
			sad += rowSADMasked(b.rows[row], r, b.mask[row])
		}
		rows++
		if sad > limit {
			break
		}
	}
	// The rows actually traversed (early termination stops mid-block)
	// are reported as one strided block per plane: the same bytes and
	// graduated loads as per-row reporting, in one tracer event each.
	// Grouping by plane (cur rows, then ref rows) instead of
	// interleaving per row reorders the reference stream, which can
	// shift cache-state-dependent counters (misses) by a fraction of a
	// percent against per-row reporting; every rate and trend the
	// paper reports is insensitive to it (asserted by the fallacies
	// tests), and live and replayed runs see the identical stream.
	cur := b.cur
	simmem.AccessStrided(t, cur.Addr+uint64(b.y*cur.Stride+b.x), MBSize, cur.Stride, rows, simmem.Load)
	simmem.AccessStrided(t, ref.Addr+uint64(ry*ref.Stride+rx), MBSize, ref.Stride, rows, simmem.Load)
	if b.alpha == nil {
		t.Ops(uint64(rows) * opsPerSADRow)
		return sad
	}
	alpha := b.alpha
	simmem.AccessStrided(t, alpha.Addr+uint64(b.y*alpha.Stride+b.x), MBSize, alpha.Stride, rows, simmem.Load)
	t.Ops(uint64(rows) * (opsPerSADRow + 16))
	return sad
}

// SAD16 computes the sum of absolute differences between the 16×16
// current-frame block at (cx, cy) and the reference block at (rx, ry),
// terminating early once the partial sum exceeds limit (pass a large
// limit to disable). Every pixel row read on both planes is reported to
// t. The caller guarantees both blocks lie inside their planes.
func SAD16(t simmem.Tracer, cur, ref *video.Plane, cx, cy, rx, ry, limit int) int {
	b := block{cur: cur, x: cx, y: cy}
	return b.sad(t, ref, rx, ry, limit)
}

// SAD16Masked is SAD16 restricted to pixels whose alpha is nonzero in
// the current frame's binary alpha plane (arbitrary-shape VOPs match
// only object pixels). Alpha loads are reported too.
func SAD16Masked(t simmem.Tracer, cur, ref, alpha *video.Plane, cx, cy, rx, ry, limit int) int {
	b := block{cur: cur, alpha: alpha, x: cx, y: cy}
	return b.sad(t, ref, rx, ry, limit)
}

// Searcher runs restricted-window full search as the MoMuSys encoder
// does: candidates at one-pixel offsets over a ±Range window, clamped to
// the plane interior, with the zero vector evaluated first to seed early
// termination. PrefetchInterval > 0 makes the kernel issue one software
// prefetch of the next candidate row every PrefetchInterval candidate
// evaluations, modelling the MIPSpro compiler's conservative prefetch
// insertion (about 1 prefetch per 1000 graduated loads in the paper).
type Searcher struct {
	Range            int
	PrefetchInterval int

	candidates int // internal counter driving prefetch cadence
}

// Search finds the best full-pel MV for the macroblock whose top-left
// luma corner is (mbx, mby), searching ref. alpha may be nil for
// rectangular VOPs. The returned MV is in half-pel units with zero low
// bits; the SAD of the winner is returned alongside.
func (s *Searcher) Search(t simmem.Tracer, cur, ref, alpha *video.Plane, mbx, mby int) (MV, int) {
	r := s.Range
	if r <= 0 {
		r = 8
	}
	b := block{cur: cur, alpha: alpha, x: mbx, y: mby}
	// Zero vector first: seeds early termination and gets the bias the
	// standard gives it (favour (0,0) on ties to shorten MV codes).
	best := b.sad(t, ref, mbx, mby, 1<<30)
	bestMV := MV{}
	if best <= MBSize { // essentially perfect match; stop immediately
		return bestMV, best
	}
	for dy := -r; dy <= r; dy++ {
		if mby+dy < 0 || mby+dy+MBSize > ref.H {
			continue
		}
		for dx := -r; dx <= r; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if mbx+dx < 0 || mbx+dx+MBSize > ref.W {
				continue
			}
			s.candidates++
			if s.PrefetchInterval > 0 && s.candidates%s.PrefetchInterval == 0 {
				// Prefetch the first row of the next candidate line.
				py := mby + dy + MBSize
				if py < ref.H {
					t.Access(ref.Addr+uint64(py*ref.Stride+mbx), 0, simmem.Prefetch)
				}
			}
			sad := b.sad(t, ref, mbx+dx, mby+dy, best)
			if sad < best {
				best = sad
				bestMV = MV{X: dx * 2, Y: dy * 2}
			}
		}
	}
	return bestMV, best
}

// RefineHalfPel improves a full-pel winner by testing the eight half-pel
// neighbours on a bilinearly interpolated reference, as the MPEG-4
// encoder does after integer search. It returns the refined half-pel MV
// and its SAD.
func RefineHalfPel(t simmem.Tracer, cur, ref *video.Plane, mbx, mby int, full MV, fullSAD int) (MV, int) {
	b := block{cur: cur, x: mbx, y: mby}
	best, bestMV := fullSAD, full
	for _, d := range [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
		cand := MV{X: full.X + d[0], Y: full.Y + d[1]}
		sad, ok := b.sadHalfPel(t, ref, cand, best)
		if ok && sad < best {
			best, bestMV = sad, cand
		}
	}
	return bestMV, best
}

// sadHalfPel computes the block's SAD against the reference
// interpolated at half-pel vector mv. Returns ok=false if the
// interpolation support would leave the plane.
func (b *block) sadHalfPel(t simmem.Tracer, ref *video.Plane, mv MV, limit int) (int, bool) {
	bx := b.x + (mv.X >> 1)
	by := b.y + (mv.Y >> 1)
	hx := mv.X & 1
	hy := mv.Y & 1
	if bx < 0 || by < 0 || bx+MBSize+hx > ref.W || by+MBSize+hy > ref.H {
		return 0, false
	}
	sad := 0
	rows := 0
	for row := 0; row < MBSize; row++ {
		if row == b.n {
			b.splitNext()
		}
		r := interpRow(ref, (by+row)*ref.Stride+bx, hx, hy)
		sad += rowSAD(b.rows[row], r)
		rows++
		if sad > limit {
			break
		}
	}
	cur := b.cur
	simmem.AccessStrided(t, cur.Addr+uint64(b.y*cur.Stride+b.x), MBSize, cur.Stride, rows, simmem.Load)
	simmem.AccessStrided(t, ref.Addr+uint64(by*ref.Stride+bx), MBSize+hx, ref.Stride, rows, simmem.Load)
	if hy == 1 {
		simmem.AccessStrided(t, ref.Addr+uint64((by+1)*ref.Stride+bx), MBSize+hx, ref.Stride, rows, simmem.Load)
	}
	t.Ops(uint64(rows) * (opsPerSADRow + 24))
	return sad, true
}

// interpRow returns the 16 reference pixels from offset o in lanes,
// interpolated at half-pel phase (hx, hy): (a+b+1)>>1 between two
// neighbours, (a+b+c+d+2)>>2 between four.
func interpRow(ref *video.Plane, o, hx, hy int) rowLanes {
	a := splitRow(ref.Pix[o : o+MBSize])
	switch {
	case hx == 1 && hy == 1:
		b := splitRow(ref.Pix[o+1 : o+1+MBSize])
		o += ref.Stride
		c := splitRow(ref.Pix[o : o+MBSize])
		d := splitRow(ref.Pix[o+1 : o+1+MBSize])
		return a.plus(b).plus(c).plus(d).mean(2*laneOne, 2)
	case hx == 1:
		return a.plus(splitRow(ref.Pix[o+1:o+1+MBSize])).mean(laneOne, 1)
	case hy == 1:
		o += ref.Stride
		return a.plus(splitRow(ref.Pix[o:o+MBSize])).mean(laneOne, 1)
	}
	return a
}

// Compensate copies the motion-compensated size×size reference block for
// the block whose top-left corner in dst is (bx, by), displaced by the
// half-pel vector mv, into dst. Out-of-range interpolation support is
// clamped to the plane edge (unrestricted-MC clamping in place of
// physical padding). Loads from ref and stores to dst are traced.
func Compensate(t simmem.Tracer, dst, ref *video.Plane, bx, by, size int, mv MV) {
	CompensateTo(t, dst, ref, bx, by, bx, by, size, mv)
}

// CompensateTo is Compensate with independent block origins: the
// prediction for the reference block at (srcX, srcY) displaced by mv is
// written to dst at (dx, dy). The codec compensates into a small
// macroblock buffer (dx, dy = 0), as the reference software does.
func CompensateTo(t simmem.Tracer, dst, ref *video.Plane, dx, dy, srcX, srcY, size int, mv MV) {
	sx := srcX + (mv.X >> 1)
	sy := srcY + (mv.Y >> 1)
	hx := mv.X & 1
	hy := mv.Y & 1
	for row := 0; row < size; row++ {
		y0 := clampInt(sy+row, 0, ref.H-1)
		y1 := clampInt(y0+hy, 0, ref.H-1)
		do := (dy+row)*dst.Stride + dx
		d := dst.Pix[do : do+size]
		for i := 0; i < size; i++ {
			x0 := clampInt(sx+i, 0, ref.W-1)
			x1 := clampInt(x0+hx, 0, ref.W-1)
			v := (int(ref.Pix[y0*ref.Stride+x0]) + int(ref.Pix[y0*ref.Stride+x1]) +
				int(ref.Pix[y1*ref.Stride+x0]) + int(ref.Pix[y1*ref.Stride+x1]) + 2) >> 2
			if hx == 0 && hy == 0 {
				v = int(ref.Pix[y0*ref.Stride+x0])
			}
			d[i] = byte(v)
		}
		simmem.AccessRunUnit(t, ref.Addr+uint64(y0*ref.Stride+clampInt(sx, 0, ref.W-1)), size+hx, 1, simmem.Load)
		if hy == 1 {
			simmem.AccessRunUnit(t, ref.Addr+uint64(y1*ref.Stride+clampInt(sx, 0, ref.W-1)), size+hx, 1, simmem.Load)
		}
		simmem.AccessRunUnit(t, dst.Addr+uint64(do), size, 1, simmem.Store)
		t.Ops(uint64(size) * 3)
	}
}

// CompensateAvg writes the average of forward and backward compensated
// predictions (B-VOP interpolated mode) into dst.
func CompensateAvg(t simmem.Tracer, dst, fwd, bwd *video.Plane, bx, by, size int, fmv, bmv MV, scratchF, scratchB *video.Plane) {
	CompensateAvgTo(t, dst, fwd, bwd, bx, by, bx, by, size, fmv, bmv, scratchF, scratchB)
}

// CompensateAvgTo is CompensateAvg with independent destination origin;
// scratchF and scratchB are written at the destination origin and may be
// macroblock-sized buffers.
func CompensateAvgTo(t simmem.Tracer, dst, fwd, bwd *video.Plane, dx, dy, srcX, srcY, size int, fmv, bmv MV, scratchF, scratchB *video.Plane) {
	CompensateTo(t, scratchF, fwd, dx, dy, srcX, srcY, size, fmv)
	CompensateTo(t, scratchB, bwd, dx, dy, srcX, srcY, size, bmv)
	for row := 0; row < size; row++ {
		fo := (dy+row)*scratchF.Stride + dx
		bo := (dy+row)*scratchB.Stride + dx
		do := (dy+row)*dst.Stride + dx
		f := scratchF.Pix[fo : fo+size]
		b := scratchB.Pix[bo : bo+size]
		d := dst.Pix[do : do+size]
		for i := 0; i < size; i++ {
			d[i] = byte((int(f[i]) + int(b[i]) + 1) >> 1)
		}
		simmem.AccessRunUnit(t, scratchF.Addr+uint64(fo), size, 1, simmem.Load)
		simmem.AccessRunUnit(t, scratchB.Addr+uint64(bo), size, 1, simmem.Load)
		simmem.AccessRunUnit(t, dst.Addr+uint64(do), size, 1, simmem.Store)
		t.Ops(uint64(size) * 2)
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
