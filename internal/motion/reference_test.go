package motion

import (
	"repro/internal/simmem"
	"repro/internal/video"
)

// The byte-at-a-time kernels the lane kernels replaced, kept as the
// reference they are tested against: each returns the same SAD, stops
// after the same row and makes the same tracer calls in the same order.

func refSAD16(t simmem.Tracer, cur, ref *video.Plane, cx, cy, rx, ry, limit int) int {
	sad := 0
	rows := 0
	for row := 0; row < MBSize; row++ {
		co := (cy+row)*cur.Stride + cx
		ro := (ry+row)*ref.Stride + rx
		c := cur.Pix[co : co+MBSize]
		r := ref.Pix[ro : ro+MBSize]
		for i := 0; i < MBSize; i++ {
			d := int(c[i]) - int(r[i])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		rows++
		if sad > limit {
			break
		}
	}
	simmem.AccessStrided(t, cur.Addr+uint64(cy*cur.Stride+cx), MBSize, cur.Stride, rows, simmem.Load)
	simmem.AccessStrided(t, ref.Addr+uint64(ry*ref.Stride+rx), MBSize, ref.Stride, rows, simmem.Load)
	t.Ops(uint64(rows) * opsPerSADRow)
	return sad
}

func refSAD16Masked(t simmem.Tracer, cur, ref, alpha *video.Plane, cx, cy, rx, ry, limit int) int {
	sad := 0
	rows := 0
	for row := 0; row < MBSize; row++ {
		co := (cy+row)*cur.Stride + cx
		ro := (ry+row)*ref.Stride + rx
		ao := (cy+row)*alpha.Stride + cx
		c := cur.Pix[co : co+MBSize]
		r := ref.Pix[ro : ro+MBSize]
		a := alpha.Pix[ao : ao+MBSize]
		for i := 0; i < MBSize; i++ {
			if a[i] == 0 {
				continue
			}
			d := int(c[i]) - int(r[i])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		rows++
		if sad > limit {
			break
		}
	}
	simmem.AccessStrided(t, cur.Addr+uint64(cy*cur.Stride+cx), MBSize, cur.Stride, rows, simmem.Load)
	simmem.AccessStrided(t, ref.Addr+uint64(ry*ref.Stride+rx), MBSize, ref.Stride, rows, simmem.Load)
	simmem.AccessStrided(t, alpha.Addr+uint64(cy*alpha.Stride+cx), MBSize, alpha.Stride, rows, simmem.Load)
	t.Ops(uint64(rows) * (opsPerSADRow + 16))
	return sad
}

func refSearch(s *Searcher, t simmem.Tracer, cur, ref, alpha *video.Plane, mbx, mby int) (MV, int) {
	r := s.Range
	if r <= 0 {
		r = 8
	}
	sadAt := func(dx, dy, limit int) int {
		rx, ry := mbx+dx, mby+dy
		if alpha != nil {
			return refSAD16Masked(t, cur, ref, alpha, mbx, mby, rx, ry, limit)
		}
		return refSAD16(t, cur, ref, mbx, mby, rx, ry, limit)
	}
	best := sadAt(0, 0, 1<<30)
	bestMV := MV{}
	if best <= MBSize {
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
				py := mby + dy + MBSize
				if py < ref.H {
					t.Access(ref.Addr+uint64(py*ref.Stride+mbx), 0, simmem.Prefetch)
				}
			}
			sad := sadAt(dx, dy, best)
			if sad < best {
				best = sad
				bestMV = MV{X: dx * 2, Y: dy * 2}
			}
		}
	}
	return bestMV, best
}

func refSearchDiamond(s *Searcher, t simmem.Tracer, cur, ref, alpha *video.Plane, mbx, mby int) (MV, int) {
	r := s.Range
	if r <= 0 {
		r = 8
	}
	sadAt := func(dx, dy, limit int) (int, bool) {
		if dx < -r || dx > r || dy < -r || dy > r {
			return 0, false
		}
		rx, ry := mbx+dx, mby+dy
		if rx < 0 || ry < 0 || rx+MBSize > ref.W || ry+MBSize > ref.H {
			return 0, false
		}
		if alpha != nil {
			return refSAD16Masked(t, cur, ref, alpha, mbx, mby, rx, ry, limit), true
		}
		return refSAD16(t, cur, ref, mbx, mby, rx, ry, limit), true
	}
	best, _ := sadAt(0, 0, 1<<30)
	cx, cy := 0, 0
	if best <= MBSize {
		return MV{}, best
	}
	for step := 0; step < 2*r; step++ {
		improved := false
		for _, d := range largeDiamond {
			s.candidates++
			if s.PrefetchInterval > 0 && s.candidates%s.PrefetchInterval == 0 {
				py := mby + cy + d[1] + MBSize
				if py >= 0 && py < ref.H {
					t.Access(ref.Addr+uint64(py*ref.Stride+mbx), 0, simmem.Prefetch)
				}
			}
			if sad, ok := sadAt(cx+d[0], cy+d[1], best); ok && sad < best {
				best, cx, cy = sad, cx+d[0], cy+d[1]
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	for _, d := range smallDiamond {
		if sad, ok := sadAt(cx+d[0], cy+d[1], best); ok && sad < best {
			best, cx, cy = sad, cx+d[0], cy+d[1]
		}
	}
	return MV{X: cx * 2, Y: cy * 2}, best
}

func refRefineHalfPel(t simmem.Tracer, cur, ref *video.Plane, mbx, mby int, full MV, fullSAD int) (MV, int) {
	best, bestMV := fullSAD, full
	for _, d := range [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
		cand := MV{X: full.X + d[0], Y: full.Y + d[1]}
		sad, ok := refSADHalfPel(t, cur, ref, mbx, mby, cand, best)
		if ok && sad < best {
			best, bestMV = sad, cand
		}
	}
	return bestMV, best
}

func refSADHalfPel(t simmem.Tracer, cur, ref *video.Plane, mbx, mby int, mv MV, limit int) (int, bool) {
	bx := mbx + (mv.X >> 1)
	by := mby + (mv.Y >> 1)
	hx := mv.X & 1
	hy := mv.Y & 1
	if bx < 0 || by < 0 || bx+MBSize+hx > ref.W || by+MBSize+hy > ref.H {
		return 0, false
	}
	sad := 0
	rows := 0
	for row := 0; row < MBSize; row++ {
		co := (mby+row)*cur.Stride + mbx
		c := cur.Pix[co : co+MBSize]
		r0 := (by + row) * ref.Stride
		r1 := r0
		if hy == 1 {
			r1 = r0 + ref.Stride
		}
		for i := 0; i < MBSize; i++ {
			p := refInterpPixel(ref, r0, r1, bx+i, hx)
			d := int(c[i]) - p
			if d < 0 {
				d = -d
			}
			sad += d
		}
		rows++
		if sad > limit {
			break
		}
	}
	simmem.AccessStrided(t, cur.Addr+uint64(mby*cur.Stride+mbx), MBSize, cur.Stride, rows, simmem.Load)
	simmem.AccessStrided(t, ref.Addr+uint64(by*ref.Stride+bx), MBSize+hx, ref.Stride, rows, simmem.Load)
	if hy == 1 {
		simmem.AccessStrided(t, ref.Addr+uint64((by+1)*ref.Stride+bx), MBSize+hx, ref.Stride, rows, simmem.Load)
	}
	t.Ops(uint64(rows) * (opsPerSADRow + 24))
	return sad, true
}

func refInterpPixel(ref *video.Plane, r0, r1, x, hx int) int {
	switch {
	case hx == 0 && r0 == r1:
		return int(ref.Pix[r0+x])
	case hx == 1 && r0 == r1:
		return (int(ref.Pix[r0+x]) + int(ref.Pix[r0+x+1]) + 1) >> 1
	case hx == 0:
		return (int(ref.Pix[r0+x]) + int(ref.Pix[r1+x]) + 1) >> 1
	default:
		return (int(ref.Pix[r0+x]) + int(ref.Pix[r0+x+1]) +
			int(ref.Pix[r1+x]) + int(ref.Pix[r1+x+1]) + 2) >> 2
	}
}
