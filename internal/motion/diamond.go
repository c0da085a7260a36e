package motion

import (
	"repro/internal/simmem"
	"repro/internal/video"
)

// Algorithm selects the integer motion search strategy. The reference
// software supports both exhaustive and logarithmic searches; the
// ablation benchmarks compare their memory behaviour (the paper's
// locality argument — overlapping candidate windows — applies to the
// exhaustive search; diamond search trades references for a slightly
// worse match).
type Algorithm uint8

const (
	// FullSearch evaluates every candidate in the ±Range window.
	FullSearch Algorithm = iota
	// DiamondSearch runs the large/small diamond pattern descent.
	DiamondSearch
)

func (a Algorithm) String() string {
	switch a {
	case FullSearch:
		return "full"
	case DiamondSearch:
		return "diamond"
	default:
		return "unknown"
	}
}

// largeDiamond and smallDiamond are the classic LDSP/SDSP offsets.
var (
	largeDiamond = [8][2]int{{0, -2}, {1, -1}, {2, 0}, {1, 1}, {0, 2}, {-1, 1}, {-2, 0}, {-1, -1}}
	smallDiamond = [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}
)

// SearchDiamond finds a full-pel MV with the diamond search pattern:
// repeat the large diamond around the best point until the centre wins,
// then refine with the small diamond. Bounds follow the same rules as
// Search. Returned MV is in half-pel units with zero low bits.
func (s *Searcher) SearchDiamond(t simmem.Tracer, cur, ref, alpha *video.Plane, mbx, mby int) (MV, int) {
	r := s.Range
	if r <= 0 {
		r = 8
	}
	b := block{cur: cur, alpha: alpha, x: mbx, y: mby}
	sadAt := func(dx, dy, limit int) (int, bool) {
		if dx < -r || dx > r || dy < -r || dy > r {
			return 0, false
		}
		rx, ry := mbx+dx, mby+dy
		if rx < 0 || ry < 0 || rx+MBSize > ref.W || ry+MBSize > ref.H {
			return 0, false
		}
		return b.sad(t, ref, rx, ry, limit), true
	}
	best, _ := sadAt(0, 0, 1<<30)
	cx, cy := 0, 0
	if best <= MBSize {
		return MV{}, best
	}
	// Large diamond descent.
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
	// Small diamond refinement.
	for _, d := range smallDiamond {
		if sad, ok := sadAt(cx+d[0], cy+d[1], best); ok && sad < best {
			best, cx, cy = sad, cx+d[0], cy+d[1]
		}
	}
	return MV{X: cx * 2, Y: cy * 2}, best
}

// SearchWith dispatches on the algorithm.
func (s *Searcher) SearchWith(alg Algorithm, t simmem.Tracer, cur, ref, alpha *video.Plane, mbx, mby int) (MV, int) {
	if alg == DiamondSearch {
		return s.SearchDiamond(t, cur, ref, alpha, mbx, mby)
	}
	return s.Search(t, cur, ref, alpha, mbx, mby)
}
