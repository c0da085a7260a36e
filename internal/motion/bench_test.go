package motion

import (
	"testing"

	"repro/internal/simmem"
	"repro/internal/video"
)

var benchSink int

// benchPlanes returns a textured current and reference plane and an
// alpha plane holding a disc of object pixels: the shapes of the
// codec's 16×16 comparisons, with no tracing cost (simmem.Nop).
func benchPlanes() (cur, ref, alpha *video.Plane) {
	sp := simmem.NewSpace(0)
	ref = textured(sp, 64, 64, 21)
	cur = textured(sp, 64, 64, 22)
	alpha = video.NewPlane(sp, 64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if (x-24)*(x-24)+(y-24)*(y-24) < 14*14 {
				alpha.Set(x, y, 255)
			}
		}
	}
	return cur, ref, alpha
}

// limitAfterRows returns the limit at which a SAD of the block at
// (cx, cy) against (rx, ry) stops after exactly n rows: the partial sum
// of n rows less one (row n-1 is nonzero on these textures).
func limitAfterRows(cur, ref, alpha *video.Plane, cx, cy, rx, ry, n int) int {
	sum := 0
	for row := 0; row < n; row++ {
		for i := 0; i < MBSize; i++ {
			if alpha != nil && alpha.At(cx+i, cy+row) == 0 {
				continue
			}
			d := int(cur.At(cx+i, cy+row)) - int(ref.At(rx+i, ry+row))
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum - 1
}

// benchLimits are the full-block case and one that stops at row 4.
func benchLimits(b *testing.B, cur, ref, alpha *video.Plane) []struct {
	name  string
	limit int
} {
	row4 := limitAfterRows(cur, ref, alpha, 16, 16, 18, 17, 4)
	var ct simmem.Count
	planes := uint64(2)
	if alpha != nil {
		SAD16Masked(&ct, cur, ref, alpha, 16, 16, 18, 17, row4)
		planes = 3
	} else {
		SAD16(&ct, cur, ref, 16, 16, 18, 17, row4)
	}
	if rows := ct.LoadBytes / (planes * MBSize); rows != 4 {
		b.Fatalf("the row-4 limit stopped after %d rows", rows)
	}
	return []struct {
		name  string
		limit int
	}{{"full", 1 << 30}, {"row4", row4}}
}

func BenchmarkSAD16(b *testing.B) {
	cur, ref, _ := benchPlanes()
	for _, bc := range benchLimits(b, cur, ref, nil) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSink = SAD16(simmem.Nop{}, cur, ref, 16, 16, 18, 17, bc.limit)
			}
		})
	}
}

func BenchmarkSAD16Masked(b *testing.B) {
	cur, ref, alpha := benchPlanes()
	for _, bc := range benchLimits(b, cur, ref, alpha) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSink = SAD16Masked(simmem.Nop{}, cur, ref, alpha, 16, 16, 18, 17, bc.limit)
			}
		})
	}
}

// BenchmarkRefineHalfPel tests the eight half-pel neighbours of (2, 1).
// In "full" the first neighbour runs all 16 rows and sets the limit of
// the rest; in "row4" the full-pel SAD passed in stops each neighbour
// after about four rows.
func BenchmarkRefineHalfPel(b *testing.B) {
	cur, ref, _ := benchPlanes()
	full := MV{X: 4, Y: 2}
	for _, bc := range benchLimits(b, cur, ref, nil) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_, benchSink = RefineHalfPel(simmem.Nop{}, cur, ref, 16, 16, full, bc.limit)
			}
		})
	}
}

// BenchmarkSearch runs the codec's full search (range 8) of one
// macroblock, rectangular and shaped: every candidate reuses the
// block's lanes.
func BenchmarkSearch(b *testing.B) {
	cur, ref, alpha := benchPlanes()
	for _, bc := range []struct {
		name  string
		alpha *video.Plane
	}{{"rect", nil}, {"shaped", alpha}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			s := Searcher{Range: 8}
			for b.Loop() {
				_, benchSink = s.Search(simmem.Nop{}, cur, ref, bc.alpha, 24, 24)
			}
		})
	}
}
