package dist

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/harness"
)

// planShards is the reference grid cut: one shard per L1, over the
// whole L2-size axis. The coordinator's shard cut, cutShards, must
// reproduce it exactly over rows the memo served nothing of.
func planShards(l1s []cache.Config, l2Sizes []int) []Shard {
	shards := make([]Shard, len(l1s))
	for i, l1 := range l1s {
		shards[i] = Shard{Index: i, L1: l1, L2Sizes: append([]int(nil), l2Sizes...)}
	}
	return shards
}

// sweepRows builds the rows a planner hands the coordinator over l1s
// and nl2 L2 sizes, each missing the given cells.
func sweepRows(l1s []cache.Config, nl2 int, missing []int) []harness.SweepRow {
	rows := make([]harness.SweepRow, len(l1s))
	for i, l1 := range l1s {
		rows[i] = harness.SweepRow{L1: l1, Points: make([]harness.GeometryPoint, nl2), Missing: missing}
		if len(missing) > 0 {
			rows[i].Stats = make([]cache.Stats, nl2)
		}
	}
	return rows
}

// TestCutShardsWithoutHitsMatchesGridCut: over rows the memo served
// nothing of, the coordinator's cut is exactly the reference grid cut,
// and every shard is dispatched.
func TestCutShardsWithoutHitsMatchesGridCut(t *testing.T) {
	allL1s, allL2s := harness.GeometryL1Configs(), harness.GeometryL2Sizes()
	for nl1 := 1; nl1 <= len(allL1s); nl1++ {
		for nl2 := 1; nl2 <= len(allL2s); nl2++ {
			l1s, l2s := allL1s[:nl1], allL2s[:nl2]
			name := fmt.Sprintf("l1s=%d l2s=%d", nl1, nl2)
			all := make([]int, nl2)
			for j := range all {
				all[j] = j
			}
			plan := cutShards(sweepRows(l1s, nl2, all), l2s)
			got := make([]Shard, len(plan))
			for i, ps := range plan {
				got[i] = ps.Shard
				if ps.stats == nil {
					t.Fatalf("%s: shard %d is memo-served, but the memo served nothing", name, i)
				}
			}
			if want := planShards(l1s, l2s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: shards\n got  %+v\n want %+v", name, got, want)
			}
		}
	}
}

// TestCutShardsSlicesMemoRuns: each maximal run of memo-served cells is
// one shard, so is each maximal run of missing cells, and every shard's
// points and stats are its run of its row's, not copies — so the cells
// a worker fills are the row's.
func TestCutShardsSlicesMemoRuns(t *testing.T) {
	l1s, l2s := harness.GeometryL1Configs(), harness.GeometryL2Sizes()
	rows := sweepRows(l1s[:2], len(l2s), []int{1, 2, 3, 5})
	rows = append(rows, sweepRows(l1s[2:], len(l2s), nil)...)
	type run struct {
		row, lo, hi int
		memo        bool
	}
	var want []run
	for row := 0; row < 2; row++ {
		want = append(want, run{row, 0, 1, true}, run{row, 1, 4, false},
			run{row, 4, 5, true}, run{row, 5, 6, false})
	}
	want = append(want, run{2, 0, 6, true})

	plan := cutShards(rows, l2s)
	if len(plan) != len(want) {
		t.Fatalf("%d shards, want %d", len(plan), len(want))
	}
	for i, ps := range plan {
		w := want[i]
		r := rows[w.row]
		if ps.Index != i || ps.row != w.row || ps.L1 != r.L1 || !reflect.DeepEqual(ps.L2Sizes, l2s[w.lo:w.hi]) {
			t.Fatalf("shard %d = %+v (row %d), want row %d cells [%d, %d)", i, ps.Shard, ps.row, w.row, w.lo, w.hi)
		}
		if len(ps.points) != w.hi-w.lo || &ps.points[0] != &r.Points[w.lo] {
			t.Errorf("shard %d: points are not the row's cells [%d, %d)", i, w.lo, w.hi)
		}
		switch {
		case w.memo && ps.stats != nil:
			t.Errorf("shard %d: memo-served shard has stats to fill", i)
		case !w.memo && (len(ps.stats) != w.hi-w.lo || &ps.stats[0] != &r.Stats[w.lo]):
			t.Errorf("shard %d: stats are not the row's cells [%d, %d)", i, w.lo, w.hi)
		}
	}
}
