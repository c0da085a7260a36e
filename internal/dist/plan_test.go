package dist

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/trace"
)

// planShards is the reference grid cut: per L1, the L2 axis splits
// into at most `workers` contiguous chunks. The coordinator's one
// planner, planMemoShards, must reproduce it exactly over a memo that
// hits nothing.
func planShards(l1s []cache.Config, l2Sizes []int, workers int) []Shard {
	var shards []Shard
	for _, l1 := range l1s {
		chunks := workers
		if chunks > len(l2Sizes) {
			chunks = len(l2Sizes)
		}
		for j := 0; j < chunks; j++ {
			lo := j * len(l2Sizes) / chunks
			hi := (j + 1) * len(l2Sizes) / chunks
			if lo == hi {
				continue
			}
			shards = append(shards, Shard{
				Index:   len(shards),
				L1:      l1,
				L2Sizes: append([]int(nil), l2Sizes[lo:hi]...),
			})
		}
	}
	return shards
}

// TestPlanMemoShardsWithoutHitsMatchesGridCut: with no memo, or with a
// memo that holds none of the grid's cells, the planner cuts exactly
// the reference grid and prefills nothing.
func TestPlanMemoShardsWithoutHitsMatchesGridCut(t *testing.T) {
	empty, err := memo.New(memo.Config{Version: harness.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	allL1s, allL2s := harness.GeometryL1Configs(), harness.GeometryL2Sizes()
	for _, workers := range []int{1, 2, 3, 7} {
		for nl1 := 1; nl1 <= len(allL1s); nl1++ {
			for nl2 := 1; nl2 <= len(allL2s); nl2++ {
				l1s, l2s := allL1s[:nl1], allL2s[:nl2]
				want := planShards(l1s, l2s, workers)
				for _, m := range []*memo.Cache{nil, empty} {
					name := fmt.Sprintf("workers=%d l1s=%d l2s=%d memo=%t", workers, nl1, nl2, m != nil)
					c := &Coordinator{Workers: make([]string, workers), Memo: m}
					got, prefill, hits, misses := c.planMemoShards(trace.Hash{}, l1s, l2s)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: shards\n got  %+v\n want %+v", name, got, want)
					}
					if len(prefill) != 0 || hits != 0 || misses != nl1*nl2 {
						t.Fatalf("%s: prefill %d, hits %d, misses %d; want 0, 0, %d",
							name, len(prefill), hits, misses, nl1*nl2)
					}
				}
			}
		}
	}
}
