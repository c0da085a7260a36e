package harness

import (
	"context"
	"strings"
	"testing"
)

func TestRatioSweepMonotone(t *testing.T) {
	wl := Workload{W: 160, H: 128, Frames: 5}
	// This reduced frame fits the 1MB L2 better than the paper-sized
	// runs, so push the sweep further than the default factors to reach
	// the crossover.
	points, err := RunRatioSweepPool(context.Background(), nil, wl, []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("want 10 factors, got %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].DecodeDRAM < points[i-1].DecodeDRAM {
			t.Errorf("decode DRAM fraction not monotone at factor %g", points[i].Factor)
		}
		if points[i].DecodeSeconds < points[i-1].DecodeSeconds {
			t.Errorf("decode time not monotone at factor %g", points[i].Factor)
		}
	}
	// At baseline the workload is NOT memory bound (the paper's claim)…
	if points[0].DecodeDRAM > 0.2 {
		t.Errorf("baseline decode already memory bound: %.1f%%", points[0].DecodeDRAM*100)
	}
	// …but at some large enough ratio it must become so (the future-work
	// question has an answer).
	cross := MemoryBoundCrossover(points)
	if cross == 0 {
		t.Error("decode never became memory bound within a 64x latency sweep")
	}
	series := RatioSweepSeries(points)
	if len(series) != 2 || len(series[0].X) != len(points) {
		t.Error("sweep series malformed")
	}
}

func TestSearchAblation(t *testing.T) {
	wl := Workload{W: 160, H: 128, Frames: 4}
	results, err := RunSearchAblationPool(context.Background(), nil, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("want 2 configs, got %d", len(results))
	}
	full, dia := results[0], results[1]
	// Diamond search issues far fewer references than exhaustive search.
	if dia.Encode.Raw.References() >= full.Encode.Raw.References() {
		t.Errorf("diamond (%d refs) not cheaper than full (%d refs)",
			dia.Encode.Raw.References(), full.Encode.Raw.References())
	}
	// Both must produce working bitstreams of the same order of size.
	if dia.Bytes == 0 || full.Bytes == 0 {
		t.Error("empty bitstreams")
	}
	out := FormatAblation("search", results)
	if !strings.Contains(out, "search=full") || !strings.Contains(out, "search=diamond") {
		t.Errorf("format missing configs:\n%s", out)
	}
}

func TestPrefetchAblation(t *testing.T) {
	wl := Workload{W: 160, H: 128, Frames: 4}
	results, err := RunPrefetchAblationPool(context.Background(), nil, wl, []int{0, 32})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Encode.Raw.Prefetches != 0 {
		t.Error("interval 0 still prefetched")
	}
	if results[1].Encode.Raw.Prefetches == 0 {
		t.Error("interval 32 issued no prefetches")
	}
	// The paper's point: most conservative prefetches hit L1 (wasted).
	r := results[1].Encode.Raw
	if r.PrefetchL1Hits*2 < r.Prefetches {
		t.Errorf("only %d of %d prefetches hit L1; expected the majority",
			r.PrefetchL1Hits, r.Prefetches)
	}
}

func TestStagingAblation(t *testing.T) {
	wl := Workload{W: 160, H: 128, Frames: 4}
	results, err := RunStagingAblationPool(context.Background(), nil, wl)
	if err != nil {
		t.Fatal(err)
	}
	on, off := results[0], results[1]
	// Staging adds L2-level traffic: disabling it must reduce L2 misses.
	if off.Encode.Raw.L2Misses >= on.Encode.Raw.L2Misses {
		t.Errorf("staging off (%d L2 misses) not below staging on (%d)",
			off.Encode.Raw.L2Misses, on.Encode.Raw.L2Misses)
	}
}

func TestColoringAblation(t *testing.T) {
	wl := Workload{W: 160, H: 128, Frames: 4, Objects: 2}
	results, err := RunColoringAblationPool(context.Background(), nil, wl)
	if err != nil {
		t.Fatal(err)
	}
	on, off := results[0], results[1]
	// Page-aligned (uncoloured) allocation thrashes the 2-way L1 in the
	// masked SAD kernels: the miss rate must degrade dramatically.
	if off.Encode.L1MissRate < on.Encode.L1MissRate*3 {
		t.Errorf("colouring off (%.3f%%) should thrash vs on (%.3f%%)",
			off.Encode.L1MissRate*100, on.Encode.L1MissRate*100)
	}
}
