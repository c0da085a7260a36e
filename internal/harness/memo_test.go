package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/memo"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// TestGeometrySweepMemoized pins the memo acceptance contract: a
// memoized sweep is byte-identical to an unmemoized one, a repeat of
// the same sweep is served entirely from the memo with zero replays,
// and a subset sweep replays only the cells the memo has not seen.
func TestGeometrySweepMemoized(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2}
	capture, err := RecordEncodeIn(simmem.NewSpace(0), wl)
	if err != nil {
		t.Fatal(err)
	}
	l1s := GeometryL1Configs()[:2]
	sizes := []int{256 << 10, 1 << 20, 4 << 20}
	cells := uint64(len(l1s) * len(sizes))

	baseline, err := RunGeometrySweepFromTrace(context.Background(), nil, capture.Enc, l1s, sizes)
	if err != nil {
		t.Fatal(err)
	}

	mc, err := memo.New(memo.Config{Version: CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	study := NewStudy(true)
	study.SetMemo(mc)
	ctx := WithStudy(context.Background(), study)

	cold, err := RunGeometrySweepFromTrace(ctx, nil, capture.Enc, l1s, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, baseline) {
		t.Fatal("cold memoized sweep differs from the unmemoized sweep")
	}
	if u := study.Usage(); u.MemoHits != 0 || u.MemoMisses != cells || u.Replays != cells {
		t.Fatalf("cold usage = %+v, want 0 hits / %d misses / %d replays", u, cells, cells)
	}

	study.ResetUsage()
	warm, err := RunGeometrySweepFromTrace(ctx, nil, capture.Enc, l1s, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, baseline) {
		t.Fatal("warm memoized sweep differs from the unmemoized sweep")
	}
	if u := study.Usage(); u.MemoHits != cells || u.MemoMisses != 0 || u.Replays != 0 {
		t.Fatalf("warm usage = %+v, want %d hits / 0 misses / 0 replays (100%% hit rate)", u, cells)
	}
	// A fully memoized sweep never rebuilds the L1-filtered traces —
	// that is where the saved work actually lives.
	if u := study.Usage(); u.L2Traces != 0 {
		t.Fatalf("warm sweep still filtered %d L1 rows", u.L2Traces)
	}

	// Subset + one unseen size: only the unseen cells replay.
	study.ResetUsage()
	subset := []int{1 << 20, 2 << 20}
	pts, err := RunGeometrySweepFromTrace(ctx, nil, capture.Enc, l1s, subset)
	if err != nil {
		t.Fatal(err)
	}
	u := study.Usage()
	if u.MemoHits != uint64(len(l1s)) || u.MemoMisses != uint64(len(l1s)) || u.Replays != uint64(len(l1s)) {
		t.Fatalf("subset usage = %+v, want %d hits / %d misses / %d replays", u, len(l1s), len(l1s), len(l1s))
	}
	// The hit cells must agree with the baseline points for the same
	// configurations.
	for i := range l1s {
		got := pts[i*len(subset)]
		want := baseline[i*len(sizes)+1] // 1 MB is index 1 of sizes
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("memoized 1MB cell of l1 %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}

	// A different trace misses everything: content addressing keys the
	// memo, not workload identity.
	study.ResetUsage()
	capture2, err := RecordEncodeIn(simmem.NewSpace(0), Workload{W: 96, H: 80, Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGeometrySweepFromTrace(ctx, nil, capture2.Enc, l1s, sizes); err != nil {
		t.Fatal(err)
	}
	if u := study.Usage(); u.MemoHits != 0 || u.MemoMisses != cells {
		t.Fatalf("different trace usage = %+v, want all misses", u)
	}
}

// TestRenderExperimentReplaysOnContextReplayer: a geometry sweep
// rendered under WithRowReplayer hands its rows to that replayer — the
// pool runs no job — and memoizes the cells the replayer fills, under
// the capture's provenance. Rendering it again in a fresh study on the
// same memo hands the replayer rows with nothing missing and no
// capture, and prints the same bytes as the local render.
func TestRenderExperimentReplaysOnContextReplayer(t *testing.T) {
	const frames = 1
	spec := ExperimentSpec{Sweep: "geometry", L1s: GeometryL1Configs()[:2], L2KB: []int{512, 1024}}
	l1s, sizes := spec.GeometryAxes()
	cells := uint64(len(l1s) * len(sizes))
	local, err := RenderExperiment(WithStudy(context.Background(), NewStudy(true)), nil, spec, frames)
	if err != nil {
		t.Fatal(err)
	}

	mc, err := memo.New(memo.Config{Version: CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	var calls, missing int
	var captured bool
	filled := map[memo.Key]cache.Stats{}
	replay := func(ctx context.Context, p *farm.Pool, tr *trace.Trace, rows []SweepRow, l2Sizes []int) error {
		calls++
		captured = tr != nil
		for _, r := range rows {
			missing += len(r.Missing)
			if len(r.Missing) > 0 {
				r.Fill(ReplayL2Cells(FilterGeometryL1(ctx, tr, r.L1), r.MissingSizes(l2Sizes)))
			}
			for _, j := range r.Missing {
				filled[GeometryMemoKey(CaptureProvenance(Workload{W: 352, H: 288, Frames: frames}), r.L1, l2Sizes[j])] = r.Stats[j]
			}
		}
		return nil
	}
	jobs := 0
	pool := farm.New(farm.Config{Workers: 1, Progress: func(farm.Event) { jobs++ }})
	render := func() (string, TraceUsage) {
		t.Helper()
		study := NewStudy(true)
		study.SetMemo(mc)
		calls, missing = 0, 0
		out, err := RenderExperiment(WithRowReplayer(WithStudy(context.Background(), study), replay), pool, spec, frames)
		if err != nil {
			t.Fatal(err)
		}
		return out, study.Usage()
	}

	cold, u := render()
	if calls != 1 || missing != int(cells) || !captured || jobs != 0 {
		t.Fatalf("cold render: %d replayer calls, %d missing cells, capture handed over %v, %d pool jobs; want 1, %d, true, 0",
			calls, missing, captured, jobs, cells)
	}
	if u.Replays != cells || u.MemoMisses != cells {
		t.Fatalf("cold render usage %+v, want %d replays and misses", u, cells)
	}
	if len(filled) != int(cells) {
		t.Fatalf("replayer filled %d distinct cells, want %d", len(filled), cells)
	}
	for k, want := range filled {
		if got, ok := mc.Get(k); !ok || got != want {
			t.Fatalf("memo cell %+v = %+v (present %v), want the replayer's %+v", k, got, ok, want)
		}
	}

	warm, u := render()
	if calls != 1 || missing != 0 || captured || jobs != 0 {
		t.Fatalf("warm render: %d replayer calls, %d missing cells, capture handed over %v, %d pool jobs; want 1, 0, false, 0",
			calls, missing, captured, jobs)
	}
	if u.Traces != 0 || u.Replays != 0 || u.MemoHits != cells {
		t.Fatalf("warm render usage %+v, want no capture, no replay and %d hits", u, cells)
	}
	if cold != local || warm != local {
		t.Fatalf("renders on the replayer differ from the local render\n--- cold ---\n%s--- warm ---\n%s--- local ---\n%s", cold, warm, local)
	}
}
