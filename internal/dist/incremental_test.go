package dist

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/obs"
)

// TestSecondSweepUploadsNoTraceBytes is the incremental-fleet
// regression test: traces are content-addressed and survive a
// successful sweep, so a second identical sweep — even from a fresh
// coordinator with a cold upload cache — must discover every payload
// already resident via HEAD probes and move zero trace bytes. A
// single worker keeps batch placement deterministic across the two
// sweeps.
func TestSecondSweepUploadsNoTraceBytes(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	defer srv.Close()

	wl := harness.Workload{W: 160, H: 128, Frames: 1}
	l1s, l2Sizes := sweepAxes()

	first := &Coordinator{Workers: []string{srv.URL}}
	p1, s1, err := first.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Uploads == 0 || s1.UploadBytes == 0 {
		t.Fatalf("first sweep moved no trace bytes: %+v", s1)
	}

	before := obs.Default().Snapshot()
	// A fresh coordinator has no memory of the first sweep; only the
	// worker's content-addressed store can save the bytes.
	second := &Coordinator{Workers: []string{srv.URL}}
	p2, s2, err := second.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Uploads != 0 || s2.UploadBytes != 0 {
		t.Errorf("second sweep re-uploaded %d traces / %d bytes, want zero", s2.Uploads, s2.UploadBytes)
	}
	if s2.UploadsDeduped != s1.Uploads {
		t.Errorf("second sweep deduped %d uploads, want all %d", s2.UploadsDeduped, s1.Uploads)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("second sweep's points differ from the first")
	}

	after := obs.Default().Snapshot()
	if got := after.Counters["dist_upload_dedup_total"] - before.Counters["dist_upload_dedup_total"]; got != uint64(s2.UploadsDeduped) {
		t.Errorf("dist_upload_dedup_total delta = %d, want %d", got, s2.UploadsDeduped)
	}
	if got := after.Counters["dist_upload_bytes_total"] - before.Counters["dist_upload_bytes_total"]; got != 0 {
		t.Errorf("dist_upload_bytes_total delta = %d, want 0", got)
	}
}

// TestMemoizedSweepDispatchesNothing is the memo acceptance test at
// the fleet layer: in a study with a memo, a repeat of the same sweep
// dispatches zero shards, uploads zero traces, reports a 100% hit rate
// in the study's usage, attributes every streamed shard to the memo,
// runs no codec and filters nothing in its study — and is
// byte-identical to the cold run. A partially covered sweep replays
// only its missing cells.
func TestMemoizedSweepDispatchesNothing(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 2}).Handler())
	defer srv.Close()

	wl := harness.Workload{W: 160, H: 128, Frames: 1}
	l1s, l2Sizes := sweepAxes()
	cells := uint64(len(l1s) * len(l2Sizes))

	mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	// memoCtx returns a fresh study sharing mc, as a service's studies do.
	memoCtx := func() (context.Context, *harness.Study) {
		study := harness.NewStudy(true)
		study.SetMemo(mc)
		return harness.WithStudy(context.Background(), study), study
	}
	coord := &Coordinator{Workers: []string{srv.URL}}
	ctx, coldStudy := memoCtx()
	cold, _, err := coord.GeometrySweepWithStats(ctx, wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if u := coldStudy.Usage(); u.MemoHits != 0 || u.MemoMisses != cells {
		t.Fatalf("cold sweep memo accounting = %d/%d, want 0/%d", u.MemoHits, u.MemoMisses, cells)
	}

	// Unmemoized reference: the memo must never change output.
	plain, _, err := (&Coordinator{Workers: []string{srv.URL}}).GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, plain) {
		t.Fatal("memoized sweep differs from unmemoized sweep")
	}

	var memoEvents, otherEvents atomic.Int64
	warmCoord := &Coordinator{Workers: []string{srv.URL}, OnShard: func(ev ShardEvent) {
		if ev.Worker == MemoWorker {
			memoEvents.Add(1)
		} else {
			otherEvents.Add(1)
		}
	}}
	ctx, study := memoCtx()
	warm, s2, err := warmCoord.GeometrySweepWithStats(ctx, wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm sweep differs from cold sweep")
	}
	if u := study.Usage(); u.Traces != 0 || u.L2Traces != 0 || u.Replays != 0 {
		t.Errorf("warm sweep captured, filtered or replayed in its study: %+v", u)
	}
	if u := study.Usage(); u.MemoHits != cells || u.MemoMisses != 0 {
		t.Errorf("warm sweep memo accounting = %d/%d, want %d/0 (100%% hit rate)", u.MemoHits, u.MemoMisses, cells)
	}
	if s2.Replays != 0 || s2.Uploads != 0 || s2.UploadsDeduped != 0 || s2.UploadBytes != 0 {
		t.Errorf("warm sweep touched the fleet: %+v", s2)
	}
	if memoEvents.Load() != int64(len(l1s)) || otherEvents.Load() != 0 {
		t.Errorf("warm sweep events = %d memo / %d other, want %d / 0",
			memoEvents.Load(), otherEvents.Load(), len(l1s))
	}

	// A superset sweep replays only the unseen sizes.
	wider := append(append([]int(nil), l2Sizes...), 4<<20)
	ctx, wideStudy := memoCtx()
	if _, _, err := coord.GeometrySweepWithStats(ctx, wl, l1s, wider); err != nil {
		t.Fatal(err)
	}
	if u := wideStudy.Usage(); u.MemoHits != cells || u.MemoMisses != uint64(len(l1s)) {
		t.Errorf("superset sweep memo accounting = %d/%d, want %d/%d",
			u.MemoHits, u.MemoMisses, cells, len(l1s))
	}
}

// memoStudy returns a context carrying a fresh study with a fresh memo.
func memoStudy(t *testing.T) (context.Context, *harness.Study, *memo.Cache) {
	t.Helper()
	mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	study := harness.NewStudy(true)
	study.SetMemo(mc)
	return harness.WithStudy(context.Background(), study), study, mc
}

// TestFleetSweepAccountsLikeLocal: a fleet sweep records in its study
// what the local sweep of the same workload and axes records — one
// capture, one L1 filter per row, one replay and one memo miss per
// cell — whether the workers replay the cells or, with the whole fleet
// down, the local fallback does.
func TestFleetSweepAccountsLikeLocal(t *testing.T) {
	l1s, l2Sizes := faultAxes()
	cells := uint64(len(l1s) * len(l2Sizes))
	ctx, local, _ := memoStudy(t)
	if _, err := harness.RunGeometrySweepPool(ctx, nil, faultWorkload, l1s, l2Sizes); err != nil {
		t.Fatal(err)
	}
	want := local.Usage()
	if want.Traces != 1 || want.L2Traces != uint64(len(l1s)) || want.Replays != cells || want.MemoMisses != cells {
		t.Fatalf("local sweep usage = %+v, want 1 capture, %d filtered rows, %d replays and misses", want, len(l1s), cells)
	}

	dead := chaosCoordinator(faultnet.New(1, nil, &faultnet.Rule{Name: "fleet-down", ErrRate: 1}),
		goodWorker(t).URL, goodWorker(t).URL)
	dead.FallbackLocal = true
	for _, tc := range []struct {
		name  string
		coord *Coordinator
	}{
		{"healthy fleet", &Coordinator{Workers: []string{goodWorker(t).URL, goodWorker(t).URL}}},
		{"dead fleet, local fallback", dead},
	} {
		ctx, study, _ := memoStudy(t)
		_, stats, err := tc.coord.GeometrySweepWithStats(ctx, faultWorkload, l1s, l2Sizes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := study.Usage(); got != want {
			t.Errorf("%s: study usage %+v, want the local sweep's %+v", tc.name, got, want)
		}
		if (tc.coord == dead) != (stats.FallbackShards > 0) || (tc.coord != dead) != (stats.Replays > 0) {
			t.Errorf("%s: %d fleet replay calls, %d fallback shards", tc.name, stats.Replays, stats.FallbackShards)
		}
	}
}
