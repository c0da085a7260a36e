package dist

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

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
// the fleet layer: with a memo attached, a repeat of the same sweep
// dispatches zero shards, uploads zero traces, reports a 100% hit
// rate, attributes every streamed shard to the memo, runs no codec and
// filters nothing in its study — and is byte-identical to the cold
// run. A partially covered sweep replays only its missing cells.
func TestMemoizedSweepDispatchesNothing(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 2}).Handler())
	defer srv.Close()

	wl := harness.Workload{W: 160, H: 128, Frames: 1}
	l1s, l2Sizes := sweepAxes()
	cells := len(l1s) * len(l2Sizes)

	mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	coord := &Coordinator{Workers: []string{srv.URL}, Memo: mc}
	cold, s1, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if s1.MemoHits != 0 || s1.MemoMisses != cells {
		t.Fatalf("cold sweep memo accounting = %d/%d, want 0/%d", s1.MemoHits, s1.MemoMisses, cells)
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
	warmCoord := &Coordinator{Workers: []string{srv.URL}, Memo: mc, OnShard: func(ev ShardEvent) {
		if ev.Worker == MemoWorker {
			memoEvents.Add(1)
		} else {
			otherEvents.Add(1)
		}
	}}
	study := harness.NewStudy(true)
	warm, s2, err := warmCoord.GeometrySweepWithStats(harness.WithStudy(context.Background(), study), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm sweep differs from cold sweep")
	}
	if u := study.Usage(); u.Traces != 0 || u.L2Traces != 0 || u.Replays != 0 {
		t.Errorf("warm sweep captured, filtered or replayed in its study: %+v", u)
	}
	if s2.MemoHits != cells || s2.MemoMisses != 0 {
		t.Errorf("warm sweep memo accounting = %d/%d, want %d/0 (100%% hit rate)", s2.MemoHits, s2.MemoMisses, cells)
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
	_, s3, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, wider)
	if err != nil {
		t.Fatal(err)
	}
	if s3.MemoHits != cells || s3.MemoMisses != len(l1s) {
		t.Errorf("superset sweep memo accounting = %d/%d, want %d/%d",
			s3.MemoHits, s3.MemoMisses, cells, len(l1s))
	}
}
