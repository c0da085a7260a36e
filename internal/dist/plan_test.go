package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/harness"
)

// planShards is the reference grid cut: one shard per L1, over the
// whole L2-size axis — what the coordinator ships for rows the memo
// served nothing of.
func planShards(l1s []cache.Config, l2Sizes []int) []Shard {
	shards := make([]Shard, len(l1s))
	for i, l1 := range l1s {
		shards[i] = Shard{Index: i, L1: l1, L2Sizes: append([]int(nil), l2Sizes...)}
	}
	return shards
}

// TestRowShardHoldsItsMissingSizes: a row the memo served partly goes
// out as one shard holding exactly its missing L2 sizes, in axis order,
// a row it served none of as the reference grid cut's shard (the whole
// axis), and a row it served whole not at all. Each row streams as one
// event carrying the whole row, and the sweep equals the local one.
func TestRowShardHoldsItsMissingSizes(t *testing.T) {
	l1s, l2Sizes := harness.GeometryL1Configs(), []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}
	ctx, _, mc := memoStudy(t)
	// Memoize the middle two cells of row 0 and all of row 2.
	if _, err := harness.RunGeometrySweepPool(ctx, nil, faultWorkload, l1s[:1], l2Sizes[1:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.RunGeometrySweepPool(ctx, nil, faultWorkload, l1s[2:], l2Sizes); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var requests []ReplayRequest
	worker := NewWorker(WorkerConfig{Workers: 1}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replay" {
			body, _ := io.ReadAll(r.Body)
			var req ReplayRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("replay request: %v", err)
			}
			mu.Lock()
			requests = append(requests, req)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	var events []ShardEvent
	coord := &Coordinator{Workers: []string{srv.URL}, OnShard: func(ev ShardEvent) { events = append(events, ev) }}
	study := harness.NewStudy(true)
	study.SetMemo(mc)
	points, stats, err := coord.GeometrySweepWithStats(harness.WithStudy(context.Background(), study), faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}

	want := [][]Shard{
		{{Index: 0, L1: l1s[0], L2Sizes: []int{l2Sizes[0], l2Sizes[3]}}},
		{planShards(l1s, l2Sizes)[1]},
	}
	if len(requests) != len(want) {
		t.Fatalf("%d replay calls, want one per row with a missing cell (%d)", len(requests), len(want))
	}
	for i, req := range requests {
		if !reflect.DeepEqual(req.Shards, want[i]) {
			t.Errorf("replay call %d shards %+v, want %+v", i, req.Shards, want[i])
		}
	}
	if stats.Replays != 2 || stats.ShardsByWorker[srv.URL] != 2 {
		t.Errorf("stats: %d replay calls, %d rows by the worker; want 2 and 2", stats.Replays, stats.ShardsByWorker[srv.URL])
	}

	if len(events) != len(l1s) {
		t.Fatalf("%d shard events, want one per row (%d)", len(events), len(l1s))
	}
	var streamed []harness.GeometryPoint
	for ri, ev := range events {
		worker := srv.URL
		if ri == 2 {
			worker = MemoWorker
		}
		if ev.Shard.Index != ri || ev.Shard.L1 != l1s[ri] || !reflect.DeepEqual(ev.Shard.L2Sizes, l2Sizes) ||
			len(ev.Points) != len(l2Sizes) || ev.Worker != worker || ev.Done != ri+1 || ev.Total != len(l1s) {
			t.Errorf("event %d = shard %+v, %d points, worker %q, %d/%d; want row %d whole, worker %q",
				ri, ev.Shard, len(ev.Points), ev.Worker, ev.Done, ev.Total, ri, worker)
		}
		streamed = append(streamed, ev.Points...)
	}

	local, err := harness.RunGeometrySweep(faultWorkload, l1s, l2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, local) || !reflect.DeepEqual(streamed, local) {
		t.Fatal("fleet sweep or its event stream differs from the local sweep")
	}
}
