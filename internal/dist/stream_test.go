package dist

// Tests of the coordinator's ordered shard event stream (OnShard):
// strict index order regardless of which worker finishes first, exact
// agreement with the merged sweep result, and attribution through the
// local fallback.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// collectShardEvents runs a two-worker sweep with an OnShard hook and
// returns (events, merged points).
func collectShardEvents(t *testing.T, coord *Coordinator) ([]ShardEvent, []harness.GeometryPoint) {
	t.Helper()
	var mu sync.Mutex
	var events []ShardEvent
	coord.OnShard = func(ev ShardEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	wl := harness.Workload{W: 176, H: 144, Frames: 2}
	l1s, l2Sizes := sweepAxes()
	points, _, err := coord.GeometrySweepWithStats(context.Background(), wl, l1s, l2Sizes)
	if err != nil {
		t.Fatalf("GeometrySweepWithStats: %v", err)
	}
	return events, points
}

// verifyShardStream asserts the ordering contract: events arrive in
// strict shard-index order with dense Done counters, and concatenating
// their point slices reproduces the merged sweep exactly.
func verifyShardStream(t *testing.T, events []ShardEvent, points []harness.GeometryPoint) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no shard events emitted")
	}
	total := events[0].Total
	if len(events) != total {
		t.Fatalf("got %d events, Total says %d", len(events), total)
	}
	var streamed []harness.GeometryPoint
	for i, ev := range events {
		if ev.Shard.Index != i {
			t.Fatalf("event %d carries shard index %d — stream is out of order", i, ev.Shard.Index)
		}
		if ev.Done != i+1 {
			t.Fatalf("event %d: Done = %d, want %d", i, ev.Done, i+1)
		}
		if ev.Total != total {
			t.Fatalf("event %d: Total = %d, want %d", i, ev.Total, total)
		}
		if ev.Worker == "" {
			t.Fatalf("event %d has no worker attribution", i)
		}
		if len(ev.Points) == 0 {
			t.Fatalf("event %d carries no points", i)
		}
		streamed = append(streamed, ev.Points...)
	}
	if len(streamed) != len(points) {
		t.Fatalf("streamed %d points, merged sweep has %d", len(streamed), len(points))
	}
	for i := range streamed {
		if streamed[i] != points[i] {
			t.Fatalf("streamed point %d = %+v, merged = %+v", i, streamed[i], points[i])
		}
	}
}

func TestCoordinatorStreamsShardsInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a workload")
	}
	coord := &Coordinator{
		Workers: []string{goodWorker(t).URL, goodWorker(t).URL},
	}
	events, points := collectShardEvents(t, coord)
	verifyShardStream(t, events, points)
	for _, ev := range events {
		if ev.Worker == FallbackWorker {
			t.Fatalf("healthy fleet attributed shard %d to the local fallback", ev.Shard.Index)
		}
	}
}

// TestCoordinatorStreamsFallbackShards: when the whole fleet is down
// and FallbackLocal rescues the sweep, the stream still emits every
// shard in order, attributed to the fallback pseudo-worker.
func TestCoordinatorStreamsFallbackShards(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a workload")
	}
	dead := goodWorker(t)
	dead.Close() // refused connections from the first byte
	coord := &Coordinator{
		Workers:        []string{dead.URL},
		MaxAttempts:    2,
		RetryBaseDelay: 5 * time.Millisecond,
		FallbackLocal:  true,
	}
	events, points := collectShardEvents(t, coord)
	verifyShardStream(t, events, points)
	for _, ev := range events {
		if ev.Worker != FallbackWorker {
			t.Fatalf("shard %d attributed to %q, want the local fallback", ev.Shard.Index, ev.Worker)
		}
	}
}
