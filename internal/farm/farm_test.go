package farm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simmem"
)

// TestRunPreservesOrder: results land at their job index no matter how
// workers interleave.
func TestRunPreservesOrder(t *testing.T) {
	const n = 64
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("j%d", i),
			Run: func(ctx context.Context, env Env) (int, error) {
				// Reverse-staggered sleeps force out-of-order completion.
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	got, err := Run(context.Background(), New(Config{Workers: 8, Queue: 2}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestEnvDeterminism: every job gets its own non-nil Space, at any
// worker count.
func TestEnvDeterminism(t *testing.T) {
	for _, workers := range []int{1, 8} {
		spaces := make([]*simmem.Space, 16)
		jobs := make([]Job[struct{}], len(spaces))
		for i := range jobs {
			jobs[i] = Job[struct{}]{Run: func(ctx context.Context, env Env) (struct{}, error) {
				spaces[env.Index] = env.Space
				return struct{}{}, nil
			}}
		}
		if _, err := Run(context.Background(), New(Config{Workers: workers}), jobs); err != nil {
			t.Fatal(err)
		}
		seen := map[*simmem.Space]int{}
		for i, sp := range spaces {
			if sp == nil {
				t.Fatalf("workers=%d: job %d got a nil Space", workers, i)
			}
			if j, dup := seen[sp]; dup {
				t.Fatalf("workers=%d: jobs %d and %d share a Space", workers, j, i)
			}
			seen[sp] = i
		}
	}
}

// TestFailFastErrorAttribution: Run reports a failure that really
// happened, correctly attributed to its job. With a single worker the
// choice is deterministic: the first failure in job order. With many
// workers either failing job may be the one that ran (the other can be
// skipped by the cancellation), but the attribution must always match.
func TestFailFastErrorAttribution(t *testing.T) {
	boom3 := errors.New("boom 3")
	boom7 := errors.New("boom 7")
	for _, workers := range []int{1, 4, 8} {
		jobs := make([]Job[int], 10)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Label: fmt.Sprintf("j%d", i),
				Run: func(ctx context.Context, env Env) (int, error) {
					switch i {
					case 3:
						return 0, boom3
					case 7:
						return 0, boom7
					}
					return i, nil
				},
			}
		}
		_, err := Run(context.Background(), New(Config{Workers: workers}), jobs)
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("workers=%d: want *JobError, got %v", workers, err)
		}
		switch {
		case errors.Is(err, boom3) && je.Index == 3 && je.Label == "j3":
		case workers > 1 && errors.Is(err, boom7) && je.Index == 7 && je.Label == "j7":
		default:
			t.Fatalf("workers=%d: bad failure/attribution: %v", workers, err)
		}
		if workers == 1 && !errors.Is(err, boom3) {
			t.Fatalf("serial run must report the first failure in job order, got %v", err)
		}
	}
}

// TestFailFastCancelsRemainingJobs: after the first failure, a running
// job observes cancellation and queued jobs are skipped.
func TestFailFastCancelsRemainingJobs(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	blocked := Job[int]{Label: "blocked", Run: func(ctx context.Context, env Env) (int, error) {
		ran.Add(1)
		<-ctx.Done() // must be released by the pool's cancel
		return 0, ctx.Err()
	}}
	failing := Job[int]{Label: "failing", Run: func(ctx context.Context, env Env) (int, error) {
		ran.Add(1)
		return 0, boom
	}}
	tail := Job[int]{Label: "tail", Run: func(ctx context.Context, env Env) (int, error) {
		ran.Add(1)
		return 1, nil
	}}
	// Two workers: the blocked job and the failing job start together;
	// the tail jobs sit in the queue and must be skipped once the
	// failure cancels the run.
	jobs := []Job[int]{blocked, failing}
	for i := 0; i < 32; i++ {
		jobs = append(jobs, tail)
	}
	start := time.Now()
	_, err := Run(context.Background(), New(Config{Workers: 2, Queue: 1}), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v: cancellation did not release the blocked job", elapsed)
	}
	if got := ran.Load(); got >= int32(len(jobs)) {
		t.Fatalf("all %d jobs ran despite fail-fast (ran=%d)", len(jobs), got)
	}
}

// TestParentCancellationPropagates: cancelling the caller's context
// aborts the run and Run returns ctx.Err().
func TestParentCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	jobs := make([]Job[int], 16)
	for i := range jobs {
		jobs[i] = Job[int]{Run: func(ctx context.Context, env Env) (int, error) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			<-ctx.Done()
			return 0, ctx.Err()
		}}
	}
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, New(Config{Workers: 2}), jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestPanicBecomesError: a panicking job fails its run instead of
// crashing the process.
func TestPanicBecomesError(t *testing.T) {
	jobs := []Job[int]{
		{Label: "ok", Run: func(ctx context.Context, env Env) (int, error) { return 1, nil }},
		{Label: "bad", Run: func(ctx context.Context, env Env) (int, error) { panic("kaboom") }},
	}
	_, err := Run(context.Background(), Serial(), jobs)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic converted to error, got %v", err)
	}
}

// TestProgressEventsAreSerializedAndComplete.
func TestProgressEventsAreSerializedAndComplete(t *testing.T) {
	const n = 20
	var events []Event
	p := New(Config{Workers: 5, Progress: func(ev Event) { events = append(events, ev) }})
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Label: fmt.Sprintf("j%d", i), Run: func(ctx context.Context, env Env) (int, error) {
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			return i, nil
		}}
	}
	if _, err := Run(context.Background(), p, jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("got %d events, want %d", len(events), n)
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != n {
			t.Fatalf("event %d has Done=%d Total=%d", i, ev.Done, ev.Total)
		}
		if seen[ev.Index] {
			t.Fatalf("job %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Label != fmt.Sprintf("j%d", ev.Index) {
			t.Fatalf("event %d label %q does not match index %d", i, ev.Label, ev.Index)
		}
	}
}

// TestMapPreservesItemOrder.
func TestMapPreservesItemOrder(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd"}
	got, err := Map(context.Background(), New(Config{Workers: 3}), items,
		func(ctx context.Context, env Env, s string) (int, error) { return len(s), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("Map result %v", got)
		}
	}
}

// TestEmptyAndNilPool: degenerate inputs behave.
func TestEmptyAndNilPool(t *testing.T) {
	got, err := Run(context.Background(), nil, []Job[int]{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v %v", got, err)
	}
	got, err = Run(context.Background(), nil, []Job[int]{
		{Run: func(ctx context.Context, env Env) (int, error) { return 7, nil }},
	})
	if err != nil || got[0] != 7 {
		t.Fatalf("nil pool run: %v %v", got, err)
	}
	if Default().Workers() <= 0 {
		t.Fatal("Default pool has no workers")
	}
	if Serial().Workers() != 1 {
		t.Fatal("Serial pool is not single-worker")
	}
}

// TestStress hammers the pool under the race detector: many jobs, a
// tiny queue, shared atomic counters.
func TestStress(t *testing.T) {
	const n = 500
	var sum atomic.Int64
	got, err := Map(context.Background(), New(Config{Workers: 16, Queue: 1}),
		make([]struct{}, n),
		func(ctx context.Context, env Env, _ struct{}) (int, error) {
			sum.Add(int64(env.Index))
			return env.Index, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != n*(n-1)/2 {
		t.Fatalf("sum %d", sum.Load())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("index %d got %d", i, v)
		}
	}
}
