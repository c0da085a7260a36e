package harness

import (
	"context"
	"sync"
	"testing"

	"repro/internal/perf"
	"repro/internal/simmem"
)

// TestStudyContextPlumbing: a Study carried through the context scopes
// both the strategy and the usage accounting.
func TestStudyContextPlumbing(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2}
	s := NewStudy(true)
	ctx := WithStudy(context.Background(), s)
	if StudyFrom(ctx) != s {
		t.Fatal("StudyFrom did not return the attached study")
	}
	if StudyFrom(context.Background()) == s {
		t.Fatal("bare context resolved to the attached study")
	}
	if _, _, err := RunEncodeCtx(ctx, simmem.NewSpace(0), perf.PaperMachines(), wl); err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.L2Traces != 1 || u.Replays != 3 {
		t.Fatalf("study usage after filtered encode: %+v", u)
	}
}

// TestConcurrentStudiesDistinctStrategies: two studies running
// concurrently in one process, one in capture-and-replay mode and one
// on the live path, must neither race (run under -race in CI) nor
// observe each other's strategy or usage counters.
func TestConcurrentStudiesDistinctStrategies(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2}
	machines := perf.PaperMachines()

	type studyRun struct {
		study   *Study
		results []Result
		err     error
	}
	runs := [2]studyRun{
		{study: NewStudy(true)},
		{study: NewStudy(false)},
	}
	const rounds = 3
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(r *studyRun) {
			defer wg.Done()
			ctx := WithStudy(context.Background(), r.study)
			for round := 0; round < rounds; round++ {
				r.results, _, r.err = RunEncodeCtx(ctx, simmem.NewSpace(0), machines, wl)
				if r.err != nil {
					return
				}
			}
		}(&runs[i])
	}
	wg.Wait()

	for i := range runs {
		if runs[i].err != nil {
			t.Fatalf("study %d: %v", i, runs[i].err)
		}
	}
	// Strategy isolation shows up in the usage counters: the replay
	// study captured one L2 trace per run and served every machine from
	// it; the live study never captured anything.
	if u := runs[0].study.Usage(); u.L2Traces != rounds || u.Replays != rounds*uint64(len(machines)) {
		t.Fatalf("replay study usage: %+v, want %d traces / %d replays",
			u, rounds, rounds*len(machines))
	}
	if u := runs[1].study.Usage(); !u.Zero() {
		t.Fatalf("live study recorded captures: %+v", u)
	}
	// Both strategies must agree on the simulated counters regardless of
	// what ran next to them.
	requireIdentical(t, "concurrent strategies", runs[0].results, runs[1].results)
}
