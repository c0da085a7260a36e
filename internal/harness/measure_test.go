package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/farm"
	"repro/internal/simmem"
)

// requireUsage asserts a study's L1-filtered capture and replay counts.
func requireUsage(t *testing.T, label string, s *Study, l2Traces, replays uint64) {
	t.Helper()
	if u := s.Usage(); u.L2Traces != l2Traces || u.Replays != replays {
		t.Fatalf("%s: %d L1-filtered traces / %d replays, want %d / %d",
			label, u.L2Traces, u.Replays, l2Traces, replays)
	}
}

// TestPaperExperimentsReadSharedRuns runs every simulated experiment of
// the paper in one study, as mp4study -all does. Tables 2–7 capture the
// encode and decode of six workloads; Table 8 and Figures 3/4 read
// columns of those runs and capture nothing; Figure 2 captures only its
// three sizes outside Table 3. Every output must equal the same
// experiment rendered alone in a fresh study.
func TestPaperExperimentsReadSharedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution paper experiments in -short mode")
	}
	const frames = 1
	study := NewStudy(true)
	ctx := WithStudy(context.Background(), study)
	fresh := func() context.Context { return WithStudy(context.Background(), NewStudy(true)) }

	tabs, err := RunTables(ctx, nil, TableSpecs(), frames)
	if err != nil {
		t.Fatal(err)
	}
	requireUsage(t, "after Tables 2-7", study, 12, 36)
	tab8, err := Table8Pool(ctx, nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	points, err := RunObjectSweepPool(ctx, nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	requireUsage(t, "after Table 8 and Figures 3/4", study, 12, 36)
	fig2, err := Figure2Sweep(ctx, nil, frames, Figure2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	requireUsage(t, "after Figure 2", study, 15, 45)

	wantTabs, err := RunTables(fresh(), nil, TableSpecs(), frames)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTabs {
		if tabs[i].String() != wantTabs[i].String() {
			t.Errorf("table %d differs from a fresh study's:\n%s\nwant\n%s", i+2, tabs[i], wantTabs[i])
		}
	}
	wantTab8, err := Table8Pool(fresh(), nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	if tab8.String() != wantTab8.String() {
		t.Errorf("Table 8 differs from a fresh study's:\n%s\nwant\n%s", tab8, wantTab8)
	}
	wantPoints, err := RunObjectSweepPool(fresh(), nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, wantPoints) {
		t.Errorf("Figures 3/4 differ from a fresh study's:\n%+v\nwant\n%+v", points, wantPoints)
	}
	wantFig2, err := Figure2Sweep(fresh(), nil, frames, Figure2Sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig2, wantFig2) {
		t.Errorf("Figure 2 differs from a fresh study's:\n%+v\nwant\n%+v", fig2, wantFig2)
	}
}

// TestRunExperimentsMeasuresEachWorkloadOnce: whichever of Tables 2
// and 3 a list names first, its batch measures each of their two
// workloads in one job, encode and decode, before the first output, and
// rendering on the same pool then simulates nothing more and starts no
// job: the tables read the rows the study holds. A plan that split a
// workload's encode and decode into two jobs would run 4 before the
// first output; renders that farmed the rows again, 6 in all.
func TestRunExperimentsMeasuresEachWorkloadOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution paper experiments in -short mode")
	}
	const frames = 1
	run := func(exps []ExperimentSpec) (map[string]string, TraceUsage) {
		list := exps[0].Label() + ", " + exps[1].Label()
		study := NewStudy(true)
		ctx := WithStudy(context.Background(), study)
		jobs := 0 // Progress runs on the goroutine that runs the batch
		pool := farm.New(farm.Config{Workers: 2, Progress: func(farm.Event) { jobs++ }})
		outs := map[string]string{}
		var first TraceUsage
		err := RunExperiments(ctx, pool, exps, frames,
			func(ctx context.Context, _ int, e ExperimentSpec) (string, error) {
				return RenderExperiment(ctx, pool, e, frames)
			},
			func(i int, out string) {
				if len(outs) == 0 {
					if jobs != 2 {
						t.Errorf("[%s]: %d jobs before the first output, want 2", list, jobs)
					}
					first = study.Usage()
				}
				outs[exps[i].Label()] = out
			})
		if err != nil {
			t.Fatal(err)
		}
		if jobs != 2 {
			t.Errorf("[%s]: %d jobs over the whole run, want 2", list, jobs)
		}
		if u := study.Usage(); u != first {
			t.Errorf("[%s]: usage moved from %+v at the first output to %+v at the last", list, first, u)
		}
		return outs, study.Usage()
	}
	outs32, u32 := run([]ExperimentSpec{{Table: 3}, {Table: 2}})
	outs23, u23 := run([]ExperimentSpec{{Table: 2}, {Table: 3}})
	if u32.L2Traces != 4 || u32.Replays != 12 || u32 != u23 {
		t.Errorf("usage %+v for [table 3, table 2] and %+v for [table 2, table 3], want 4 L1-filtered traces and 12 replays each", u32, u23)
	}
	if !reflect.DeepEqual(outs32, outs23) {
		t.Errorf("outputs depend on the list order:\n%v\nwant\n%v", outs32, outs23)
	}
}

// TestStudyConcurrentRequestsSimulateOnce: goroutines asking one study
// for one workload — encode only, decode only, or both — all get the
// results a fresh study measures, the study measures each direction
// once (one traced encode, one traced decode: 2 L1-filtered traces and
// 6 replays), and the coded stream does not outlive the decode. It does
// not check that the callers share one codec run: a decode-only caller
// that takes the row first encodes untraced for its stream, and the
// next encode caller encodes again, which no counter read here shows.
// RunExperiments avoids that by measuring both directions of a workload
// in one job (TestRunExperimentsMeasuresEachWorkloadOnce).
func TestStudyConcurrentRequestsSimulateOnce(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2}
	wantEnc, wantDec, err := measure(WithStudy(context.Background(), NewStudy(true)), simmem.NewSpace(0), wl, true, true)
	if err != nil {
		t.Fatal(err)
	}

	study := NewStudy(true)
	ctx := WithStudy(context.Background(), study)
	type call struct {
		enc, dec       bool
		encRes, decRes []Result
		err            error
	}
	calls := make([]call, 9)
	var wg sync.WaitGroup
	for i := range calls {
		c := &calls[i]
		c.enc, c.dec = i%3 != 1, i%3 != 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.encRes, c.decRes, c.err = measure(ctx, simmem.NewSpace(0), wl, c.enc, c.dec)
		}()
	}
	wg.Wait()
	for i, c := range calls {
		if c.err != nil {
			t.Fatalf("call %d: %v", i, c.err)
		}
		if c.enc {
			requireIdentical(t, "shared encode", wantEnc, c.encRes)
		}
		if c.dec {
			requireIdentical(t, "shared decode", wantDec, c.decRes)
		}
	}
	requireUsage(t, "one workload, both directions", study, 2, 6)
	if m := study.measurement(wl.normalize()); m.ss != nil {
		t.Error("the coded stream outlived the decode it was kept for")
	}
}

// TestStudyFailedRunStoresNothing: a run that fails leaves the
// workload's row empty, so the next request simulates again.
func TestStudyFailedRunStoresNothing(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2, Layers: 3} // the codec takes 1 or 2 layers
	study := NewStudy(true)
	ctx := WithStudy(context.Background(), study)
	for i := 0; i < 2; i++ {
		if _, _, err := measure(ctx, simmem.NewSpace(0), wl, true, true); err == nil {
			t.Fatalf("request %d: invalid workload measured without error", i)
		}
	}
	if m := study.measurement(wl.normalize()); m.enc != nil || m.dec != nil || m.ss != nil {
		t.Fatalf("failed runs left a measurement behind: %+v", m)
	}
}

// TestDefaultStudySimulatesEveryCall: without a WithStudy scope nothing
// is shared — each bare context resolves to a fresh replay study, so two
// requests for one workload read distinct measurement rows and both
// simulate.
func TestDefaultStudySimulatesEveryCall(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2}
	a, b := StudyFrom(context.Background()), StudyFrom(nil)
	if a == b {
		t.Fatal("bare contexts resolved to one shared study")
	}
	if a.live || b.live {
		t.Fatal("a bare context's study does not replay")
	}
	if a.measurement(wl.normalize()) == b.measurement(wl.normalize()) {
		t.Fatal("distinct studies share a measurement row")
	}
	var runs [2][]Result
	for i := range runs {
		enc, _, err := measure(context.Background(), simmem.NewSpace(0), wl, true, false)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = enc
	}
	if &runs[0][0] == &runs[1][0] {
		t.Fatal("two bare-context requests read one stored run")
	}
	requireIdentical(t, "bare-context runs", runs[0], runs[1])
}
