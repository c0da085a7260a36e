package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/farm"
	"repro/internal/perf"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// The paper's three machines share one L1 (Table 1), so every
// experiment of the paper reads columns of the same runs: Tables 2–7
// are the encode and decode of six workloads on all three machines,
// Table 8 is the R12K/8MB column of the Tables 2/3 workloads, Figures
// 3/4 the R10K/2MB column of all six, and Figure 2's 720×576 and
// 1024×768 points the O2 column of Table 3. A Study therefore keeps one
// table of paper-machine measurements, keyed by the normalized
// Workload, and each experiment reads its column from it: within one
// study a workload is encoded and decoded at most once however many
// experiments show it. The same rows hold the study's encode captures,
// which its geometry and policy sweeps share (see capture.go).

// measurements is a Study's table of paper-machine runs and encode
// captures.
type measurements struct {
	mu      sync.Mutex
	entries map[Workload]*measurement
}

// measurement is one workload's row of the table. Each direction is
// filled at most once, under mu; a failed run stores nothing, so the
// next request retries it.
type measurement struct {
	mu       sync.Mutex
	enc, dec []Result // on perf.PaperMachines(), in that order
	// ss is the encode's coded stream, kept only until the decode is
	// measured from it.
	ss *codec.SessionStream

	// capture is the workload's encode capture (Study.EncodeTrace),
	// made under capMu by the first request after the row was made or
	// the study released its captures. capMu is a lock of its own so
	// that a sweep asking for the capture does not wait behind a
	// paper-machine run.
	capMu   sync.Mutex
	capture *trace.Trace
}

// measurement returns wl's row in the study's table. Callers without a
// WithStudy scope get a fresh Study per call (see StudyFrom), so they
// share no row and simulate every request.
func (s *Study) measurement(wl Workload) *measurement {
	s.measured.mu.Lock()
	defer s.measured.mu.Unlock()
	if s.measured.entries == nil {
		s.measured.entries = map[Workload]*measurement{}
	}
	m := s.measured.entries[wl]
	if m == nil {
		m = &measurement{}
		s.measured.entries[wl] = m
	}
	return m
}

// measure returns the workload's encode and/or decode Results on
// perf.PaperMachines() from the context's Study, simulating whichever
// requested direction the study has not measured yet. An encode is the
// study's multi-machine encode (RunEncodeCtx); a decode plays the coded
// stream of that encode when the study still holds it, or else that of
// an untraced encode in space. Results of a direction not requested
// are not to be read.
func measure(ctx context.Context, space *simmem.Space, wl Workload, enc, dec bool) (encRes, decRes []Result, err error) {
	wl = wl.normalize()
	m := StudyFrom(ctx).measurement(wl)
	m.mu.Lock()
	defer m.mu.Unlock()
	machines := perf.PaperMachines()
	if enc && m.enc == nil {
		res, ss, err := RunEncodeCtx(ctx, space, machines, wl)
		if err != nil {
			return nil, nil, err
		}
		m.enc = res
		if m.dec == nil {
			m.ss = ss
		}
	}
	if dec && m.dec == nil {
		ss := m.ss
		if ss == nil {
			if _, ss, err = RunEncodeCtx(ctx, space, nil, wl); err != nil {
				return nil, nil, err
			}
		}
		res, err := RunDecodeCtx(ctx, simmem.NewSpace(0), machines, wl, ss)
		if err != nil {
			return nil, nil, err
		}
		m.dec, m.ss = res, nil
	}
	return m.enc, m.dec, nil
}

// paperRun is a run on perf.PaperMachines() that an experiment reads:
// a workload's encode, its decode, or both.
type paperRun struct {
	wl       Workload
	enc, dec bool
}

// runResults are a paperRun's Results, one per paper machine; each
// direction the run asked for is set.
type runResults struct{ enc, dec []Result }

// runsAt returns one run per size, each of the shape of wl.
func runsAt(sizes [][2]int, wl Workload, enc, dec bool) []paperRun {
	runs := make([]paperRun, len(sizes))
	for i, sz := range sizes {
		wl.W, wl.H = sz[0], sz[1]
		runs[i] = paperRun{wl, enc, dec}
	}
	return runs
}

// held returns the Results of the directions r asks for if the study
// has measured all of them, read under the row's lock.
func (s *Study) held(r paperRun) (runResults, bool) {
	m := s.measurement(r.wl)
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.enc && m.enc == nil || r.dec && m.dec == nil {
		return runResults{}, false
	}
	return runResults{m.enc, m.dec}, true
}

// measureRuns measures runs in the context's study as one batch on the
// pool. The runs of one normalized Workload merge into one job, which
// measures every direction any of them asks for, so a decode never
// makes an untraced encode of a workload whose encode the batch also
// measures, whatever the order of runs; the jobs run in the order their
// workloads first appear. A workload whose wanted directions the study
// already holds is read without a job. It returns each run's Results in
// the order of runs. On failure it also returns the index of the first
// run of the workload whose job failed, or 0 if ctx was cancelled.
func measureRuns(ctx context.Context, p *farm.Pool, runs []paperRun) ([]runResults, int, error) {
	var jobs []paperRun
	var first []int              // first[j]: the index of jobs[j]'s first run
	at := make([]int, len(runs)) // at[i]: the job that measures runs[i]
	index := map[Workload]int{}
	for i, r := range runs {
		wl := r.wl.normalize()
		j, ok := index[wl]
		if !ok {
			j = len(jobs)
			index[wl] = j
			jobs = append(jobs, paperRun{wl: wl})
			first = append(first, i)
		}
		jobs[j].enc = jobs[j].enc || r.enc
		jobs[j].dec = jobs[j].dec || r.dec
		at[i] = j
	}
	s := StudyFrom(ctx)
	measured := make([]runResults, len(jobs))
	var todo []paperRun
	var farmed []int // farmed[k]: the job todo[k] is
	for j, r := range jobs {
		var ok bool
		if measured[j], ok = s.held(r); !ok {
			todo = append(todo, r)
			farmed = append(farmed, j)
		}
	}
	results, err := farm.MapLabeled(ctx, p, todo,
		func(_ int, r paperRun) string {
			return fmt.Sprintf("paper/%dobj%dlay/%dx%d", r.wl.Objects, r.wl.Layers, r.wl.W, r.wl.H)
		},
		func(ctx context.Context, env farm.Env, r paperRun) (runResults, error) {
			enc, dec, err := measure(ctx, env.Space, r.wl, r.enc, r.dec)
			return runResults{enc, dec}, err
		})
	if err != nil {
		var je *farm.JobError
		if errors.As(err, &je) {
			return nil, first[farmed[je.Index]], err
		}
		return nil, 0, err
	}
	for k, j := range farmed {
		measured[j] = results[k]
	}
	out := make([]runResults, len(runs))
	for i, j := range at {
		out[i] = measured[j]
	}
	return out, 0, nil
}

// paperColumn returns the index of m in perf.PaperMachines(): the
// column of a measurement that a single-machine experiment reads.
func paperColumn(m perf.Machine) int {
	for i, pm := range perf.PaperMachines() {
		if pm == m {
			return i
		}
	}
	panic("harness: " + m.Name + " is not a paper machine")
}
