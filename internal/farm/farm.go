// Package farm is the experiment-execution engine: it turns every
// simulation the repository can run into a schedulable Job executed by
// a context-aware worker pool.
//
// The paper's methodology is embarrassingly parallel — each table
// column, figure point and ablation configuration is an independent
// trace-driven simulation — so the farm provides exactly the structure
// that shape needs:
//
//   - a bounded job queue feeding a fixed set of workers (default
//     GOMAXPROCS), so arbitrarily long sweeps run with constant memory;
//   - per-job isolation: every job receives a fresh simmem.Space;
//   - cancellation on first error (fail-fast);
//   - progress callbacks serialized on the caller's goroutine;
//   - order-preserving aggregation: results come back indexed by job,
//     so parallel output is byte-identical to serial output.
//
// Determinism contract: a job must compute its result from its inputs
// and its Env only. Under that contract Run(p, jobs) returns identical
// results for every worker count, which the harness's determinism tests
// assert end-to-end (ratio sweep, ablations, tables, figures).
package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/simmem"
)

// Farm metrics (process-wide, see internal/obs): queue depth counts
// jobs enqueued but not yet picked up by a worker, in-flight counts
// jobs mid-simulation, and the latency histogram times each job.
// Concurrent Run calls share them — the gauges are deltas, so the
// totals stay correct.
var (
	mQueueDepth = obs.Default().Gauge("farm_queue_depth")
	mInflight   = obs.Default().Gauge("farm_jobs_inflight")
	mCompleted  = obs.Default().Counter("farm_jobs_completed_total")
	mFailed     = obs.Default().Counter("farm_jobs_failed_total")
	mSkipped    = obs.Default().Counter("farm_jobs_skipped_total")
	mJobSeconds = obs.Default().Histogram("farm_job_seconds", nil)
)

// Env is the per-job environment. It is a function of the job index
// alone, so results cannot depend on which worker ran the job or when.
type Env struct {
	Index int           // position of the job in the submitted slice
	Space *simmem.Space // fresh simulated address space, owned by the job
}

// Job is one schedulable simulation returning a value of type T.
type Job[T any] struct {
	Label string // for progress reporting and error messages
	Run   func(ctx context.Context, env Env) (T, error)
}

// ProgressFunc observes job completions. It is called from the
// goroutine that called Run — never concurrently — with Done increasing
// monotonically from 1 to Total.
type ProgressFunc func(Event)

// Event reports one completed (or skipped) job.
type Event struct {
	Index int    // job index
	Label string // job label
	Done  int    // jobs finished so far, including this one
	Total int    // total jobs in this Run
	Err   error  // non-nil if the job failed or was skipped
}

// Config parameterizes a Pool.
type Config struct {
	// Workers is the number of concurrent workers. <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue bounds the dispatch queue depth. <= 0 means 2×Workers.
	Queue int
	// Progress, if non-nil, observes every job completion.
	Progress ProgressFunc
}

// Pool is a reusable execution configuration. Pools are stateless
// between Run calls (workers are spawned per call), so one Pool may be
// shared, reused, and used from nested Run calls freely.
type Pool struct {
	workers  int
	queue    int
	progress ProgressFunc
}

// New builds a Pool from cfg, applying defaults.
func New(cfg Config) *Pool {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	q := cfg.Queue
	if q <= 0 {
		q = 2 * w
	}
	return &Pool{
		workers:  w,
		queue:    q,
		progress: cfg.Progress,
	}
}

// Default returns a pool sized to GOMAXPROCS — the right choice for
// CPU-bound trace simulation.
func Default() *Pool { return New(Config{}) }

// Serial returns a single-worker pool: the reference execution order
// that parallel runs must reproduce byte-for-byte.
func Serial() *Pool { return New(Config{Workers: 1}) }

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// JobError attributes a failure to one job.
type JobError struct {
	Index int
	Label string
	Err   error
}

func (e *JobError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("farm: job %d (%s): %v", e.Index, e.Label, e.Err)
	}
	return fmt.Sprintf("farm: job %d: %v", e.Index, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// errSkipped marks jobs that never ran because an earlier failure
// cancelled the run.
var errSkipped = errors.New("farm: job skipped after earlier failure")

// outcome is one completion notice from a worker.
type outcome struct {
	index int
	err   error
}

// Run executes jobs on p's workers and returns the results in job
// order. A nil pool means Default().
//
// The first failure cancels the run context; jobs not yet started are
// skipped, and Run returns the lowest-indexed failure among the jobs
// that actually ran, wrapped in a *JobError. Which jobs ran depends on
// scheduling, so when several jobs can fail the reported one may vary
// with worker count — with a single worker it is always the first
// failure in job order. If ctx itself is cancelled, Run drains its
// workers and returns ctx's error.
func Run[T any](ctx context.Context, p *Pool, jobs []Job[T]) ([]T, error) {
	if p == nil {
		p = Default()
	}
	n := len(jobs)
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.workers
	if workers > n {
		workers = n
	}
	queue := make(chan int, p.queue)
	done := make(chan outcome, workers)

	for w := 0; w < workers; w++ {
		go func() {
			// Workers drain the queue even after cancellation
			// (reporting a skip) so the feeder can never block
			// forever on the bounded queue and Run always sees
			// exactly n outcomes.
			for idx := range queue {
				mQueueDepth.Dec()
				var err error
				if runCtx.Err() != nil {
					err = errSkipped
				} else {
					env := Env{Index: idx, Space: simmem.NewSpace(0)}
					mInflight.Inc()
					start := time.Now()
					results[idx], err = runJob(runCtx, jobs[idx], env)
					mJobSeconds.ObserveSince(start)
					mInflight.Dec()
				}
				done <- outcome{index: idx, err: err}
			}
		}()
	}

	go func() {
		for i := range jobs {
			// Inc before the (possibly blocking) send: the gauge counts
			// "queued or being enqueued", so a full queue reads as deep,
			// not empty.
			mQueueDepth.Inc()
			queue <- i
		}
		close(queue)
	}()

	errs := make([]error, n)
	failed := false
	for completed := 1; completed <= n; completed++ {
		oc := <-done
		errs[oc.index] = oc.err
		switch {
		case oc.err == nil:
			mCompleted.Inc()
		case errors.Is(oc.err, errSkipped):
			mSkipped.Inc()
		default:
			mFailed.Inc()
		}
		if oc.err != nil && !failed {
			failed = true
			cancel()
		}
		if p.progress != nil {
			p.progress(Event{
				Index: oc.index,
				Label: jobs[oc.index].Label,
				Done:  completed,
				Total: n,
				Err:   oc.err,
			})
		}
	}

	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, selectError(jobs, errs)
}

// selectError reduces per-job errors to Run's return error,
// deterministically: index order, never completion order. It prefers
// the lowest-indexed failure that is neither our own skip marker nor
// cancellation fallout, and falls back to the lowest
// cancellation-shaped failure if nothing else exists.
func selectError[T any](jobs []Job[T], errs []error) error {
	var fallback error
	var fallbackIdx int
	for i, err := range errs {
		if err == nil || errors.Is(err, errSkipped) {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if fallback == nil {
				fallback, fallbackIdx = err, i
			}
			continue
		}
		return &JobError{Index: i, Label: jobs[i].Label, Err: err}
	}
	if fallback != nil {
		return &JobError{Index: fallbackIdx, Label: jobs[fallbackIdx].Label, Err: fallback}
	}
	return nil
}

// runJob executes one job, converting a panic into an error so one bad
// configuration cannot take down a whole sweep.
func runJob[T any](ctx context.Context, j Job[T], env Env) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("farm: job %d (%s) panicked: %v\n%s", env.Index, j.Label, r, debug.Stack())
		}
	}()
	return j.Run(ctx, env)
}

// Map runs f over items with the pool and returns the outputs in item
// order. It is the common fan-out shape: the harness's sweeps are all
// Maps over configuration slices.
func Map[I, O any](ctx context.Context, p *Pool, items []I, f func(ctx context.Context, env Env, item I) (O, error)) ([]O, error) {
	return MapLabeled(ctx, p, items, nil, f)
}

// MapLabeled is Map with a per-item label for progress reporting and
// error attribution. A nil label falls back to "job N".
func MapLabeled[I, O any](ctx context.Context, p *Pool, items []I, label func(i int, item I) string, f func(ctx context.Context, env Env, item I) (O, error)) ([]O, error) {
	jobs := make([]Job[O], len(items))
	for i := range items {
		item := items[i]
		name := fmt.Sprintf("job %d", i)
		if label != nil {
			name = label(i, item)
		}
		jobs[i] = Job[O]{
			Label: name,
			Run: func(ctx context.Context, env Env) (O, error) {
				return f(ctx, env, item)
			},
		}
	}
	return Run(ctx, p, jobs)
}
