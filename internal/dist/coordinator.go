package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Fleet metrics: the live counterparts of SweepStats. SweepStats stays
// the per-sweep return value; these accumulate process-wide and move
// WHILE a sweep runs, so /v1/metrics (or mp4study -metrics-out) shows
// a hung fleet as a stalled dist_replays_total and a dying one as a
// falling dist_workers_alive. Gauges are maintained with deltas only,
// so concurrent sweeps in one process compose instead of clobbering.
var (
	mUploads       = obs.Default().Counter("dist_uploads_total")
	mUploadBytes   = obs.Default().Counter("dist_upload_bytes_total")
	mUploadDedup   = obs.Default().Counter("dist_upload_dedup_total")
	mUploadSecs    = obs.Default().Histogram("dist_upload_seconds", nil)
	mBatchReplays  = obs.Default().Counter("dist_replays_total")
	mReplayShards  = obs.Default().Counter("dist_replay_shards_total")
	mReplaySecs    = obs.Default().Histogram("dist_replay_batch_seconds", nil)
	mFailovers     = obs.Default().Counter("dist_failovers_total")
	mWorkerDeaths  = obs.Default().Counter("dist_worker_failures_total")
	mWorkersAlive  = obs.Default().Gauge("dist_workers_alive")
	mBatchesPend   = obs.Default().Gauge("dist_batches_pending")
	mSweepsStarted = obs.Default().Counter("dist_sweeps_total")
)

// distLog carries the coordinator's worker-health and transport
// events; mp4study surfaces them at -log-level info/debug.
var distLog = obs.Logger("dist")

// Coordinator is the fleet's row replayer. GeometrySweepWithStats runs
// the harness sweep planner (harness.RunGeometrySweepOn), which looks
// every cell up in the context's Study memo and takes the study's
// shared capture only on a miss; the coordinator then filters each row
// with a missing cell down to its L2-bound trace, makes that row one
// batch on a single queue the workers pull from, and writes every
// shard's results into its run of its row. The planner counts and
// memoizes the replayed cells, as it does for a local sweep. A worker
// that fails or times out is dropped and its batch goes back to the
// head of the queue (see the package comment for the failover
// semantics).
type Coordinator struct {
	// Workers are the base URLs of the worker processes, e.g.
	// "http://10.0.0.7:8375". At least one is required.
	Workers []string
	// Client is the HTTP client used for all calls. Nil means a
	// default client with connect/TLS/response-header timeouts (but no
	// overall request timeout — per-attempt deadlines bound each
	// upload and replay instead, see UploadTimeout/ReplayTimeout).
	Client *http.Client
	// UploadTimeout bounds one trace-upload attempt. <= 0 means 2m.
	UploadTimeout time.Duration
	// ReplayTimeout bounds one shard-batch replay attempt. <= 0 means
	// 10m. Raise it (and supply a Client whose transport allows it)
	// for very long traces.
	ReplayTimeout time.Duration
	// MaxAttempts bounds how many attempts one shard batch may consume
	// — retries on the same worker and failovers onto others both
	// count — before the sweep fails. <= 0 means 3.
	MaxAttempts int

	// RetryBaseDelay is the backoff before the first retry of a
	// transient failure; it doubles per retry up to RetryMaxDelay, with
	// seeded jitter in [0.5, 1)×. <= 0 means 100ms / 2s.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold is how many consecutive transient failures open
	// a worker's circuit breaker (dropping the worker into the
	// prober's care instead of burning the batch budget on it).
	// <= 0 means 2.
	BreakerThreshold int
	// BreakerCooldown is how long a dropped worker stays unprobed; it
	// doubles with every re-open of the same worker's breaker.
	// <= 0 means 500ms.
	BreakerCooldown time.Duration
	// ProbeInterval and ProbeTimeout pace the health prober that
	// re-admits recovered workers mid-sweep. <= 0 means 250ms / 2s.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FallbackLocal replays whatever shards the fleet could not
	// deliver in-process, from their rows' filtered streams, instead of
	// failing the sweep — byte-identical output, degraded wall-clock.
	// Caller cancellation is never rescued.
	FallbackLocal bool
	// OnShard, when non-nil, receives every completed shard in strict
	// shard-index order — the streaming counterpart of the merged
	// return value (the study service feeds its SSE event log from
	// it). The callback runs on scheduler goroutines with internal
	// state locked: it must be fast and must not call back into the
	// Coordinator — hand the event to a channel or buffer and return.
	OnShard func(ShardEvent)
	// Seed drives the backoff jitter. 0 means 1 (deterministic
	// default), so two identically-seeded sweeps retry on the same
	// schedule.
	Seed uint64
}

// defaultClient is used when Coordinator.Client is nil. It bounds
// connection establishment and header latency — so one unreachable or
// hung worker cannot stall a sweep forever — but sets no overall
// request timeout: replay calls legitimately take as long as the
// simulation they run, and the coordinator's per-attempt context
// deadlines are the authoritative bound. The response-header ceiling
// is therefore generous; it only exists to reap connections whose
// per-attempt context was never going to fire (custom ReplayTimeout
// beyond it requires a custom Client).
var defaultClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: 15 * time.Minute,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConnsPerHost:   4,
	},
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return defaultClient
}

func (c *Coordinator) uploadTimeout() time.Duration {
	if c.UploadTimeout > 0 {
		return c.UploadTimeout
	}
	return 2 * time.Minute
}

func (c *Coordinator) replayTimeout() time.Duration {
	if c.ReplayTimeout > 0 {
		return c.ReplayTimeout
	}
	return 10 * time.Minute
}

func (c *Coordinator) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

// SweepStats reports what one distributed sweep actually shipped and
// survived — the observability half of the failover scheduler.
type SweepStats struct {
	// Uploads and UploadBytes count every trace upload that succeeded,
	// including re-uploads forced by failover.
	Uploads     int
	UploadBytes int64
	// UploadsDeduped counts uploads skipped entirely because the worker
	// already held the batch's trace (a HEAD probe of its content hash
	// hit) — zero bytes moved for each.
	UploadsDeduped int
	// Replays counts successful shard-batch replay calls.
	Replays int
	// Failovers counts batches a dropped worker put back on the queue
	// for the next worker to take. A re-admission moves nothing.
	Failovers int
	// DeadWorkers counts workers dropped from the sweep.
	DeadWorkers int
	// WorkerFailures carries the diagnostic of every dropped worker,
	// in failure order — a sweep that survived failovers should still
	// say what went wrong.
	WorkerFailures []string
	// Retries counts transient batch failures retried on the same
	// worker after backoff (failovers onto another worker are counted
	// separately, in Failovers).
	Retries int
	// BreakerTrips counts circuit breakers opened (a worker can trip
	// more than once if it is re-admitted and fails again).
	BreakerTrips int
	// Probes and Readmissions count the health prober's work: probes
	// sent to dropped workers, and workers brought back mid-sweep.
	Probes       int
	Readmissions int
	// FallbackShards counts shards replayed through the local fallback
	// path because the fleet could not deliver them.
	FallbackShards int
	// BarredWorkers lists the workers dropped as protocol violators —
	// barred from re-admission for the sweep's lifetime — by URL. The
	// study service's fleet health surfaces them separately from
	// merely-dead workers.
	BarredWorkers []string
	// ShardsByWorker counts successfully replayed shards per worker
	// URL — the direct record of who actually served what (a
	// re-admitted worker shows up here with its post-restart shards).
	ShardsByWorker map[string]int
}

// GeometrySweepWithStats runs the distributed counterpart of
// harness.RunGeometrySweep: the harness planner with the coordinator as
// its row replayer, so the context's Study captures, memoizes and
// accounts the sweep as it would the local one. Nil/empty axes use the
// harness defaults. The returned points are identical — field for
// field — to the local sweep of the same workload and axes; the stats
// are the sweep's transport and failover accounting.
func (c *Coordinator) GeometrySweepWithStats(ctx context.Context, wl harness.Workload, l1s []cache.Config, l2Sizes []int) ([]harness.GeometryPoint, SweepStats, error) {
	var stats SweepStats
	if len(c.Workers) == 0 {
		return nil, stats, fmt.Errorf("dist: no workers configured")
	}
	points, err := harness.RunGeometrySweepOn(ctx, nil, wl, l1s, l2Sizes,
		func(ctx context.Context, _ *farm.Pool, tr *trace.Trace, rows []harness.SweepRow, l2Sizes []int) error {
			var err error
			stats, err = c.replayRows(ctx, tr, rows, l2Sizes)
			return err
		})
	return points, stats, err
}

// batch is one dispatchable unit of work: one row's filtered M4L2
// stream and the row's shards left to replay, plus its failover
// accounting. key is a human label for logs; hash is the stream's
// content hash — its identity on every worker, this sweep or any
// other.
type batch struct {
	key      string
	hash     string
	wire     []byte
	shards   []Shard
	attempts int
	lastErr  error
}

func (b *batch) label() string {
	lo, hi := b.shards[0].Index, b.shards[len(b.shards)-1].Index
	return fmt.Sprintf("shards %d-%d (%s)", lo, hi, b.key)
}

// replayRows is the fleet's harness.RowReplayer: it filters and
// serializes each row with a missing cell into one batch
// (buildBatches), cuts the rows into shards (cutShards), streams the
// memo-served shards, and has the workers pull the batches from one
// queue, retrying, failing over and falling back as configured.
func (c *Coordinator) replayRows(ctx context.Context, tr *trace.Trace, rows []harness.SweepRow, l2Sizes []int) (SweepStats, error) {
	byRow, err := buildBatches(ctx, tr, rows)
	if err != nil {
		return SweepStats{}, err
	}
	s := newSweepState(c, cutShards(rows, l2Sizes))
	// Each row's batch carries the row's shards left to replay, and the
	// batches queue in row order. Who runs a batch only affects
	// scheduling, never results: every shard's results land in its own
	// run of its row.
	var batches []*batch
	for i, ps := range s.plan {
		if ps.stats == nil {
			s.servedBy[i] = MemoWorker
			continue
		}
		b := byRow[ps.row]
		if len(b.shards) == 0 {
			batches = append(batches, b)
		}
		b.shards = append(b.shards, ps.Shard)
	}
	// Worker i starts on batch i, so the first assignment is
	// deterministic; the rest wait on the queue.
	first := min(len(batches), len(c.Workers))
	s.queue = batches[first:]
	s.pendingN = len(batches)

	mSweepsStarted.Inc()
	mWorkersAlive.Add(int64(s.aliveN))
	mBatchesPend.Add(int64(s.pendingN))
	distLog.Info("sweep started",
		"workers", len(c.Workers), "shards", len(s.plan), "batches", s.pendingN)
	// Stream the memo-served prefix before any worker runs: emission is
	// strict shard-index order, and a fully memoized sweep must deliver
	// every event even though no worker goroutine ever completes a batch.
	s.mu.Lock()
	s.emitReadyLocked()
	s.mu.Unlock()
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.cancel = cancel
	s.ctx = sctx
	s.running = len(c.Workers)
	for wi := range c.Workers {
		var b *batch
		if wi < first {
			b = batches[wi]
		}
		go s.runWorker(sctx, wi, b)
	}
	go s.runProber(sctx)
	// Join on the goroutine counter, not a WaitGroup: re-admission
	// spawns fresh runWorker goroutines mid-sweep, which a WaitGroup
	// whose Wait already began cannot absorb.
	s.mu.Lock()
	for s.running > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	// All work is decided (done or fatal); cancel the sweep context so
	// an in-flight health probe aborts instead of delaying the join.
	cancel()
	<-s.proberDone
	// Return the gauges' contributions (survivors, open breakers, and
	// any batches a fatal error left undone) so they read zero once no
	// sweep runs.
	mWorkersAlive.Add(-int64(s.aliveN))
	mBatchesPend.Add(-int64(s.pendingN))
	mBreakersOpen.Add(-int64(s.openN))
	distLog.Info("sweep finished",
		"replays", s.stats.Replays, "uploads", s.stats.Uploads,
		"upload_bytes", s.stats.UploadBytes, "dedup", s.stats.UploadsDeduped,
		"failovers", s.stats.Failovers,
		"retries", s.stats.Retries, "readmissions", s.stats.Readmissions,
		"dead_workers", s.stats.DeadWorkers, "fatal", s.fatal != nil)

	// Traces stay on the workers whether the sweep succeeds or fails:
	// the store is content-addressed, so the next sweep over the same
	// capture dedupes its uploads against them with a HEAD probe, and
	// each worker's bounds evict least-recently-used traces, so repeated
	// failing sweeps cannot fill a store.
	if s.fatal != nil {
		// Graceful degradation: with FallbackLocal, a fleet-fatal sweep
		// replays its undelivered shards in-process — byte-identical
		// output, degraded wall-clock. Caller cancellation is never
		// rescued: the caller asked the whole sweep to stop.
		if c.FallbackLocal && ctx.Err() == nil {
			n, ferr := s.fallbackLocal(batches)
			if ferr != nil {
				return s.stats, fmt.Errorf("%w (local fallback failed after %d shards: %v)", s.fatal, n, ferr)
			}
			distLog.Warn("sweep completed via local fallback",
				"shards", n, "fleet_error", s.fatal)
			return s.stats, nil
		}
		return s.stats, s.fatal
	}
	for i, w := range s.servedBy {
		if w == "" {
			return s.stats, fmt.Errorf("dist: shard %d missing from worker responses", i)
		}
	}
	return s.stats, nil
}

// plannedShard is one shard of a sweep's plan and the run of its row it
// fills: points and stats are sliced from the row's Points and Stats,
// not copied. A shard the memo served has its points already and nil
// stats; it never reaches a worker.
type plannedShard struct {
	Shard
	row    int
	points []harness.GeometryPoint
	stats  []cache.Stats
}

// cutShards cuts a sweep's rows into shards. In each row, every
// maximal run of memo-served cells becomes one prefilled shard, and
// every maximal run of missing cells one shard to replay. Flattening
// shard results by Index reproduces the local sweep's (L1 outer, L2
// inner) point order exactly, independent of which worker ran what or
// when it finished.
func cutShards(rows []harness.SweepRow, l2Sizes []int) []plannedShard {
	var plan []plannedShard
	for ri, r := range rows {
		missing := r.Missing // ascending: the next missing cell is missing[0]
		for lo := 0; lo < len(l2Sizes); {
			hi := lo
			var stats []cache.Stats
			if len(missing) > 0 && missing[0] == lo {
				for len(missing) > 0 && missing[0] == hi {
					missing, hi = missing[1:], hi+1
				}
				stats = r.Stats[lo:hi:hi]
			} else {
				hi = len(l2Sizes)
				if len(missing) > 0 {
					hi = missing[0]
				}
			}
			plan = append(plan, plannedShard{
				Shard:  Shard{Index: len(plan), L1: r.L1, L2Sizes: l2Sizes[lo:hi:hi]},
				row:    ri,
				points: r.Points[lo:hi:hi],
				stats:  stats,
			})
			lo = hi
		}
	}
	return plan
}

// buildBatches serializes what the sweep will ship: one batch per row
// with a missing cell, indexed by row (nil for a fully memoized row),
// holding the M4L2 stream made by replaying the capture through the
// row's L1 filter exactly once (the same FilterGeometryL1 seam the
// local replayer uses, so a worker replaying the stream cannot diverge
// from a local run). Rows filter concurrently, one goroutine each;
// fully memoized rows cost neither a filter replay nor an upload.
func buildBatches(ctx context.Context, tr *trace.Trace, rows []harness.SweepRow) ([]*batch, error) {
	batches := make([]*batch, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for ri, r := range rows {
		if len(r.Missing) == 0 {
			continue
		}
		wg.Add(1)
		go func(ri int, l1 cache.Config) {
			defer wg.Done()
			lt := harness.FilterGeometryL1(ctx, tr, l1)
			var wire bytes.Buffer
			if _, err := lt.WriteTo(&wire); err != nil {
				errs[ri] = fmt.Errorf("dist: serialize l2 trace %d: %w", ri, err)
				return
			}
			key := fmt.Sprintf("l2/l1=%dK-%dw", l1.SizeBytes>>10, l1.Ways)
			if l1.Policy != "" && l1.Policy != cache.PolicyLRU {
				key += "-" + string(l1.Policy)
			}
			batches[ri] = &batch{
				key:  fmt.Sprintf("%s#%d", key, ri),
				hash: lt.Hash().String(), // cached by WriteTo above
				wire: wire.Bytes(),
			}
		}(ri, r.L1)
	}
	wg.Wait()
	return batches, errors.Join(errs...)
}

// sweepState is the failover scheduler's shared state: one queue of
// batches in row order. Every worker goroutine takes the queue's head
// whenever it is free, and a dropped worker's batch goes back to the
// head.
type sweepState struct {
	c      *Coordinator
	cancel context.CancelFunc
	// ctx is the sweep context, kept so the prober can hand it to the
	// runWorker goroutines it spawns on re-admission.
	ctx context.Context
	// proberDone closes when the prober loop exits; the sweep joins on
	// it after the worker goroutines so nothing touches shared state
	// during cleanup.
	proberDone chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*batch // batches no worker holds, in row order
	pendingN int      // batches not yet completed (queued + running)
	running  int      // live runWorker goroutines (a WaitGroup cannot re-Add
	// after Wait began, and re-admission does exactly that)
	alive  []bool
	aliveN int
	// breakers, downSince and noReadmit are the self-healing state:
	// per-worker circuit breakers, when each dropped worker went down
	// (for the prober's cooldown), and the workers barred from
	// re-admission (protocol violators).
	breakers  []breaker
	downSince []time.Time
	noReadmit []bool
	openN     int    // breakers currently open, for the gauge drain
	rng       uint64 // seeded jitter state (mu-guarded)
	fatal     error
	stats     SweepStats

	// plan is indexed by shard index; each shard's cells are written by
	// exactly one in-flight batch at a time, under mu. servedBy records,
	// per shard index, which worker's replay filled them — "" until the
	// shard is done. emitted is the length of the contiguous completed
	// prefix already streamed to OnShard.
	plan     []plannedShard
	servedBy []string
	emitted  int
}

func newSweepState(c *Coordinator, plan []plannedShard) *sweepState {
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	s := &sweepState{
		c:          c,
		proberDone: make(chan struct{}),
		alive:      make([]bool, len(c.Workers)),
		aliveN:     len(c.Workers),
		breakers:   make([]breaker, len(c.Workers)),
		downSince:  make([]time.Time, len(c.Workers)),
		noReadmit:  make([]bool, len(c.Workers)),
		rng:        seed,
		plan:       plan,
		servedBy:   make([]string, len(plan)),
	}
	s.stats.ShardsByWorker = map[string]int{}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.alive {
		s.alive[i] = true
	}
	return s
}

// emitReadyLocked (mu held) streams the contiguous prefix of completed
// shards to OnShard. Emission order is shard-index order — the exact
// discipline the merged return value uses — so however completion
// interleaves across workers, failovers and fallbacks, a consumer
// appending Points event by event ends up byte-identical to the batch
// result.
func (s *sweepState) emitReadyLocked() {
	if s.c.OnShard == nil {
		return
	}
	for s.emitted < len(s.plan) && s.servedBy[s.emitted] != "" {
		i := s.emitted
		s.emitted++
		s.c.OnShard(ShardEvent{
			Shard:  s.plan[i].Shard,
			Points: s.plan[i].points,
			Worker: s.servedBy[i],
			Done:   s.emitted,
			Total:  len(s.plan),
		})
	}
}

// runWorker runs worker wi's batches until the sweep completes, the
// sweep aborts, or the worker itself is dropped (at which point its
// batch goes back on the queue, the goroutine exits, and — unless the
// worker violated the protocol — the prober may later re-admit it with
// a fresh goroutine). The worker starts on b, or on the head of the
// queue when b is nil, and takes the head of the queue after every
// batch it delivers. Transient failures retry on the same worker, which
// keeps the batch, under exponential backoff while the batch budget and
// the worker's breaker allow; permanent failures abort the sweep fast.
func (s *sweepState) runWorker(ctx context.Context, wi int, b *batch) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	for {
		if b == nil {
			s.mu.Lock()
			for s.fatal == nil && s.pendingN > 0 && len(s.queue) == 0 {
				s.cond.Wait()
			}
			if s.fatal != nil || s.pendingN == 0 {
				s.mu.Unlock()
				return
			}
			b, s.queue = s.queue[0], s.queue[1:]
			s.mu.Unlock()
		}

		err := s.runBatch(ctx, wi, b)

		s.mu.Lock()
		if err == nil {
			s.breakers[wi].fails = 0
			s.breakers[wi].halfOpen = false
			s.pendingN--
			s.stats.Replays++
			s.stats.ShardsByWorker[s.c.Workers[wi]] += len(b.shards)
			s.emitReadyLocked()
			mBatchesPend.Dec()
			s.mu.Unlock()
			s.cond.Broadcast()
			b = nil
			continue
		}
		if ctx.Err() != nil {
			// The sweep's context died (caller cancellation, or the
			// abort broadcast of an earlier fatal error) — the worker
			// did not fail, so no death, no requeue, no attempt
			// burned. setFatal is a no-op if a real fatal error (or
			// the cancellation) is already recorded.
			s.setFatal(fmt.Errorf("dist: sweep cancelled: %w", ctx.Err()))
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		b.attempts++
		b.lastErr = fmt.Errorf("worker %s: %w", s.c.Workers[wi], err)
		switch classify(err) {
		case classPermanent:
			// 4xx: every worker would answer the same; retrying anywhere
			// burns budget to learn nothing.
			s.setFatal(fmt.Errorf("dist: %s on worker %s: permanent error: %w",
				b.label(), s.c.Workers[wi], err))
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		case classViolation:
			// The worker is up but wrong: drop it now and bar it from
			// re-admission for the rest of the sweep.
			s.noReadmit[wi] = true
			s.stats.BarredWorkers = append(s.stats.BarredWorkers, s.c.Workers[wi])
		default:
			// Transient. A replay 404 means the worker restarted or
			// evicted the trace; the retry probes again and re-uploads.
			// A spent budget drops the worker below, and the sweep fails.
			if b.attempts >= s.c.maxAttempts() {
				break
			}
			s.breakers[wi].fails++
			if s.breakers[wi].halfOpen || s.breakers[wi].fails >= s.c.breakerThreshold() {
				// Consecutive failures (or any failure while half-open):
				// open the breaker and drop the worker — the prober
				// decides when it may return.
				s.tripBreakerLocked(wi)
				break
			}
			s.stats.Retries++
			delay := s.backoffLocked(b.attempts)
			mRetries.Inc()
			distLog.Info("transient failure, retrying after backoff",
				"worker", s.c.Workers[wi], "batch", b.label(),
				"attempt", b.attempts, "delay", delay.Round(time.Millisecond).String(),
				"err", err)
			s.mu.Unlock()
			if !sleepCtx(ctx, delay) {
				s.mu.Lock()
				s.setFatal(fmt.Errorf("dist: sweep cancelled: %w", ctx.Err()))
				s.mu.Unlock()
				s.cond.Broadcast()
				return
			}
			continue
		}
		s.failWorker(wi, b, err)
		s.mu.Unlock()
		s.cond.Broadcast()
		return
	}
}

// failWorker (mu held) drops worker wi from the sweep and puts its
// batch b back at the head of the queue, where the next free worker
// takes it. The caller has already charged the failed attempt to b's
// budget and set b.lastErr. The sweep fails instead when b's budget is
// spent or no worker is left — though while others run, the prober may
// still bring this worker back.
func (s *sweepState) failWorker(wi int, b *batch, err error) {
	if s.fatal != nil {
		return
	}
	s.alive[wi] = false
	s.aliveN--
	s.downSince[wi] = time.Now()
	s.stats.DeadWorkers++
	mWorkerDeaths.Inc()
	mWorkersAlive.Dec()
	s.stats.WorkerFailures = append(s.stats.WorkerFailures, b.lastErr.Error())
	distLog.Warn("worker dropped from sweep",
		"worker", s.c.Workers[wi], "batch", b.label(),
		"attempts", b.attempts, "survivors", s.aliveN, "err", err)
	switch {
	case b.attempts >= s.c.maxAttempts():
		s.setFatal(fmt.Errorf("dist: %s failed after %d attempts (attempt budget %d): %w",
			b.label(), b.attempts, s.c.maxAttempts(), b.lastErr))
	case s.aliveN == 0:
		s.setFatal(fmt.Errorf("dist: all %d workers failed: %w", len(s.c.Workers), b.lastErr))
	default:
		s.queue = append([]*batch{b}, s.queue...)
		s.stats.Failovers++
		mFailovers.Inc()
		distLog.Info("batch requeued", "batch", b.label(), "attempts", b.attempts)
	}
}

// setFatal (mu held) aborts the sweep: every in-flight request is
// cancelled and every worker goroutine unblocks and exits.
func (s *sweepState) setFatal(err error) {
	if s.fatal == nil {
		s.fatal = err
		if s.cancel != nil {
			s.cancel()
		}
	}
}

// runBatch executes one batch on worker wi: probe whether the worker
// holds the batch's trace and upload it on a miss (requeued batches
// and restarted workers land here with the trace absent), then replay
// the shards — each step under its own deadline — and write the
// returned points and stats into the shards' cells.
func (s *sweepState) runBatch(ctx context.Context, wi int, b *batch) error {
	base := s.c.Workers[wi]
	id := b.hash
	if s.c.headTrace(ctx, base, id) {
		// Content-hash dedup: the worker already holds these exact bytes
		// — left by an earlier batch or sweep, or another coordinator —
		// so no upload moves. Any probe failure (404, error, a worker
		// that predates HEAD) just falls through to the upload.
		s.mu.Lock()
		s.stats.UploadsDeduped++
		s.mu.Unlock()
		mUploadDedup.Inc()
		distLog.Debug("upload deduped by content hash",
			"worker", base, "key", b.key, "id", id)
	} else {
		uctx, cancel := context.WithTimeout(ctx, s.c.uploadTimeout())
		start := time.Now()
		info, err := s.c.upload(uctx, base, b.wire)
		cancel()
		if err != nil {
			return fmt.Errorf("upload %s: %w", b.key, err)
		}
		mUploadSecs.ObserveSince(start)
		id = info.ID
		s.mu.Lock()
		s.stats.Uploads++
		s.stats.UploadBytes += int64(len(b.wire))
		s.mu.Unlock()
		mUploads.Inc()
		mUploadBytes.Add(uint64(len(b.wire)))
		distLog.Debug("trace uploaded",
			"worker", base, "key", b.key, "id", id, "bytes", len(b.wire))
	}

	rctx, cancel := context.WithTimeout(ctx, s.c.replayTimeout())
	replayStart := time.Now()
	resp, err := s.c.replay(rctx, base, ReplayRequest{TraceID: id, Shards: b.shards})
	cancel()
	if err != nil {
		return fmt.Errorf("replay %s: %w", b.label(), err)
	}
	mReplaySecs.ObserveSince(replayStart)
	mBatchReplays.Inc()
	mReplayShards.Add(uint64(len(b.shards)))
	distLog.Debug("batch replayed",
		"worker", base, "batch", b.label(), "shards", len(b.shards),
		"duration", time.Since(replayStart).Round(time.Millisecond).String())

	// Only the cells of shards this batch carries may be written: the
	// rows are shared across workers, so an index echoed back wrong
	// (buggy or stale worker) must be an error — and a failover — not a
	// silent overwrite of another shard's cells. So must a result whose
	// points do not cover its shard, or that lacks the stats the sweep
	// memoizes. Validate the whole response first, then commit under
	// the sweep lock: emitReadyLocked reads done shards from other
	// workers' goroutines, so every write must be synchronized.
	mine := make(map[int]bool, len(b.shards))
	for _, sh := range b.shards {
		mine[sh.Index] = true
	}
	for _, res := range resp.Results {
		if !mine[res.Index] {
			return violationf("returned shard index %d it was not assigned", res.Index)
		}
		if n := len(s.plan[res.Index].L2Sizes); len(res.Points) != n {
			return violationf("shard %d returned %d points for %d L2 sizes", res.Index, len(res.Points), n)
		}
		if len(res.Stats) != len(res.Points) {
			return violationf("shard %d returned %d stats for %d points", res.Index, len(res.Stats), len(res.Points))
		}
		delete(mine, res.Index)
	}
	if len(mine) > 0 {
		return violationf("response missing %d of %d shards", len(mine), len(b.shards))
	}
	s.mu.Lock()
	for _, res := range resp.Results {
		ps := s.plan[res.Index]
		copy(ps.points, res.Points)
		copy(ps.stats, res.Stats)
		s.servedBy[res.Index] = base
	}
	s.mu.Unlock()
	return nil
}

// headTrace reports whether base already holds the content hash —
// the cheap exists probe that replaces moving bytes. Strictly an
// optimization: every failure mode returns false and the caller
// uploads normally.
func (c *Coordinator) headTrace(ctx context.Context, base, hash string) bool {
	if hash == "" {
		return false
	}
	hctx, cancel := context.WithTimeout(ctx, c.uploadTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodHead, base+"/v1/traces/"+hash, nil)
	if err != nil {
		return false
	}
	return c.do(req, http.StatusOK, nil) == nil
}

// upload ships one serialized trace to a worker.
func (c *Coordinator) upload(ctx context.Context, base string, wire []byte) (*TraceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/traces", bytes.NewReader(wire))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentTypeL2Trace)
	var info TraceInfo
	if err := c.do(req, http.StatusCreated, &info); err != nil {
		return nil, err
	}
	if info.ID == "" {
		return nil, violationf("worker returned an empty trace ID")
	}
	return &info, nil
}

// replay posts one shard batch.
func (c *Coordinator) replay(ctx context.Context, base string, rr ReplayRequest) (*ReplayResponse, error) {
	body, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/replay", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp ReplayResponse
	if err := c.do(req, http.StatusOK, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// httpError is a non-expected-status response, keeping the code
// inspectable for failure classification.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.msg) }

// do executes a request, decodes a JSON response into out on the
// expected status, and turns everything else into an *httpError
// carrying the server's diagnostic. The body is always drained before
// close so the transport can reuse the connection — a sweep makes many
// probe/upload/replay calls per worker and must not pay a new
// connection for each.
func (c *Coordinator) do(req *http.Request, wantStatus int, out any) error {
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != wantStatus {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var eb errorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return &httpError{status: resp.StatusCode, msg: eb.Error}
		}
		return &httpError{status: resp.StatusCode, msg: string(bytes.TrimSpace(raw))}
	}
	if out == nil { // status-only call (e.g. HEAD → 200, no body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
