package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/memo"
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

// Coordinator drives a distributed geometry sweep: plan the (L1 × L2
// size) grid into shards against the memo, capture the workload
// locally only if some shard is left to dispatch, filter the capture
// down to the L2-bound trace of each L1 row that ships, shard the
// remaining cells across the workers, and merge the results in
// deterministic shard order. The capture is the context's Study's
// shared one (harness.Study.EncodeTrace), so several sweeps of one
// workload in a study capture it once; the study releases it after its
// last sweep. Workers that fail or time out
// are dropped and their shards re-planned onto the survivors (see the
// package comment for the failover semantics).
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
	// deliver through the local harness path instead of failing the
	// sweep — byte-identical output, degraded wall-clock. Caller
	// cancellation is never rescued.
	FallbackLocal bool
	// Memo, when non-nil, makes the sweep incremental: cells are keyed
	// by (capture provenance, L1, L2) — harness.CaptureProvenance, known
	// before anything is encoded — and every cell already in the memo is
	// served locally from its memoized stats: no shard dispatched, no
	// trace filtered or uploaded for rows the memo fully covers, and no
	// capture at all when it covers the grid. Every cell the fleet or
	// the local fallback does replay is memoized on success. Output is
	// byte-identical with or without a memo: values are whole-run
	// cache.Stats and perf.Compute is deterministic. Memo-served shards
	// reach OnShard with Worker == MemoWorker.
	Memo *memo.Cache
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
	// already held the payload's content hash (HEAD probe hit) — zero
	// bytes moved for each.
	UploadsDeduped int
	// MemoHits and MemoMisses count grid cells served from the result
	// memo versus actually planned for replay. Both zero when the
	// coordinator has no memo attached.
	MemoHits   int
	MemoMisses int
	// Replays counts successful shard-batch replay calls.
	Replays int
	// Failovers counts shard batches re-planned onto another worker
	// after a worker failure (including batches the dead worker had
	// queued but never started).
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
// harness.RunGeometrySweep: at most one local capture, every
// configuration the memo lacks replayed on the worker fleet. Nil/empty
// axes use the harness defaults. The returned points are identical —
// field for field — to the local sweep of the same workload and axes;
// the stats are the sweep's transport and failover accounting.
func (c *Coordinator) GeometrySweepWithStats(ctx context.Context, wl harness.Workload, l1s []cache.Config, l2Sizes []int) ([]harness.GeometryPoint, SweepStats, error) {
	shardPoints, stats, err := c.geometrySweepShards(ctx, wl, l1s, l2Sizes)
	if err != nil {
		return nil, stats, err
	}
	var out []harness.GeometryPoint
	for _, pts := range shardPoints {
		out = append(out, pts...)
	}
	return out, stats, nil
}

// payload is one serialized trace the sweep ships: one L1 row's
// filtered M4L2 stream. key is a human label for logs; hash is the
// trace's content hash — its identity on every worker, this sweep or
// any other.
type payload struct {
	key  string
	hash string
	wire []byte
}

// batch is one dispatchable unit of work: a set of shards that replay
// against the same payload, plus its failover accounting.
type batch struct {
	payload  *payload
	shards   []Shard
	attempts int
	lastErr  error
}

func (b *batch) label() string {
	lo, hi := b.shards[0].Index, b.shards[len(b.shards)-1].Index
	return fmt.Sprintf("shards %d-%d (%s)", lo, hi, b.payload.key)
}

// geometrySweepShards performs the plan/capture/filter/upload/replay
// cycle and returns per-shard points ordered by shard index.
func (c *Coordinator) geometrySweepShards(ctx context.Context, wl harness.Workload, l1s []cache.Config, l2Sizes []int) ([][]harness.GeometryPoint, SweepStats, error) {
	var stats SweepStats
	if len(c.Workers) == 0 {
		return nil, stats, fmt.Errorf("dist: no workers configured")
	}
	if len(l1s) == 0 {
		l1s = harness.GeometryL1Configs()
	}
	if len(l2Sizes) == 0 {
		l2Sizes = harness.GeometryL2Sizes()
	}
	// Validate both axes before any capture work: they may come from
	// flags or manifests, and a bad axis entry must not cost an encode
	// — nor masquerade as fleet-wide worker failure when every worker
	// rejects the same invalid shard.
	for _, l1 := range l1s {
		if err := l1.Validate(); err != nil {
			return nil, stats, fmt.Errorf("dist: l1 axis: %w", err)
		}
		// Validate the exact L2 each (L1, size) pair will simulate —
		// harness.GeometryL2For is the same rule the replay executes
		// (allocation-free: axes may be hostile network data).
		for _, size := range l2Sizes {
			if err := harness.GeometryL2For(l1, size).Validate(); err != nil {
				return nil, stats, fmt.Errorf("dist: l2 axis: %w", err)
			}
		}
	}

	// Plan the shards before capturing: memo-covered cells become
	// prefilled shards that never reach a worker, so fully memoized L1
	// rows are never filtered or uploaded, and a fully memoized grid is
	// never captured. Only shards left to dispatch need the capture;
	// each L1 row then ships only its L2-bound stream.
	id := harness.CaptureProvenance(wl)
	shards, prefill, hits, misses := c.planMemoShards(id, l1s, l2Sizes)
	if c.Memo != nil {
		stats.MemoHits, stats.MemoMisses = hits, misses
	}
	dispatch := make([]Shard, 0, len(shards))
	for _, sh := range shards {
		if _, ok := prefill[sh.Index]; !ok {
			dispatch = append(dispatch, sh)
		}
	}
	var capture *trace.Trace
	if len(dispatch) > 0 {
		var err error
		if capture, err = harness.StudyFrom(ctx).EncodeTrace(wl); err != nil {
			return nil, stats, fmt.Errorf("dist: capture: %w", err)
		}
	}
	payloadOf, err := c.buildPayloads(ctx, capture, l1s, dispatch)
	if err != nil {
		return nil, stats, err
	}

	// Initial assignment: shards round-robin across workers (as the
	// pre-failover coordinator did), then each worker's shards group
	// per payload into one batch — one replay call per (worker,
	// trace). Assignment only affects scheduling, never results:
	// points merge by shard index.
	byWorker := make([][]Shard, len(c.Workers))
	for i, sh := range dispatch {
		w := i % len(c.Workers)
		byWorker[w] = append(byWorker[w], sh)
	}
	s := newSweepState(c, shards)
	s.stats.MemoHits, s.stats.MemoMisses = stats.MemoHits, stats.MemoMisses
	for idx, pts := range prefill {
		s.results[idx] = pts
		s.servedBy[idx] = MemoWorker
	}
	for wi, mine := range byWorker {
		group := map[*payload]*batch{}
		for _, sh := range mine {
			p := payloadOf[sh.Index]
			b, ok := group[p]
			if !ok {
				b = &batch{payload: p}
				group[p] = b
				s.queues[wi] = append(s.queues[wi], b)
				s.pendingN++
			}
			b.shards = append(b.shards, sh)
		}
	}

	mSweepsStarted.Inc()
	mWorkersAlive.Add(int64(s.aliveN))
	mBatchesPend.Add(int64(s.pendingN))
	distLog.Info("sweep started",
		"workers", len(c.Workers), "shards", len(shards),
		"memo_shards", len(shards)-len(dispatch),
		"batches", s.pendingN)
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
		go s.runWorker(sctx, wi)
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
		// replays its undelivered shards through the local harness path —
		// byte-identical output, degraded wall-clock. Caller cancellation
		// is never rescued: the caller asked the whole sweep to stop.
		if c.FallbackLocal && ctx.Err() == nil {
			n, ferr := s.fallbackLocal(ctx, capture, shards)
			if ferr != nil {
				return nil, s.stats, fmt.Errorf("%w (local fallback failed after %d shards: %v)", s.fatal, n, ferr)
			}
			distLog.Warn("sweep completed via local fallback",
				"shards", n, "fleet_error", s.fatal)
			s.memoize(id, prefill)
			return s.results, s.stats, nil
		}
		return nil, s.stats, s.fatal
	}
	for i, pts := range s.results {
		if len(pts) == 0 {
			return nil, s.stats, fmt.Errorf("dist: shard %d missing from worker responses", i)
		}
	}
	s.memoize(id, prefill)
	return s.results, s.stats, nil
}

// memoize records every replayed cell of a successful sweep — by a
// worker or by the local fallback — in the coordinator's memo under
// the capture identity id, so the next sweep of the same workload can
// serve them without capturing or dispatching anything. It is the
// sweep's one memo writer. Prefilled shards are already in the memo;
// shards without stats (pre-stats workers) are simply skipped — the
// memo is an optimization, never required for completeness.
func (s *sweepState) memoize(id trace.Hash, prefill map[int][]harness.GeometryPoint) {
	if s.c.Memo == nil {
		return
	}
	for i, sh := range s.shards {
		if _, ok := prefill[sh.Index]; ok {
			continue
		}
		sts := s.cellStats[i]
		if len(sts) != len(sh.L2Sizes) {
			continue
		}
		for j, size := range sh.L2Sizes {
			s.c.Memo.Put(harness.GeometryMemoKey(id, sh.L1, size), sts[j])
		}
	}
}

// planMemoShards cuts the (L1 × L2 size) grid into shards, looking
// cells up under the capture identity id. Per L1 row, maximal runs of
// memo-hit cells become one prefilled shard each
// (results reconstructed from memoized stats — byte-identical to a
// replay because perf.Compute is deterministic), and runs of misses
// split into at most len(c.Workers) contiguous chunks. Without a memo
// every cell misses and no lookup runs. Flattening shard results by
// Index reproduces the local sweep's (L1 outer, L2 inner) point order
// exactly, independent of which worker ran what or when it finished.
func (c *Coordinator) planMemoShards(id trace.Hash, l1s []cache.Config, l2Sizes []int) (shards []Shard, prefill map[int][]harness.GeometryPoint, hits, misses int) {
	prefill = map[int][]harness.GeometryPoint{}
	for _, l1 := range l1s {
		memoized := make([]cache.Stats, len(l2Sizes))
		hit := make([]bool, len(l2Sizes))
		for j, size := range l2Sizes {
			if c.Memo != nil {
				memoized[j], hit[j] = c.Memo.Get(harness.GeometryMemoKey(id, l1, size))
			}
		}
		for lo := 0; lo < len(l2Sizes); {
			hi := lo + 1
			for hi < len(l2Sizes) && hit[hi] == hit[lo] {
				hi++
			}
			run := l2Sizes[lo:hi]
			if hit[lo] {
				hits += len(run)
				pts := make([]harness.GeometryPoint, len(run))
				for j := range run {
					pts[j] = harness.GeometryPointFromStats(l1, run[j], memoized[lo+j])
				}
				prefill[len(shards)] = pts
				shards = append(shards, Shard{
					Index:   len(shards),
					L1:      l1,
					L2Sizes: append([]int(nil), run...),
				})
			} else {
				misses += len(run)
				chunks := len(c.Workers)
				if chunks > len(run) {
					chunks = len(run)
				}
				for k := 0; k < chunks; k++ {
					a := k * len(run) / chunks
					b := (k + 1) * len(run) / chunks
					if a == b {
						continue
					}
					shards = append(shards, Shard{
						Index:   len(shards),
						L1:      l1,
						L2Sizes: append([]int(nil), run[a:b]...),
					})
				}
			}
			lo = hi
		}
	}
	return shards, prefill, hits, misses
}

// buildPayloads serializes what the sweep will ship: one M4L2 payload
// per L1 row, produced by replaying the capture through each row's L1
// filter exactly once (the same FilterGeometryL1 seam the local sweep
// uses, so a worker replaying the payload cannot diverge from a local
// run). payloadOf maps each shard index to its payload.
func (c *Coordinator) buildPayloads(ctx context.Context, capture *trace.Trace, l1s []cache.Config, shards []Shard) (map[int]*payload, error) {
	payloadOf := make(map[int]*payload, len(shards))
	// One filter replay per L1 row, concurrently — this is the work
	// the workers would otherwise each repeat per shard. Only rows some
	// shard actually dispatches are filtered: a memoized plan can cover
	// whole rows, and those must cost neither a filter replay nor an
	// upload.
	needed := make([]bool, len(l1s))
	for _, sh := range shards {
		for li := range l1s {
			if sh.L1 == l1s[li] {
				needed[li] = true
				break
			}
		}
	}
	payloads := make([]*payload, len(l1s))
	errs := make([]error, len(l1s))
	var wg sync.WaitGroup
	for li, l1 := range l1s {
		if !needed[li] {
			continue
		}
		wg.Add(1)
		go func(li int, l1 cache.Config) {
			defer wg.Done()
			lt := harness.FilterGeometryL1(ctx, capture, l1)
			var wire bytes.Buffer
			if _, err := lt.WriteTo(&wire); err != nil {
				errs[li] = fmt.Errorf("dist: serialize l2 trace %d: %w", li, err)
				return
			}
			key := fmt.Sprintf("l2/l1=%dK-%dw", l1.SizeBytes>>10, l1.Ways)
			if l1.Policy != "" && l1.Policy != cache.PolicyLRU {
				key += "-" + string(l1.Policy)
			}
			payloads[li] = &payload{
				key:  fmt.Sprintf("%s#%d", key, li),
				hash: lt.Hash().String(), // cached by WriteTo above
				wire: wire.Bytes(),
			}
		}(li, l1)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, sh := range shards {
		for li := range l1s {
			if sh.L1 == l1s[li] {
				payloadOf[sh.Index] = payloads[li]
				break
			}
		}
	}
	return payloadOf, nil
}

// sweepState is the failover scheduler's shared state. Batches queue
// per worker; a worker goroutine drains its own queue and, when it
// fails, hands its remaining work to the survivors.
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
	queues   [][]*batch
	pendingN int // batches not yet completed (queued + running)
	running  int // live runWorker goroutines (a WaitGroup cannot re-Add
	// after Wait began, and re-admission does exactly that)
	alive  []bool
	aliveN int
	busy   []bool // worker is mid-batch (its queue length alone lies)
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

	// results is indexed by shard index; each element is written by
	// exactly one in-flight batch at a time. servedBy records, per
	// shard index, which worker's replay produced the element (same
	// exclusive-writer discipline). shards keeps the plan so emitted
	// events carry the shard they report; emitted is the length of the
	// contiguous completed prefix already streamed to OnShard.
	results  [][]harness.GeometryPoint
	servedBy []string
	// cellStats holds, per dispatched shard, the whole-run stats the
	// worker reported alongside its points (empty when the worker
	// omitted them) — the raw material the memo stores after success.
	cellStats [][]cache.Stats
	shards    []Shard
	emitted   int
}

func newSweepState(c *Coordinator, shards []Shard) *sweepState {
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	s := &sweepState{
		c:          c,
		proberDone: make(chan struct{}),
		queues:     make([][]*batch, len(c.Workers)),
		alive:      make([]bool, len(c.Workers)),
		aliveN:     len(c.Workers),
		busy:       make([]bool, len(c.Workers)),
		breakers:   make([]breaker, len(c.Workers)),
		downSince:  make([]time.Time, len(c.Workers)),
		noReadmit:  make([]bool, len(c.Workers)),
		rng:        seed,
		results:    make([][]harness.GeometryPoint, len(shards)),
		servedBy:   make([]string, len(shards)),
		cellStats:  make([][]cache.Stats, len(shards)),
		shards:     shards,
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
	for s.emitted < len(s.results) && len(s.results[s.emitted]) > 0 {
		i := s.emitted
		s.emitted++
		s.c.OnShard(ShardEvent{
			Shard:  s.shards[i],
			Points: s.results[i],
			Worker: s.servedBy[i],
			Done:   s.emitted,
			Total:  len(s.shards),
		})
	}
}

// runWorker drains worker wi's queue until the sweep completes, the
// sweep aborts, or the worker itself is dropped (at which point its
// work is re-planned, the goroutine exits, and — unless the worker
// violated the protocol — the prober may later re-admit it with a
// fresh goroutine). Transient failures retry on the same worker under
// exponential backoff while the batch budget and the worker's breaker
// allow; permanent failures abort the sweep fast.
func (s *sweepState) runWorker(ctx context.Context, wi int) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	for {
		s.mu.Lock()
		for s.fatal == nil && s.pendingN > 0 && len(s.queues[wi]) == 0 {
			s.cond.Wait()
		}
		if s.fatal != nil || s.pendingN == 0 {
			s.mu.Unlock()
			return
		}
		b := s.queues[wi][0]
		s.queues[wi] = s.queues[wi][1:]
		s.busy[wi] = true
		s.mu.Unlock()

		err := s.runBatch(ctx, wi, b)

		s.mu.Lock()
		s.busy[wi] = false
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
			continue
		}
		if ctx.Err() != nil {
			// The sweep's context died (caller cancellation, or the
			// abort broadcast of an earlier fatal error) — the worker
			// did not fail, so no death, no re-plan, no attempt
			// burned. setFatal is a no-op if a real fatal error (or
			// the cancellation) is already recorded.
			s.setFatal(fmt.Errorf("dist: sweep cancelled: %w", ctx.Err()))
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		b.attempts++
		b.lastErr = fmt.Errorf("worker %s: %w", s.c.Workers[wi], err)
		switch class := classify(err); class {
		case classViolation:
			// The worker is up but wrong: drop it now and bar it from
			// re-admission for the rest of the sweep.
			s.noReadmit[wi] = true
			s.stats.BarredWorkers = append(s.stats.BarredWorkers, s.c.Workers[wi])
			s.failWorker(wi, b, err)
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		case classPermanent:
			// 4xx: every worker would answer the same; retrying anywhere
			// burns budget to learn nothing.
			s.setFatal(fmt.Errorf("dist: %s on worker %s: permanent error: %w",
				b.label(), s.c.Workers[wi], err))
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		// Transient. A replay 404 means the worker restarted or evicted
		// the trace; the retry probes again and re-uploads.
		if b.attempts >= s.c.maxAttempts() {
			s.setFatal(fmt.Errorf("dist: %s failed after %d attempts (attempt budget %d): %w",
				b.label(), b.attempts, s.c.maxAttempts(), b.lastErr))
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		s.breakers[wi].fails++
		if s.breakers[wi].halfOpen || s.breakers[wi].fails >= s.c.breakerThreshold() {
			// Consecutive failures (or any failure while half-open):
			// open the breaker and drop the worker — its batches fail
			// over now, and the prober decides when it may return.
			s.tripBreakerLocked(wi)
			s.failWorker(wi, b, err)
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		// Retry here after backoff. The batch returns to the FRONT of
		// this worker's queue so it keeps its place — and stays visible
		// to the re-admission rebalancer while we sleep.
		s.queues[wi] = append([]*batch{b}, s.queues[wi]...)
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
	}
}

// failWorker (mu held) drops worker wi from the sweep and re-plans its
// current batch plus everything still queued to it onto the surviving
// workers. The caller has already charged the failed attempt to cur's
// budget and set cur.lastErr; batches the worker never started carry
// their counts unchanged. The sweep aborts when no workers remain or a
// batch exhausts its budget — though with re-admission the prober may
// still bring this worker back later.
func (s *sweepState) failWorker(wi int, cur *batch, err error) {
	if s.fatal != nil {
		return
	}
	s.alive[wi] = false
	s.aliveN--
	s.downSince[wi] = time.Now()
	s.stats.DeadWorkers++
	mWorkerDeaths.Inc()
	mWorkersAlive.Dec()
	s.stats.WorkerFailures = append(s.stats.WorkerFailures, cur.lastErr.Error())
	distLog.Warn("worker dropped from sweep",
		"worker", s.c.Workers[wi], "batch", cur.label(),
		"attempts", cur.attempts, "survivors", s.aliveN, "err", err)
	orphans := append([]*batch{cur}, s.queues[wi]...)
	s.queues[wi] = nil
	for _, b := range orphans {
		if b.attempts >= s.c.maxAttempts() {
			s.setFatal(fmt.Errorf("dist: %s failed on %d workers (attempt budget %d): %w",
				b.label(), b.attempts, s.c.maxAttempts(), b.lastErr))
			return
		}
		if s.aliveN == 0 {
			s.setFatal(fmt.Errorf("dist: all %d workers failed: %w", len(s.c.Workers), cur.lastErr))
			return
		}
		// Re-plan onto the least-loaded survivor — an idle worker beats
		// one mid-replay with an empty queue, so the orphan does not
		// queue behind a long replay while capacity sits free.
		target, best := -1, 0
		for w := range s.queues {
			if !s.alive[w] {
				continue
			}
			load := len(s.queues[w])
			if s.busy[w] {
				load++
			}
			if target == -1 || load < best {
				target, best = w, load
			}
		}
		s.queues[target] = append(s.queues[target], b)
		s.stats.Failovers++
		mFailovers.Inc()
		distLog.Info("batch re-planned onto survivor",
			"batch", b.label(), "target", s.c.Workers[target], "attempts", b.attempts)
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
// holds the batch's payload and upload it on a miss (failover re-plans
// and restarted workers land here with the trace absent), then replay
// the shards — each step under its own deadline — and store the
// returned points by shard index.
func (s *sweepState) runBatch(ctx context.Context, wi int, b *batch) error {
	base := s.c.Workers[wi]
	id := b.payload.hash
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
			"worker", base, "key", b.payload.key, "id", id)
	} else {
		uctx, cancel := context.WithTimeout(ctx, s.c.uploadTimeout())
		start := time.Now()
		info, err := s.c.upload(uctx, base, b.payload)
		cancel()
		if err != nil {
			return fmt.Errorf("upload %s: %w", b.payload.key, err)
		}
		mUploadSecs.ObserveSince(start)
		id = info.ID
		s.mu.Lock()
		s.stats.Uploads++
		s.stats.UploadBytes += int64(len(b.payload.wire))
		s.mu.Unlock()
		mUploads.Inc()
		mUploadBytes.Add(uint64(len(b.payload.wire)))
		distLog.Debug("trace uploaded",
			"worker", base, "key", b.payload.key, "id", id, "bytes", len(b.payload.wire))
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

	// Only indices this batch carries may be written: the results
	// slice is shared across workers, so an index echoed back wrong
	// (buggy or stale worker) must be an error — and a failover — not
	// a silent overwrite of another shard's element. Validate the whole
	// response first, then commit under the sweep lock: emitReadyLocked
	// scans results/servedBy from other workers' goroutines, so every
	// write to them must be synchronized.
	mine := make(map[int]bool, len(b.shards))
	for _, sh := range b.shards {
		mine[sh.Index] = true
	}
	for _, res := range resp.Results {
		if !mine[res.Index] {
			return violationf("returned shard index %d it was not assigned", res.Index)
		}
		if len(res.Points) == 0 {
			return violationf("shard %d returned no points", res.Index)
		}
		delete(mine, res.Index)
	}
	if len(mine) > 0 {
		return violationf("response missing %d of %d shards", len(mine), len(b.shards))
	}
	s.mu.Lock()
	for _, res := range resp.Results {
		s.results[res.Index] = res.Points
		s.servedBy[res.Index] = base
		if len(res.Stats) == len(res.Points) {
			s.cellStats[res.Index] = res.Stats
		}
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

// upload ships one payload to a worker.
func (c *Coordinator) upload(ctx context.Context, base string, p *payload) (*TraceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/traces", bytes.NewReader(p.wire))
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
