package dist

// The self-healing layer of the failover scheduler: failure
// classification, per-worker circuit breakers, exponential backoff
// with seeded jitter, the health prober that re-admits recovered
// workers mid-sweep, and the opt-in local fallback that replays
// whatever the fleet could not. coordinator.go owns the plan, the
// batch queue and dispatch; this file owns everything about deciding
// whether and when to try again.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Self-healing metrics, live counterparts of the new SweepStats
// fields. dist_breakers_open is delta-maintained like the other dist
// gauges so concurrent sweeps compose and it reads zero when no sweep
// runs.
var (
	mRetries      = obs.Default().Counter("dist_retries_total")
	mBreakerTrips = obs.Default().Counter("dist_breaker_trips_total")
	mBreakersOpen = obs.Default().Gauge("dist_breakers_open")
	mProbes       = obs.Default().Counter("dist_health_probes_total")
	mReadmissions = obs.Default().Counter("dist_readmissions_total")
	mFallbackSh   = obs.Default().Counter("dist_fallback_shards_total")
)

// errClass sorts a batch failure into what the scheduler should do
// about it.
type errClass int

const (
	// classTransient: timeouts, connection refused/reset, 5xx —
	// retrying the same worker may well succeed. Retried under backoff
	// until the batch budget or the worker's breaker gives out.
	classTransient errClass = iota
	// classPermanent: 4xx validation responses. The request itself is
	// wrong (axes are validated at ingress, so in practice a
	// version-skewed or misconfigured worker); retrying anywhere would
	// return the same answer, so the sweep fails fast with the
	// diagnostic.
	classPermanent
	// classViolation: the worker answered 200 with a protocol-breaking
	// body (foreign shard indices, missing shards, points or stats,
	// empty trace IDs).
	// The worker cannot be trusted; it is dropped immediately and never
	// re-admitted this sweep.
	classViolation
)

func (c errClass) String() string {
	switch c {
	case classPermanent:
		return "permanent"
	case classViolation:
		return "protocol-violation"
	}
	return "transient"
}

// protocolViolation marks a well-formed HTTP exchange whose content
// broke the worker protocol — the one failure shape where the worker
// is up but wrong.
type protocolViolation struct{ msg string }

func (e *protocolViolation) Error() string { return e.msg }

func violationf(format string, args ...any) error {
	return &protocolViolation{msg: fmt.Sprintf(format, args...)}
}

// classify maps a batch error to its class. Anything that is not a
// recognizable 4xx or a protocol violation — transport errors,
// timeouts, severed connections, 5xx, garbage bodies — is transient:
// when in doubt, retry under the budget rather than kill the sweep.
func classify(err error) errClass {
	var pv *protocolViolation
	if errors.As(err, &pv) {
		return classViolation
	}
	var he *httpError
	if errors.As(err, &he) && he.status >= 400 && he.status < 500 {
		switch he.status {
		case http.StatusNotFound:
			// A replay 404 means the worker lost the trace (restarted or
			// evicted) — the retry's probe and re-upload fix it.
			return classTransient
		case http.StatusTooManyRequests, http.StatusRequestTimeout:
			return classTransient
		}
		return classPermanent
	}
	return classTransient
}

// breaker is one worker's consecutive-failure circuit breaker.
// Closed = fails below threshold; open = the worker was dropped (its
// runWorker goroutine exited) and the prober owns it; half-open = just
// re-admitted, where a single further transient failure re-opens it
// instead of burning threshold-many retries on a still-flaky worker.
type breaker struct {
	fails    int  // consecutive transient failures while closed
	opens    int  // times tripped — escalates the re-probe cooldown
	halfOpen bool // re-admitted but not yet proven by a success
}

// Self-healing defaults. Like the deadline accessors, zero values on
// Coordinator mean these.
func (c *Coordinator) retryBaseDelay() time.Duration {
	if c.RetryBaseDelay > 0 {
		return c.RetryBaseDelay
	}
	return 100 * time.Millisecond
}

func (c *Coordinator) retryMaxDelay() time.Duration {
	if c.RetryMaxDelay > 0 {
		return c.RetryMaxDelay
	}
	return 2 * time.Second
}

func (c *Coordinator) breakerThreshold() int {
	if c.BreakerThreshold > 0 {
		return c.BreakerThreshold
	}
	return 2
}

func (c *Coordinator) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 500 * time.Millisecond
}

func (c *Coordinator) probeInterval() time.Duration {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	return 250 * time.Millisecond
}

func (c *Coordinator) probeTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	return 2 * time.Second
}

// backoffLocked (mu held, for the rng) returns the delay before retry
// number `attempt` (1-based: the delay after the attempt'th failure):
// exponential from RetryBaseDelay, capped at RetryMaxDelay, with
// seeded jitter in [0.5, 1)× so identically-configured sweeps are
// reproducible while concurrently-failing batches still decorrelate.
func (s *sweepState) backoffLocked(attempt int) time.Duration {
	d := s.c.retryBaseDelay()
	max := s.c.retryMaxDelay()
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// xorshift64, same generator faultnet uses: cheap, seedable, and
	// plenty for jitter.
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	frac := float64(s.rng>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// sleepCtx sleeps for d, aborting early if ctx dies. Reports whether
// the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// cooldownLocked returns how long worker wi must stay down before the
// prober tries it: the breaker cooldown, doubling with every re-open
// (capped at 30s) so a flapping worker is probed ever less eagerly.
func (s *sweepState) cooldownLocked(wi int) time.Duration {
	d := s.c.breakerCooldown()
	const cap = 30 * time.Second
	for i := 1; i < s.breakers[wi].opens && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// tripBreakerLocked (mu held) opens worker wi's breaker: the caller
// drops the worker right after, and the prober takes over from there.
func (s *sweepState) tripBreakerLocked(wi int) {
	s.breakers[wi].opens++
	s.openN++
	s.stats.BreakerTrips++
	mBreakerTrips.Inc()
	mBreakersOpen.Inc()
	distLog.Warn("circuit breaker opened",
		"worker", s.c.Workers[wi],
		"consecutive_failures", s.breakers[wi].fails,
		"opens", s.breakers[wi].opens)
}

// runProber is the sweep's re-admission loop: while work remains, it
// periodically health-probes dropped workers (past their escalating
// cooldown) and re-admits the ones that answer. Violation-dropped
// workers are never probed — a worker that lied about shard indices
// does not get a second chance inside the same sweep.
func (s *sweepState) runProber(ctx context.Context) {
	defer close(s.proberDone)
	ticker := time.NewTicker(s.c.probeInterval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		if s.fatal != nil || s.pendingN == 0 {
			s.mu.Unlock()
			return
		}
		now := time.Now()
		var todo []int
		for wi := range s.alive {
			if s.alive[wi] || s.noReadmit[wi] {
				continue
			}
			if now.Sub(s.downSince[wi]) < s.cooldownLocked(wi) {
				continue
			}
			todo = append(todo, wi)
		}
		s.mu.Unlock()
		for _, wi := range todo {
			s.mu.Lock()
			s.stats.Probes++
			s.mu.Unlock()
			mProbes.Inc()
			hs, err := s.probeWorker(ctx, wi)
			if err != nil {
				s.mu.Lock()
				s.downSince[wi] = time.Now() // re-arm the cooldown
				s.mu.Unlock()
				distLog.Debug("health probe failed",
					"worker", s.c.Workers[wi], "err", err)
				continue
			}
			s.readmit(wi, hs)
		}
	}
}

// probeWorker is the half-open probe: one GET /v1/healthz under its
// own timeout (cancelled with the sweep context, like every other
// in-flight request).
func (s *sweepState) probeWorker(ctx context.Context, wi int) (*HealthStatus, error) {
	pctx, cancel := context.WithTimeout(ctx, s.c.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.c.Workers[wi]+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	var hs HealthStatus
	if err := s.c.do(req, http.StatusOK, &hs); err != nil {
		return nil, err
	}
	if !hs.OK {
		return nil, fmt.Errorf("worker reports not ok")
	}
	return &hs, nil
}

// readmit brings a probed-healthy worker back into the sweep: move it
// to half-open and restart its goroutine, which takes batches from the
// queue like any other. Its batches probe for their traces as every
// batch does, so a restarted process that lost its store gets them
// re-uploaded. No-ops if the sweep meanwhile finished, failed, or the
// worker is somehow alive.
func (s *sweepState) readmit(wi int, hs *HealthStatus) {
	s.mu.Lock()
	if s.fatal != nil || s.pendingN == 0 || s.alive[wi] {
		s.mu.Unlock()
		return
	}
	s.alive[wi] = true
	s.aliveN++
	s.breakers[wi].fails = 0
	s.breakers[wi].halfOpen = true
	s.openN--
	mBreakersOpen.Dec()
	s.stats.Readmissions++
	mReadmissions.Inc()
	mWorkersAlive.Inc()
	queued := len(s.queue)
	s.running++
	ctx := s.ctx
	s.mu.Unlock()
	distLog.Info("worker re-admitted",
		"worker", s.c.Workers[wi], "traces", hs.Traces,
		"queued_batches", queued, "in_flight_shards", hs.InFlightShards)
	go s.runWorker(ctx, wi, nil)
}

// fallbackLocal replays every batch the fleet never delivered
// in-process, as a worker would: it decodes the batch's trace once and
// replays each of its shards through harness.ReplayL2Cells, the
// workers' own loop, so the output is byte-identical to a local sweep
// and no row is filtered twice. Called after the fleet goroutines have
// joined on a fatal sweep (never on caller cancellation). Returns the
// number of shards recovered, or the decode error.
func (s *sweepState) fallbackLocal(batches []*batch) (int, error) {
	done := 0
	for _, b := range batches {
		if s.servedBy[b.shards[0].Index] != "" {
			continue // delivered: a batch's shards commit together
		}
		lt := &trace.L2Trace{}
		if _, err := lt.ReadFrom(bytes.NewReader(b.wire)); err != nil {
			return done, fmt.Errorf("%s: %w", b.label(), err)
		}
		for _, sh := range b.shards {
			ps := s.plan[sh.Index]
			points, stats := harness.ReplayL2Cells(lt, ps.L2Sizes)
			// The fleet goroutines have joined, but emission keeps the
			// same lock-held discipline so the OnShard ordering
			// invariant has a single owner.
			s.mu.Lock()
			copy(ps.points, points)
			copy(ps.stats, stats)
			s.servedBy[sh.Index] = FallbackWorker
			s.emitReadyLocked()
			s.mu.Unlock()
			done++
			mFallbackSh.Inc()
		}
	}
	s.stats.FallbackShards = done
	return done, nil
}
