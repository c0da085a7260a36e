package service

// The Runner seam: the service renders experiments through an
// interface, not a hard-wired call, so execution is pluggable. Two
// implementations exist — the in-process farm path the service always
// had, and the fleet path that fans replayed geometry/policy sweeps
// out to dist workers with the coordinator's full self-healing
// machinery (retries, breakers, re-admission, optional local
// fallback). Both produce byte-identical reports for the same spec;
// the fleet path additionally streams per-shard results into the
// study's event log as they complete.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/obs"
)

// EventSink receives a study's progress events. Runners may call it
// from internal goroutines; it is never nil and must be cheap (the
// service's sink appends to a buffered per-job log).
type EventSink func(StudyEvent)

// Runner renders one experiment. Implementations must return the same
// bytes for the same (spec, frames) — the execution backend is an
// operational choice, never an output one.
type Runner interface {
	Render(ctx context.Context, pool *farm.Pool, e harness.ExperimentSpec, frames int, sink EventSink) (string, error)
}

// localRunner is the in-process path: harness.RenderExperiment on the
// shared farm pool. It emits no shard events — the farm's fan-out is
// internal to the experiment.
type localRunner struct{}

func (localRunner) Render(ctx context.Context, pool *farm.Pool, e harness.ExperimentSpec, frames int, _ EventSink) (string, error) {
	return harness.RenderExperiment(ctx, pool, e, frames)
}

// FleetConfig points the service at a dist worker fleet. Zero-valued
// tuning fields inherit the dist.Coordinator defaults.
type FleetConfig struct {
	// Workers are the mp4worker base URLs. At least one is required.
	Workers []string
	// Client overrides the coordinator's HTTP client (fault-injection
	// tests; custom timeouts).
	Client *http.Client
	// Coordinator tuning, forwarded verbatim (see dist.Coordinator).
	UploadTimeout, ReplayTimeout  time.Duration
	MaxAttempts                   int
	RetryBaseDelay, RetryMaxDelay time.Duration
	BreakerThreshold              int
	BreakerCooldown               time.Duration
	ProbeInterval, ProbeTimeout   time.Duration
	// FallbackLocal rescues shards the fleet cannot deliver by
	// replaying them in-process — a study then degrades to local speed
	// instead of failing.
	FallbackLocal bool
	// Seed drives the coordinator's retry jitter.
	Seed uint64
	// HealthInterval paces the service's fleet liveness monitor (the
	// healthz alive/dead report). <= 0 means 15s.
	HealthInterval time.Duration
}

// coordinator builds a fresh Coordinator per sweep: coordinators carry
// per-sweep callback state (OnShard), so they are never shared.
func (fc *FleetConfig) coordinator() *dist.Coordinator {
	return &dist.Coordinator{
		Workers:          append([]string(nil), fc.Workers...),
		Client:           fc.Client,
		UploadTimeout:    fc.UploadTimeout,
		ReplayTimeout:    fc.ReplayTimeout,
		MaxAttempts:      fc.MaxAttempts,
		RetryBaseDelay:   fc.RetryBaseDelay,
		RetryMaxDelay:    fc.RetryMaxDelay,
		BreakerThreshold: fc.BreakerThreshold,
		BreakerCooldown:  fc.BreakerCooldown,
		ProbeInterval:    fc.ProbeInterval,
		ProbeTimeout:     fc.ProbeTimeout,
		FallbackLocal:    fc.FallbackLocal,
		Seed:             fc.Seed,
	}
}

func (fc *FleetConfig) healthInterval() time.Duration {
	if fc.HealthInterval > 0 {
		return fc.HealthInterval
	}
	return 15 * time.Second
}

// fleetRunner fans geometry/policy sweeps out to the worker fleet;
// every other experiment shape (tables, figures, ablations) delegates
// to the local path unchanged. The
// report is assembled with the same SweepTitle/GeometrySweepReport
// seam renderSweep uses, over points merged in the same shard order,
// so fleet output is byte-identical to local output.
type fleetRunner struct {
	cfg     FleetConfig
	local   localRunner
	monitor *fleetMonitor // nil-safe stats hook
}

func (f *fleetRunner) Render(ctx context.Context, pool *farm.Pool, e harness.ExperimentSpec, frames int, sink EventSink) (string, error) {
	if !e.ReplaysCapture() {
		return f.local.Render(ctx, pool, e, frames, sink)
	}
	l1s, l2Sizes, err := e.SweepAxes()
	if err != nil {
		return "", err
	}
	coord := f.cfg.coordinator()
	// The study's memo (the server-wide one, attached at submission)
	// rides into the coordinator: memo-covered cells never dispatch,
	// and every replayed cell is memoized for the next study. Shard
	// events for memo-served cells carry Worker == dist.MemoWorker.
	coord.Memo = harness.StudyFrom(ctx).Memo()
	coord.OnShard = func(ev dist.ShardEvent) {
		sink(StudyEvent{Type: EventShard, Shard: &ShardProgress{
			Index:  ev.Shard.Index,
			Worker: ev.Worker,
			Done:   ev.Done,
			Total:  ev.Total,
			Points: ev.Points,
		}})
	}
	// The same workload renderSweep simulates (CIF), so the fleet and
	// local paths replay the identical capture.
	wl := harness.Workload{W: 352, H: 288, Frames: frames}
	points, stats, err := coord.GeometrySweepWithStats(ctx, wl, l1s, l2Sizes)
	f.monitor.record(stats)
	if err != nil {
		return "", fmt.Errorf("fleet sweep: %w", err)
	}
	harness.StudyFrom(ctx).CountMemo(uint64(stats.MemoHits), uint64(stats.MemoMisses))
	return harness.GeometrySweepReport(harness.SweepTitle(e.Sweep, true), points), nil
}

// Fleet liveness gauge, delta-maintained like every service gauge so
// concurrent Servers compose.
var mFleetAlive = obs.Default().Gauge("service_fleet_workers_alive")

// fleetMonitor tracks worker liveness for healthz: a background loop
// probes each worker's /v1/healthz on HealthInterval, and sweep stats
// flowing back through the runner mark protocol violators barred.
type fleetMonitor struct {
	cfg    FleetConfig
	client *http.Client

	mu     sync.Mutex
	alive  map[string]bool
	barred map[string]bool
	aliveN int // last gauge contribution
}

func newFleetMonitor(cfg FleetConfig) *fleetMonitor {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	return &fleetMonitor{
		cfg:    cfg,
		client: client,
		alive:  map[string]bool{},
		barred: map[string]bool{},
	}
}

// run probes until ctx dies, then returns the gauge contribution.
func (m *fleetMonitor) run(ctx context.Context) {
	m.probeAll(ctx)
	ticker := time.NewTicker(m.cfg.healthInterval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			m.mu.Lock()
			mFleetAlive.Add(-int64(m.aliveN))
			m.aliveN = 0
			m.mu.Unlock()
			return
		case <-ticker.C:
			m.probeAll(ctx)
		}
	}
}

func (m *fleetMonitor) probeAll(ctx context.Context) {
	results := make([]bool, len(m.cfg.Workers))
	var wg sync.WaitGroup
	for i, base := range m.cfg.Workers {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/v1/healthz", nil)
			if err != nil {
				return
			}
			resp, err := m.client.Do(req)
			if err != nil {
				return
			}
			resp.Body.Close()
			results[i] = resp.StatusCode == http.StatusOK
		}(i, base)
	}
	wg.Wait()
	m.mu.Lock()
	aliveN := 0
	for i, base := range m.cfg.Workers {
		m.alive[base] = results[i]
		if results[i] {
			aliveN++
		}
	}
	mFleetAlive.Add(int64(aliveN - m.aliveN))
	m.aliveN = aliveN
	m.mu.Unlock()
}

// record folds one sweep's stats into the liveness picture. Nil-safe:
// a fleetRunner without a monitor (tests) records nowhere.
func (m *fleetMonitor) record(stats dist.SweepStats) {
	if m == nil {
		return
	}
	m.mu.Lock()
	for _, w := range stats.BarredWorkers {
		m.barred[w] = true
	}
	m.mu.Unlock()
}

// snapshot returns worker URLs by current liveness. Barred workers are
// reported separately (and excluded from dead) — they answered probes
// but broke the protocol, which drains differently than a crash.
func (m *fleetMonitor) snapshot() (alive, dead, barred []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, base := range m.cfg.Workers {
		switch {
		case m.barred[base]:
			barred = append(barred, base)
		case m.alive[base]:
			alive = append(alive, base)
		default:
			dead = append(dead, base)
		}
	}
	return alive, dead, barred
}
