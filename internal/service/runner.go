package service

// Fleet mode: with Config.Fleet, every study renders its experiments
// through harness.RenderExperiment exactly as the local path does, on
// a context whose row replayer (harness.WithRowReplayer) is a fresh
// dist.Coordinator per experiment. The geometry and policy sweeps then
// replay their rows on the worker fleet, with the coordinator's full
// self-healing machinery (retries, breakers, re-admission, optional
// local fallback), and stream one shard event per row into the study's
// event log; every other experiment never asks for a replayer. Output
// is byte-identical either way. This file also holds the fleet
// liveness monitor behind /v1/healthz.

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/obs"
)

// EventSink receives a study's progress events. The fleet's row
// replayer calls it from internal goroutines; it is never nil and must
// be cheap (the service's sink appends to a buffered per-job log).
type EventSink func(StudyEvent)

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

// coordinator builds a fresh Coordinator per experiment: coordinators
// carry per-experiment callback state (OnShard), so they are never
// shared.
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

// Fleet liveness gauge, delta-maintained like every service gauge so
// concurrent Servers compose.
var mFleetAlive = obs.Default().Gauge("service_fleet_workers_alive")

// fleetMonitor tracks worker liveness for healthz: a background loop
// probes each worker's /v1/healthz on HealthInterval, and the stats of
// the sweeps its replayers run mark protocol violators barred.
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

// replayer returns the row replayer of one experiment: a fresh
// coordinator over the fleet whose rows stream to sink as shard events
// (Worker dist.MemoWorker for a row the memo served) and whose sweep
// stats go to record.
func (m *fleetMonitor) replayer(sink EventSink) harness.RowReplayer {
	coord := m.cfg.coordinator()
	coord.OnShard = func(ev dist.ShardEvent) {
		sink(StudyEvent{Type: EventShard, Shard: &ShardProgress{
			Index:  ev.Shard.Index,
			Worker: ev.Worker,
			Done:   ev.Done,
			Total:  ev.Total,
			Points: ev.Points,
		}})
	}
	return coord.Replayer(m.record)
}

// record folds one sweep's stats into the liveness picture.
func (m *fleetMonitor) record(stats dist.SweepStats) {
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
