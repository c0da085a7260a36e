// Package service is the study front door: an HTTP/JSON API that
// accepts experiment submissions (the same experiment specs mp4study's
// batch manifests use), validates them at the door, schedules them
// through priority admission control, executes them on a bounded
// experiment farm, with the geometry and policy sweeps' rows replayed
// on a dist worker fleet in fleet mode (see runner.go), and serves
// polling, incremental result streaming, and a per-study SSE event
// stream to many concurrent clients.
//
// Each submission becomes one job with its own replay harness.Study, so
// the trace-usage accounting and the shared paper-machine measurements
// are scoped to the request — concurrent clients never race or
// interleave each other's accounting.
//
// API (see README "Study service" for the full contract):
//
//	POST   /v1/studies           submit a StudySpec        → 202 StudyStatus
//	                             (400 unless the body is exactly one
//	                             valid spec, 413 over 1 MiB)
//	GET    /v1/studies           list all jobs             → 200 []StudyStatus
//	GET    /v1/studies/{id}      poll one job              → 200 StudyStatus
//	GET    /v1/studies/{id}/result  stream outputs in order as they
//	                             complete (text/plain, chunked)
//	GET    /v1/studies/{id}/events  SSE event stream: per-shard fleet
//	                             results, per-experiment outputs, one
//	                             terminal done/error event; resumable
//	                             via Last-Event-ID (see events.go)
//	DELETE /v1/studies/{id}      cancel a queued/running job
//	GET    /v1/healthz           liveness, queue depth by priority,
//	                             sessions, fleet worker liveness
//
// Admission control: submissions pass three gates, each rejecting with
// 429 + Retry-After. The per-session token bucket (Config.SessionRate)
// and active-study quota (Config.SessionMaxActive) bound one client;
// the global MaxQueued bound counts running plus queued studies. The
// Server's lock owns scheduling: admitted studies wait in one FIFO lane
// per priority — "interactive" studies always start before "batch" (the
// default) — at most MaxConcurrent simulate at once, and cancelling a
// queued study frees its place at once.
// When Config.AuthToken is set, every study endpoint requires
// `Authorization: Bearer <token>` (healthz/metrics/version stay open
// for load balancers and scrapers).
//
// Client backoff contract: the server signals overload, never hides
// it. When the pending-study queue is full, POST /v1/studies returns
// 429 with a Retry-After header (delay in seconds, from
// Config.RetryAfter); clients should wait at least that long before
// resubmitting, and double the wait on consecutive 429s (the
// internal/dist coordinator treats 429 as transient and retries under
// exponential backoff for exactly this reason). 5xx responses are
// likewise safe to retry with backoff. Transport errors are ambiguous:
// a connection refused or timeout before the request was sent is safe
// to retry, but a connection lost while reading the 202 response means
// the study may already be queued — clients that must not duplicate
// work should GET /v1/studies and reconcile before resubmitting. 4xx
// validation errors are permanent — retrying an invalid spec unchanged
// will never succeed.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/obs"
)

// Study lifecycle metrics. The queued/running gauges move by deltas so
// several Servers in one process (tests, embedded services) compose;
// the outcome counter is one family split by a label, so the terminal
// states sum to submissions that have finished.
var (
	mStudiesSubmitted = obs.Default().Counter("service_studies_submitted_total")
	mStudiesQueued    = obs.Default().Gauge("service_studies_queued")
	mStudiesRunning   = obs.Default().Gauge("service_studies_running")
	mStudiesDone      = obs.Default().Counter(obs.Label("service_studies_finished_total", "outcome", "done"))
	mStudiesFailed    = obs.Default().Counter(obs.Label("service_studies_finished_total", "outcome", "failed"))
	mStudiesCancelled = obs.Default().Counter(obs.Label("service_studies_finished_total", "outcome", "cancelled"))
	mExperimentsDone  = obs.Default().Counter("service_experiments_rendered_total")
	mStudySeconds     = obs.Default().Histogram("service_study_seconds", nil)
)

// Admission and streaming metrics (the acceptance surface of the
// session/admission layer): live sessions, SSE subscribers, queue
// depth by priority, and rejects split by reason.
var (
	mSessionsActive   = obs.Default().Gauge("service_sessions_active")
	mStreamSubs       = obs.Default().Gauge("service_stream_subscribers")
	mQueueInteractive = obs.Default().Gauge(obs.Label("service_queue_depth", "priority", PriorityInteractive))
	mQueueBatch       = obs.Default().Gauge(obs.Label("service_queue_depth", "priority", PriorityBatch))
	mRejectQueueFull  = obs.Default().Counter(obs.Label("service_admission_rejects_total", "reason", "queue_full"))
	mRejectQuota      = obs.Default().Counter(obs.Label("service_admission_rejects_total", "reason", "session_quota"))
	mRejectRate       = obs.Default().Counter(obs.Label("service_admission_rejects_total", "reason", "rate_limit"))
)

var serviceLog = obs.Logger("service")

// StudySpec is one submission: an experiment list plus run settings.
// It is a superset of mp4study's manifest schema, so a manifest file
// can be POSTed unchanged.
type StudySpec struct {
	Frames int `json:"frames,omitempty"`
	// Parallel is accepted for manifest compatibility but ignored: the
	// server owns its farm sizing.
	Parallel    int                      `json:"parallel,omitempty"`
	Experiments []harness.ExperimentSpec `json:"experiments"`
	// Priority places the study in the admission queue: "interactive"
	// studies are always scheduled ahead of "batch" ones (the default
	// when empty) regardless of submission order.
	Priority string `json:"priority,omitempty"`
}

// Priority names, highest first. The admission scheduler starts
// interactive work before batch work whenever a slot frees.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

const priorityLevels = 2

// priorityLevel maps a spec's priority name to its queue level (0 is
// highest). Empty means batch.
func priorityLevel(p string) (int, error) {
	switch p {
	case PriorityInteractive:
		return 0, nil
	case "", PriorityBatch:
		return 1, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want %q or %q)", p, PriorityInteractive, PriorityBatch)
}

func priorityName(level int) string {
	if level == 0 {
		return PriorityInteractive
	}
	return PriorityBatch
}

func queueGauge(level int) interface {
	Inc()
	Dec()
} {
	if level == 0 {
		return mQueueInteractive
	}
	return mQueueBatch
}

// Validate rejects malformed submissions before any simulation work.
func (s StudySpec) Validate() error {
	if len(s.Experiments) == 0 {
		return errors.New("no experiments")
	}
	if s.Frames < 0 || s.Frames > 10000 {
		return fmt.Errorf("frames %d out of range [0, 10000]", s.Frames)
	}
	if _, err := priorityLevel(s.Priority); err != nil {
		return err
	}
	for i, e := range s.Experiments {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("experiment %d: %w", i, err)
		}
	}
	return nil
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// StudyStatus is the poll response for one job.
type StudyStatus struct {
	ID          string             `json:"id"`
	State       string             `json:"state"`
	Submitted   time.Time          `json:"submitted"`
	Started     *time.Time         `json:"started,omitempty"`
	Finished    *time.Time         `json:"finished,omitempty"`
	Done        int                `json:"done"`  // experiments completed
	Total       int                `json:"total"` // experiments submitted
	Error       string             `json:"error,omitempty"`
	Experiments []string           `json:"experiments"`
	Priority    string             `json:"priority,omitempty"`
	Events      int                `json:"events"` // event-log length, for SSE resume
	TraceUsage  harness.TraceUsage `json:"trace_usage"`
}

// job is the server-side state of one submission.
type job struct {
	id   string
	spec StudySpec
	// study scopes the job's strategy, memo, usage and measurements. The
	// run goroutine owns it and, on exit, settles its final usage into
	// usage and drops it (under mu), so the up to MaxHistory retained
	// terminal jobs do not pin their measurement tables.
	study    *harness.Study
	usage    harness.TraceUsage
	ctx      context.Context // the run's context, made at submission
	cancel   context.CancelFunc
	priority int      // queue level
	session  *session // owner, for quota release (nil without middleware)

	mu        sync.Mutex
	updated   chan struct{} // closed and replaced on every state change
	state     string
	submitted time.Time
	started   *time.Time
	finished  *time.Time
	outputs   []string
	done      int
	errMsg    string
	// events is the append-only SSE log (see events.go); eventsDone
	// seals it after the terminal event.
	events     []StudyEvent
	eventsDone bool
}

func (j *job) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

func (j *job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateCancelled && state != StateCancelled {
		return // cancellation wins
	}
	j.state = state
	now := time.Now()
	switch state {
	case StateRunning:
		j.started = &now
	case StateDone, StateFailed, StateCancelled:
		j.finished = &now
	}
	if state == StateDone {
		j.appendEventLocked(StudyEvent{Type: EventDone, State: StateDone})
	}
	j.notifyLocked()
}

func (j *job) setOutput(i int, out string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.outputs[i] = out
	j.done = i + 1
	j.appendEventLocked(StudyEvent{
		Type:            EventExperiment,
		Experiment:      j.spec.Experiments[i].Label(),
		ExperimentIndex: i,
		Output:          out,
	})
	j.notifyLocked()
}

func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateCancelled {
		return
	}
	j.state = StateFailed
	j.errMsg = err.Error()
	now := time.Now()
	j.finished = &now
	j.appendEventLocked(StudyEvent{Type: EventError, State: StateFailed, Error: j.errMsg})
	j.notifyLocked()
}

// retireStudy stores the study's final usage and drops the study. The
// run goroutine calls it as it exits, after the job turned terminal:
// nothing adds to the usage from then on.
func (j *job) retireStudy() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.usage = j.study.Usage()
	j.study = nil
}

func (j *job) status() StudyStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	usage := j.usage
	if j.study != nil {
		usage = j.study.Usage()
	}
	st := StudyStatus{
		ID:         j.id,
		State:      j.state,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
		Done:       j.done,
		Total:      len(j.spec.Experiments),
		Error:      j.errMsg,
		Priority:   priorityName(j.priority),
		Events:     len(j.events),
		TraceUsage: usage,
	}
	for _, e := range j.spec.Experiments {
		st.Experiments = append(st.Experiments, e.Label())
	}
	return st
}

// Config parameterizes a Server.
type Config struct {
	// Workers sizes the farm pool experiments fan out on. <= 0 means
	// GOMAXPROCS.
	Workers int
	// MaxConcurrent bounds the studies simulating at once; further
	// submissions queue. <= 0 means 2.
	MaxConcurrent int
	// MaxQueued bounds accepted-but-unfinished studies; beyond it,
	// submissions are rejected with 429. <= 0 means 64.
	MaxQueued int
	// MaxHistory bounds retained terminal (done/failed/cancelled)
	// studies; the oldest beyond it are dropped — their status and
	// outputs become 404 — so a long-lived server does not grow
	// without bound. <= 0 means 256.
	MaxHistory int
	// RetryAfter is the delay advertised in the Retry-After header of
	// 429 queue-full responses. <= 0 means 5s.
	RetryAfter time.Duration

	// Fleet, when non-nil, replays the rows of geometry/policy sweeps
	// on the dist worker fleet instead of the in-process farm, with the
	// coordinator's full self-healing machinery (see runner.go).
	// Everything else still runs locally.
	Fleet *FleetConfig
	// MemoDir persists the server's result memo to a directory, so
	// memoized cells survive restarts (mp4served -memo-dir). Empty
	// keeps the memo in memory only.
	MemoDir string
	// DisableMemo turns result memoization off entirely. By default
	// every study shares one server-wide memo — resubmitting a study
	// (or sweeping a superset of an earlier one) replays only cells no
	// study has simulated before, with byte-identical output.
	DisableMemo bool
	// Heartbeat paces SSE keep-alive comments on the events stream.
	// <= 0 means 15s.
	Heartbeat time.Duration
	// AuthToken, when non-empty, requires `Authorization: Bearer
	// <token>` on every study endpoint (healthz/metrics/version stay
	// open).
	AuthToken string
	// SessionMaxActive bounds one session's queued+running studies;
	// beyond it, submissions get 429. <= 0 means 16.
	SessionMaxActive int
	// SessionRate and SessionBurst token-bucket study submissions per
	// session (submissions/second; bucket depth). Rate <= 0 disables
	// rate limiting; Burst <= 0 means ceil(rate), at least 1.
	SessionRate  float64
	SessionBurst int
	// SessionTTL prunes sessions idle (and empty) this long.
	// <= 0 means 1h.
	SessionTTL time.Duration
	// MaxSessions bounds the session table; at the bound, requests
	// from new identities get 429 until idle sessions expire.
	// <= 0 means 1024.
	MaxSessions int
}

// Server executes study submissions through priority admission onto a
// bounded farm pool or worker fleet. Create with New, mount via
// Handler, stop with Shutdown.
type Server struct {
	cfg  Config
	pool *farm.Pool
	// render renders one experiment of a study, feeding the study's
	// events to sink: harness.RenderExperiment, on the fleet's row
	// replayer in fleet mode. Scheduling tests swap it out.
	render func(ctx context.Context, e harness.ExperimentSpec, frames int, sink EventSink) (string, error)
	fleet  *fleetMonitor // nil without Config.Fleet
	memo   *memo.Cache   // shared across studies; nil when disabled
	base   context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	closed bool
	// lanes holds the queued studies, one FIFO per priority level
	// (interactive first); running counts the studies started and not
	// yet finished. Together they are the admission count.
	lanes   [priorityLevels][]*job
	running int
	wg      sync.WaitGroup

	sessMu        sync.Mutex
	sessions      map[string]*session
	lastSessPrune time.Time
}

// New builds a Server from cfg and, with Config.Fleet, starts the fleet
// liveness monitor.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	if cfg.MaxHistory <= 0 {
		cfg.MaxHistory = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	if cfg.SessionMaxActive <= 0 {
		cfg.SessionMaxActive = 16
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Hour
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		pool:     farm.New(farm.Config{Workers: cfg.Workers}),
		base:     base,
		cancel:   cancel,
		jobs:     map[string]*job{},
		sessions: map[string]*session{},
	}
	if cfg.Fleet != nil {
		s.fleet = newFleetMonitor(*cfg.Fleet)
		go s.fleet.run(base)
	}
	s.render = func(ctx context.Context, e harness.ExperimentSpec, frames int, sink EventSink) (string, error) {
		if s.fleet != nil {
			ctx = harness.WithRowReplayer(ctx, s.fleet.replayer(sink))
		}
		return harness.RenderExperiment(ctx, s.pool, e, frames)
	}
	if !cfg.DisableMemo {
		mc, err := memo.New(memo.Config{Version: harness.CodeVersion, Dir: cfg.MemoDir})
		if err != nil {
			// The memo is an optimization: a bad directory degrades to
			// uncached studies, never to a server that will not start.
			serviceLog.Warn("result memo disabled", "err", err)
		} else {
			s.memo = mc
		}
	}
	return s
}

func (s *Server) heartbeat() time.Duration {
	if s.cfg.Heartbeat > 0 {
		return s.cfg.Heartbeat
	}
	return 15 * time.Second
}

// retryAfterSecs is Config.RetryAfter as a Retry-After header value,
// rounded up to whole seconds.
func (s *Server) retryAfterSecs() string {
	return strconv.Itoa(int((s.cfg.RetryAfter + time.Second - 1) / time.Second))
}

// scheduleLocked starts queued studies while fewer than MaxConcurrent
// run: the interactive lane drains before the batch lane, each in
// submission order. It runs after every submission and every finished
// study. Caller holds s.mu.
func (s *Server) scheduleLocked() {
	for level := 0; level < priorityLevels && s.running < s.cfg.MaxConcurrent; {
		if len(s.lanes[level]) == 0 {
			level++
			continue
		}
		j := s.lanes[level][0]
		s.dequeueLocked(j)
		s.running++
		mStudiesRunning.Inc()
		go s.run(j)
	}
}

// queuedLocked counts the queued studies. Caller holds s.mu.
func (s *Server) queuedLocked() int {
	n := 0
	for _, lane := range s.lanes {
		n += len(lane)
	}
	return n
}

// dequeueLocked takes j out of its lane, reporting whether it was
// still queued. Caller holds s.mu.
func (s *Server) dequeueLocked(j *job) bool {
	i := slices.Index(s.lanes[j.priority], j)
	if i < 0 {
		return false
	}
	s.lanes[j.priority] = slices.Delete(s.lanes[j.priority], i, i+1)
	queueGauge(j.priority).Dec()
	mStudiesQueued.Dec()
	return true
}

// abandonLocked finishes a study taken out of its lane before it ran.
// Caller holds s.mu.
func (s *Server) abandonLocked(j *job) {
	mStudiesCancelled.Inc()
	j.fail(errors.New("cancelled while queued")) // no-op after a client cancel
	j.cancel()
	s.releaseSession(j)
	j.retireStudy()
	s.wg.Done()
}

// Handler returns the HTTP handler for the service API, wrapped in
// the composable middleware chain: request logging and per-route
// metrics outermost (rejects are observable too), then bearer-token
// auth, then session resolution + per-session rate limiting. The
// process metrics registry is at /v1/metrics (Prometheus text, or
// JSON by content negotiation), the build identity at /v1/version.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleSubmit)
	mux.HandleFunc("GET /v1/studies", s.handleList)
	mux.HandleFunc("GET /v1/studies/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/studies/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/studies/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/studies/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.Handle("GET /v1/metrics", obs.Default().Handler())
	mux.Handle("GET /v1/version", obs.VersionHandler())
	return obs.Chain(mux,
		obs.RequestLog(serviceLog),
		obs.HTTPMetrics("service", nil),
		s.authMiddleware,
		s.sessionMiddleware,
	)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxSpecBytes caps a submission body; a larger body is a 413.
const maxSpecBytes = 1 << 20

// decodeStudySpec decodes the one StudySpec r holds. Unknown fields and
// anything but whitespace after the value are errors; a read error
// such as *http.MaxBytesError comes back wrapped.
func decodeStudySpec(r io.Reader) (StudySpec, error) {
	var spec StudySpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return StudySpec{}, err
	}
	var extra json.RawMessage
	switch err := dec.Decode(&extra); {
	case err == io.EOF:
		return spec, nil
	case err == nil:
		return StudySpec{}, errors.New("data after the JSON value")
	default:
		return StudySpec{}, fmt.Errorf("data after the JSON value: %w", err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeStudySpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "study spec exceeds %d bytes", maxSpecBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid study spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid study spec: %v", err)
		return
	}

	level, _ := priorityLevel(spec.Priority) // Validate vetted it
	study := harness.NewStudy(true)
	study.SetMemo(s.memo) // shared server memo; nil when disabled
	j := &job{
		spec:      spec,
		study:     study,
		state:     StateQueued,
		submitted: time.Now(),
		updated:   make(chan struct{}),
		outputs:   make([]string, len(spec.Experiments)),
		priority:  level,
	}

	// Per-session quota: the claim is atomic with the check, and every
	// rejection below must release it. The session is re-resolved here
	// rather than carried in the context — see sessionMiddleware.
	if ss, ok := s.resolveSession(r); ok && ss != nil {
		if !ss.tryAcquire(s.cfg.SessionMaxActive) {
			mRejectQuota.Inc()
			w.Header().Set("Retry-After", s.retryAfterSecs())
			writeError(w, http.StatusTooManyRequests,
				"session %q at its active-study quota (%d)", ss.id, s.cfg.SessionMaxActive)
			return
		}
		j.session = ss
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.releaseSession(j)
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.pruneLocked()
	// The rejection is part of the client backoff contract (see package
	// doc): tell the client when resubmitting is worth trying.
	if active := s.running + s.queuedLocked(); active >= s.cfg.MaxQueued {
		s.mu.Unlock()
		s.releaseSession(j)
		mRejectQueueFull.Inc()
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeError(w, http.StatusTooManyRequests, "queue full (%d studies pending)", active)
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("study-%04d", s.nextID)
	j.ctx, j.cancel = context.WithCancel(s.base)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.wg.Add(1)
	s.lanes[level] = append(s.lanes[level], j)
	queueGauge(level).Inc()
	mStudiesSubmitted.Inc()
	mStudiesQueued.Inc()
	serviceLog.Info("study submitted",
		"id", j.id, "experiments", len(spec.Experiments), "frames", spec.Frames,
		"priority", priorityName(level))
	s.scheduleLocked()
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, j.status())
}

// releaseSession returns the job's quota claim to its session.
func (s *Server) releaseSession(j *job) {
	if j.session != nil {
		j.session.release()
	}
}

// run executes one started job: harness.RunExperiments renders the
// experiments in order (render), publishing outputs and events as they
// complete; then the job hands its place to the next queued study.
func (s *Server) run(j *job) {
	defer s.wg.Done()
	defer j.cancel()
	defer s.releaseSession(j)
	defer j.retireStudy()
	defer func() {
		s.mu.Lock()
		s.running--
		mStudiesRunning.Dec()
		s.scheduleLocked()
		s.mu.Unlock()
	}()
	start := time.Now()
	j.setState(StateRunning)
	serviceLog.Info("study started", "id", j.id,
		"experiments", len(j.spec.Experiments), "priority", priorityName(j.priority))
	ctx := harness.WithStudy(j.ctx, j.study)
	err := harness.RunExperiments(ctx, s.pool, j.spec.Experiments, j.spec.Frames,
		func(ctx context.Context, i int, e harness.ExperimentSpec) (string, error) {
			return s.render(ctx, e, j.spec.Frames, j.sinkFor(i, e.Label()))
		},
		func(i int, out string) {
			mExperimentsDone.Inc()
			j.setOutput(i, out)
		})
	if err != nil {
		if ctx.Err() != nil {
			mStudiesCancelled.Inc()
			serviceLog.Info("study cancelled", "id", j.id, "err", err)
		} else {
			mStudiesFailed.Inc()
			serviceLog.Warn("study failed", "id", j.id, "err", err)
		}
		j.fail(err)
		return
	}
	mStudiesDone.Inc()
	mStudySeconds.ObserveSince(start)
	serviceLog.Info("study done", "id", j.id, "elapsed", time.Since(start))
	j.setState(StateDone)
}

// pruneLocked drops the oldest terminal jobs beyond MaxHistory so a
// long-lived server's job table stays bounded. Caller holds s.mu.
func (s *Server) pruneLocked() {
	terminal := 0
	for _, id := range s.order {
		switch s.jobs[id].status().State {
		case StateDone, StateFailed, StateCancelled:
			terminal++
		}
	}
	if terminal <= s.cfg.MaxHistory {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		st := s.jobs[id].status().State
		isTerminal := st == StateDone || st == StateFailed || st == StateCancelled
		if isTerminal && terminal > s.cfg.MaxHistory {
			delete(s.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no study %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]StudyStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleResult streams the job's outputs in experiment order, flushing
// each as it completes — a client can follow a long study live. If the
// study fails or is cancelled mid-stream, a final diagnostic line ends
// the body (the HTTP status is already committed by then; poll
// /v1/studies/{id} for machine-readable state).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	for i := 0; ; {
		j.mu.Lock()
		state, done, errMsg := j.state, j.done, j.errMsg
		var pending []string
		for ; i < done; i++ {
			pending = append(pending, j.outputs[i])
		}
		updated := j.updated
		j.mu.Unlock()

		for _, out := range pending {
			io.WriteString(w, out)
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		switch state {
		case StateDone:
			if i >= done {
				return
			}
		case StateFailed, StateCancelled:
			fmt.Fprintf(w, "study %s: %s\n", state, errMsg)
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	j.mu.Lock()
	terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
	if !terminal {
		j.state = StateCancelled
		j.errMsg = "cancelled by client"
		now := time.Now()
		j.finished = &now
		j.appendEventLocked(StudyEvent{Type: EventError, State: StateCancelled, Error: j.errMsg})
		j.notifyLocked()
	}
	j.mu.Unlock()
	if !terminal && s.dequeueLocked(j) {
		s.abandonLocked(j)
	}
	s.mu.Unlock()
	if !terminal {
		j.cancel()
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleHealth reports liveness plus what a load balancer needs to
// drain intelligently: study gauges, queue depth by priority, session
// count, and — with a fleet configured — worker liveness split into
// alive/dead/barred.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := map[string]int{}
	for level, lane := range s.lanes {
		depth[priorityName(level)] = len(lane)
	}
	queued, running, closed := s.queuedLocked(), s.running, s.closed
	s.mu.Unlock()
	body := map[string]any{
		"ok":          !closed,
		"queued":      queued,
		"running":     running,
		"workers":     s.pool.Workers(),
		"shutdown":    closed,
		"version":     obs.Version(),
		"queue_depth": depth,
		"sessions":    s.sessionCount(),
	}
	if s.fleet != nil {
		alive, dead, barred := s.fleet.snapshot()
		body["fleet"] = map[string]any{
			"workers": len(s.cfg.Fleet.Workers),
			"alive":   alive,
			"dead":    dead,
			"barred":  barred,
		}
	}
	if s.memo != nil {
		c := s.memo.Counters()
		body["memo"] = map[string]any{
			"entries":   s.memo.Len(),
			"hits":      c.Hits,
			"misses":    c.Misses,
			"evictions": c.Evictions,
			"hit_rate":  c.HitRate(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// Shutdown stops the server gracefully: new submissions are rejected
// immediately, running and queued studies get until ctx's deadline to
// finish, then everything still in flight is cancelled. It returns nil
// if all work drained, or ctx's error if the deadline forced
// cancellation.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.cancel() // stop the fleet monitor
		return nil
	case <-ctx.Done():
		// Empty the lanes first, so no running study's exit starts a
		// queued one only to cancel it.
		s.mu.Lock()
		for level := range s.lanes {
			for len(s.lanes[level]) > 0 {
				j := s.lanes[level][0]
				s.dequeueLocked(j)
				s.abandonLocked(j)
			}
		}
		s.mu.Unlock()
		s.cancel() // cancel every running study
		<-drained
		return ctx.Err()
	}
}
