package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Worker-side metrics: resident-store pressure and the replay work a
// worker actually serves. The HTTP layer (request counts, per-route
// latency, in-flight) comes from the obs middleware the Handler mounts.
var (
	mTracesResident = obs.Default().Gauge("worker_traces_resident")
	mStoreBytes     = obs.Default().Gauge("worker_trace_store_bytes")
	mUploadsDeduped = obs.Default().Counter("worker_upload_dedup_total")
	mStoreEvictions = obs.Default().Counter("worker_store_evictions_total")
	mShardsServed   = obs.Default().Counter("worker_shards_replayed_total")
	mReplayCalls    = obs.Default().Counter("worker_replay_calls_total")
	mWorkerReplayS  = obs.Default().Histogram("worker_replay_seconds", nil)
)

var workerLog = obs.Logger("worker")

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Workers sizes the farm pool shards execute on. <= 0 means
	// GOMAXPROCS.
	Workers int
	// MaxTraces bounds resident uploaded traces. <= 0 means 8.
	MaxTraces int
	// MaxTraceBytes bounds one upload's wire size; a larger upload is
	// a 413. <= 0 means 1 GiB.
	MaxTraceBytes int64
	// MaxStoreBytes bounds the resident store's total wire bytes. <= 0
	// means unbounded.
	//
	// The worker enforces both store bounds itself: an upload that would
	// cross either evicts least-recently-used traces (uploads, HEAD
	// probes and replays refresh recency) until it fits, and only a
	// single trace larger than MaxStoreBytes is refused (507). A
	// coordinator that still needed an evicted trace sees a replay 404;
	// its retry probes and re-uploads, as after a worker restart.
	MaxStoreBytes int64
}

// storedTrace is one resident L1-filtered trace. The store is keyed by
// content hash, so a trace has one identity everywhere and re-uploads
// dedupe for free.
type storedTrace struct {
	l2      *trace.L2Trace
	bytes   int64
	lastUse uint64 // logical clock tick of the last touch, for LRU
}

func (st *storedTrace) info(id string) TraceInfo {
	return TraceInfo{ID: id, Kind: KindL2Trace, Records: st.l2.Events(), Bytes: st.bytes}
}

// Worker executes replay shards against uploaded traces. Mount its
// Handler on any HTTP server (cmd/mp4worker is the standalone binary).
type Worker struct {
	cfg  WorkerConfig
	pool *farm.Pool

	// inFlight counts shards currently replaying, reported by
	// /v1/healthz so a coordinator probing for re-admission sees load
	// alongside liveness.
	inFlight atomic.Int64

	mu         sync.Mutex
	traces     map[string]*storedTrace // content hash → trace
	storeBytes int64
	clock      uint64
}

// NewWorker builds a Worker from cfg.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 8
	}
	if cfg.MaxTraceBytes <= 0 {
		cfg.MaxTraceBytes = 1 << 30
	}
	return &Worker{
		cfg:    cfg,
		pool:   farm.New(farm.Config{Workers: cfg.Workers}),
		traces: map[string]*storedTrace{},
	}
}

// touchLocked refreshes st's LRU recency. Callers hold w.mu.
func (w *Worker) touchLocked(st *storedTrace) {
	w.clock++
	st.lastUse = w.clock
}

// dropLocked removes id from the store and settles the accounting.
// Callers hold w.mu. In-flight replays keep their *storedTrace alive.
func (w *Worker) dropLocked(id string) {
	st, ok := w.traces[id]
	if !ok {
		return
	}
	delete(w.traces, id)
	w.storeBytes -= st.bytes
	mTracesResident.Dec()
	mStoreBytes.Add(-st.bytes)
}

// evictForLocked frees LRU traces until one more trace of n bytes fits
// under MaxTraces and MaxStoreBytes. Reports whether the upload can
// proceed (a single trace larger than the whole byte bound cannot).
// Callers hold w.mu.
func (w *Worker) evictForLocked(n int64) bool {
	byteBound := w.cfg.MaxStoreBytes > 0
	if byteBound && n > w.cfg.MaxStoreBytes {
		return false
	}
	for len(w.traces) >= w.cfg.MaxTraces || byteBound && w.storeBytes+n > w.cfg.MaxStoreBytes {
		victim, oldest := "", uint64(0)
		for id, st := range w.traces {
			if victim == "" || st.lastUse < oldest {
				victim, oldest = id, st.lastUse
			}
		}
		if victim == "" {
			return false
		}
		workerLog.Debug("trace evicted (store bound)", "id", victim)
		w.dropLocked(victim)
		mStoreEvictions.Inc()
	}
	return true
}

// Handler returns the worker protocol handler, wrapped in the obs
// middleware chain (request logging, in-flight gauge, per-route
// latency) and exposing the process metrics registry at /v1/metrics
// (Prometheus text, or JSON by content negotiation) plus the build
// identity at /v1/version.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", w.handleUpload)
	mux.HandleFunc("HEAD /v1/traces/{id}", w.handleExists)
	mux.HandleFunc("POST /v1/replay", w.handleReplay)
	mux.HandleFunc("GET /v1/healthz", w.handleHealth)
	mux.Handle("GET /v1/metrics", obs.Default().Handler())
	mux.Handle("GET /v1/version", obs.VersionHandler())
	return obs.Chain(mux,
		obs.RequestLog(workerLog),
		obs.HTTPMetrics("worker", nil),
	)
}

func (w *Worker) writeError(rw http.ResponseWriter, code int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleUpload decodes an M4L2 trace body and stores it for replay
// under its content hash. Any Content-Type but application/x-m4l2
// (MIME types are case-insensitive; parameters are ignored) is a 415,
// answered before a byte is decoded. The decoder validates everything
// (including the hash trailer when present): corrupt input is a 400, a
// body over MaxTraceBytes a 413. Uploading a hash that is already
// resident is not an error and not a second copy: the existing trace's
// info is returned, whatever name the bytes arrived under before.
// Eviction waits until after decoding: bytes that dedupe against a
// resident trace evict nothing.
func (w *Worker) handleUpload(rw http.ResponseWriter, r *http.Request) {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if !strings.EqualFold(strings.TrimSpace(ct), ContentTypeL2Trace) {
		w.writeError(rw, http.StatusUnsupportedMediaType,
			"trace upload: Content-Type %q, want %s", ct, ContentTypeL2Trace)
		return
	}
	lt := &trace.L2Trace{}
	n, err := lt.ReadFrom(http.MaxBytesReader(rw, r.Body, w.cfg.MaxTraceBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			w.writeError(rw, http.StatusRequestEntityTooLarge, "trace exceeds %d bytes", w.cfg.MaxTraceBytes)
		case errors.Is(err, trace.ErrBadFormat):
			w.writeError(rw, http.StatusBadRequest, "trace upload: %v", err)
		default:
			w.writeError(rw, http.StatusInternalServerError, "trace upload: %v", err)
		}
		return
	}
	st := &storedTrace{l2: lt, bytes: n}
	id := lt.Hash().String()

	w.mu.Lock()
	if prev, ok := w.traces[id]; ok {
		w.touchLocked(prev)
		info := prev.info(id)
		w.mu.Unlock()
		mUploadsDeduped.Inc()
		workerLog.Debug("trace upload deduped", "id", id)
		w.writeCreated(rw, info)
		return
	}
	if !w.evictForLocked(st.bytes) {
		w.mu.Unlock()
		w.writeError(rw, http.StatusInsufficientStorage,
			"trace of %d bytes exceeds the %d-byte store", st.bytes, w.cfg.MaxStoreBytes)
		return
	}
	w.touchLocked(st)
	w.traces[id] = st
	w.storeBytes += st.bytes
	// Deltas, not Set: several Worker instances can share one process
	// (tests, embedded workers), and deltas compose across them.
	mTracesResident.Inc()
	mStoreBytes.Add(st.bytes)
	info := st.info(id)
	w.mu.Unlock()
	workerLog.Debug("trace stored", "id", id, "events", lt.Events(), "bytes", st.bytes)
	w.writeCreated(rw, info)
}

func (w *Worker) writeCreated(rw http.ResponseWriter, info TraceInfo) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusCreated)
	json.NewEncoder(rw).Encode(info)
}

// handleExists is the coordinator's cheap dedup probe: 200 if the
// content hash is resident (refreshing its LRU recency — a probe means
// someone is about to replay it), 404 otherwise. No bytes move either
// way.
func (w *Worker) handleExists(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	st, ok := w.traces[id]
	if ok {
		w.touchLocked(st)
	}
	w.mu.Unlock()
	if !ok {
		rw.WriteHeader(http.StatusNotFound)
		return
	}
	rw.WriteHeader(http.StatusOK)
}

// maxReplayRequestBytes caps a replay request body; a larger body is a
// 413.
const maxReplayRequestBytes = 1 << 20

// decodeReplayRequest decodes the one ReplayRequest r holds. Unknown
// fields and anything but whitespace after the value are errors; a
// read error such as *http.MaxBytesError comes back wrapped.
func decodeReplayRequest(r io.Reader) (ReplayRequest, error) {
	var req ReplayRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ReplayRequest{}, err
	}
	var extra json.RawMessage
	switch err := dec.Decode(&extra); {
	case err == io.EOF:
		return req, nil
	case err == nil:
		return ReplayRequest{}, errors.New("data after the JSON value")
	default:
		return ReplayRequest{}, fmt.Errorf("data after the JSON value: %w", err)
	}
}

// handleReplay runs the requested shards on the farm pool. Geometry is
// network data: every shard axis is validated via cache.TryNew before
// any simulation, and the whole request is rejected on the first
// invalid shard.
func (w *Worker) handleReplay(rw http.ResponseWriter, r *http.Request) {
	req, err := decodeReplayRequest(http.MaxBytesReader(rw, r.Body, maxReplayRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			w.writeError(rw, http.StatusRequestEntityTooLarge, "replay request exceeds %d bytes", maxReplayRequestBytes)
			return
		}
		w.writeError(rw, http.StatusBadRequest, "invalid replay request: %v", err)
		return
	}
	if len(req.Shards) == 0 {
		w.writeError(rw, http.StatusBadRequest, "no shards")
		return
	}
	for _, sh := range req.Shards {
		if err := validateShard(sh); err != nil {
			w.writeError(rw, http.StatusBadRequest, "shard %d: %v", sh.Index, err)
			return
		}
	}
	w.mu.Lock()
	st, ok := w.traces[req.TraceID]
	if ok {
		w.touchLocked(st) // a replayed trace is a live trace
	}
	w.mu.Unlock()
	if !ok {
		w.writeError(rw, http.StatusNotFound, "no trace %q", req.TraceID)
		return
	}
	// An M4L2 trace is the L2-bound stream behind ONE specific L1;
	// replaying it under any other L1 (policy included) would silently
	// simulate a hierarchy that never existed. Compare canonicalized
	// configs so the two spellings of LRU ("" and "lru") — both legal
	// on the wire — name the same cache.
	for _, sh := range req.Shards {
		if sh.L1.Canonical() != st.l2.L1.Canonical() {
			w.writeError(rw, http.StatusBadRequest,
				"shard %d: L1 %+v does not match the L1 %+v embedded in l2 trace %q",
				sh.Index, sh.L1, st.l2.L1, req.TraceID)
			return
		}
	}

	mReplayCalls.Inc()
	w.inFlight.Add(int64(len(req.Shards)))
	defer w.inFlight.Add(-int64(len(req.Shards)))
	replayStart := time.Now()
	results, err := farm.MapLabeled(r.Context(), w.pool, req.Shards,
		func(i int, sh Shard) string {
			return fmt.Sprintf("shard%d/l1=%dK-%dw", sh.Index, sh.L1.SizeBytes>>10, sh.L1.Ways)
		},
		func(ctx context.Context, env farm.Env, sh Shard) (ShardResult, error) {
			// The whole-run stats behind each point ride along: the
			// coordinator's study memoizes them.
			points, stats := harness.ReplayL2Cells(st.l2, sh.L2Sizes)
			return ShardResult{Index: sh.Index, Points: points, Stats: stats}, nil
		})
	if err != nil {
		w.writeError(rw, http.StatusInternalServerError, "replay: %v", err)
		return
	}
	mWorkerReplayS.ObserveSince(replayStart)
	mShardsServed.Add(uint64(len(req.Shards)))
	workerLog.Debug("replay served",
		"trace", req.TraceID, "shards", len(req.Shards),
		"elapsed", time.Since(replayStart))
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(ReplayResponse{Results: results})
}

// validateShard checks every geometry the shard names with
// Config.Validate — the exact precondition of cache.TryNew, without
// allocating the cache arrays for what is pure request validation —
// so invalid requests stop here.
func validateShard(sh Shard) error {
	if err := sh.L1.Validate(); err != nil {
		return fmt.Errorf("l1: %w", err)
	}
	if len(sh.L2Sizes) == 0 {
		return errors.New("no l2 sizes")
	}
	// Validate the exact L2 geometry each size will simulate —
	// harness.GeometryL2For is the same rule the replay executes
	// (size swapped into the O2's L2, shard L1's policy inherited), so
	// ingress validation cannot drift from execution.
	for _, size := range sh.L2Sizes {
		if err := harness.GeometryL2For(sh.L1, size).Validate(); err != nil {
			return fmt.Errorf("l2 size %d: %w", size, err)
		}
	}
	return nil
}

// handleHealth reports liveness plus the state a re-admission prober
// reads in one round-trip: which traces are resident (a restart empties
// the list) and the in-flight shard count.
func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	ids := make([]string, 0, len(w.traces))
	for id := range w.traces {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	sort.Strings(ids)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(HealthStatus{
		OK:             true,
		Traces:         len(ids),
		TraceIDs:       ids,
		InFlightShards: int(w.inFlight.Load()),
		Workers:        w.pool.Workers(),
		Version:        obs.Version(),
	})
}
