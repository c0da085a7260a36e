// Package dist shards trace-replay sweeps across worker processes.
//
// The paper's methodology — simulate one workload on many machines —
// distributes along its natural seam: a workload is encoded at most
// once by the coordinator — not at all when the memo already holds
// every cell — and every (L1, L2) cache configuration left becomes an
// independent replay job on whichever worker its shard landed on.
// Because every shard of one L1 row shares that L1, the coordinator
// does not ship the full capture: it replays the capture through the
// L1 filter once per L1 configuration and uploads the ~40× smaller
// L2-bound M4L2 trace each row actually needs.
// Workers execute shards through the same farm.Run engine and the same
// harness seams local sweeps use, so a distributed sweep is the local
// sweep with the replay loop stretched across processes; results merge
// in deterministic shard order and are identical to
// harness.RunGeometrySweep (asserted end-to-end by the tests, across
// real worker subprocesses).
//
// The coordinator is failover-aware and self-healing: each shard batch
// first probes its worker for the trace's content hash (HEAD) and
// uploads only on a miss, and every probe, upload and replay attempt
// runs under its own deadline. Each worker owns its trace store: it
// evicts least-recently-used traces to stay within its bounds, and the
// traces of a finished or failed sweep stay there for the next one.
// Failures are classified — transient (timeouts, connection
// refused/reset, 5xx) vs. permanent (4xx validation) vs. protocol
// violation (well-formed responses that lie about shard indices or
// trace IDs). Transients retry on the same worker under exponential
// backoff with seeded jitter, inside the bounded per-batch attempt
// budget; a worker accruing consecutive transient failures trips its
// circuit breaker and is dropped, its batches re-planned onto the
// survivors (re-uploading the needed trace where absent). Dropped
// workers are not gone for good: a background prober health-checks
// them after an escalating cooldown and re-admits the ones that
// recover, rebalancing queued work onto the returnee (whose batches
// probe and re-upload whatever a restart lost). Permanent failures
// abort the sweep fast, and protocol violators are barred from
// re-admission. Only when every worker is lost, or one batch exhausts
// its budget, does the sweep fail — and with Coordinator.FallbackLocal
// even that degrades gracefully: the undelivered shards replay through
// the local harness path, byte-identical to a local sweep.
//
// Protocol (worker side, all JSON unless noted):
//
//	POST   /v1/traces        body = M4L2 wire format → TraceInfo
//	                         Content-Type application/x-m4l2; any other
//	                         type is a 415
//	HEAD   /v1/traces/{id}   200 if the content hash is resident, else 404
//	POST   /v1/replay        ReplayRequest → ReplayResponse; the body
//	                         is exactly one JSON value (anything after
//	                         it is a 400) of at most 1 MiB (else 413)
//	GET    /v1/healthz
//
// Every geometry in a ReplayRequest arrives from the network and is
// validated through cache.TryNew before simulation; a bad shard is a
// 400 response, never a worker crash (unknown replacement-policy names
// included — the policy axis is part of the shard's L1 config). Trace
// uploads are decoded with the fuzz-hardened wire reader, so a corrupt
// body is a 400 too, and one over WorkerConfig.MaxTraceBytes a 413. A
// shard must name the L1 embedded in the trace it replays — any other
// L1 (or L1 policy: the L2-bound stream is a pure function of the whole
// L1 configuration) would silently simulate the wrong hierarchy, so the
// mismatch is a 400.
package dist

import (
	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/obs"
)

// ContentTypeL2Trace is the one upload type POST /v1/traces accepts.
const ContentTypeL2Trace = "application/x-m4l2"

// KindL2Trace is the TraceInfo.Kind of every stored trace.
const KindL2Trace = "m4l2"

// TraceInfo describes an uploaded trace. Records counts its L2-bound
// events.
type TraceInfo struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"` // wire size as received
}

// Shard is one replay job: a single L1 configuration with a contiguous
// chunk of the L2-size axis. The replacement-policy axis rides inside
// the L1 config (cache.Config.Policy; the simulated L2 inherits it,
// see harness.geometryMachine) — no extra protocol field or trace kind
// is needed, and pre-policy shards decode with the LRU default. Index
// is the shard's position in the coordinator's deterministic plan (see
// planMemoShards); results are merged by it, never by arrival order.
type Shard struct {
	Index   int          `json:"index"`
	L1      cache.Config `json:"l1"`
	L2Sizes []int        `json:"l2_sizes"`
}

// ReplayRequest asks a worker to replay a set of shards against a
// previously uploaded trace.
type ReplayRequest struct {
	TraceID string  `json:"trace_id"`
	Shards  []Shard `json:"shards"`
}

// ShardResult is one shard's sweep points, in (L1, L2 size) order.
// Stats, when present, carries the whole-run simulation counters
// behind each point (same order) so the coordinator can memoize the
// cells; a response whose Stats length disagrees with Points is used
// for points only.
type ShardResult struct {
	Index  int                     `json:"index"`
	Points []harness.GeometryPoint `json:"points"`
	Stats  []cache.Stats           `json:"stats,omitempty"`
}

// ReplayResponse returns every requested shard plus the worker-side
// capture/replay accounting for the request (each request runs under
// its own harness.Study).
type ReplayResponse struct {
	Results []ShardResult      `json:"results"`
	Usage   harness.TraceUsage `json:"trace_usage"`
}

// HealthStatus is the GET /v1/healthz response. Beyond liveness it
// reports, in the re-admission prober's one round-trip, the traces
// resident in the worker's store (a restarted worker reports an empty
// list) and how many shards are replaying right now.
type HealthStatus struct {
	OK bool `json:"ok"`
	// Traces and TraceIDs describe the resident trace store; TraceIDs
	// is sorted and omitted when empty.
	Traces   int      `json:"traces"`
	TraceIDs []string `json:"trace_ids,omitempty"`
	// InFlightShards counts shards currently replaying.
	InFlightShards int `json:"in_flight_shards"`
	// Workers is the farm pool size shards execute on.
	Workers int `json:"workers"`
	// Version is the worker's build identity.
	Version obs.BuildInfo `json:"version"`
}

// errorBody is the JSON error envelope shared by all endpoints.
type errorBody struct {
	Error string `json:"error"`
}

// FallbackWorker is the ShardEvent.Worker value of shards the
// coordinator's local fallback replayed instead of the fleet.
const FallbackWorker = "local"

// MemoWorker is the ShardEvent.Worker value of shards served entirely
// from the coordinator's result memo — no worker ever saw them.
const MemoWorker = "memo"

// ShardEvent is one completed shard, delivered to Coordinator.OnShard.
// Events arrive in strict shard-index order: a shard is emitted as
// soon as it AND every lower-indexed shard have results, so a consumer
// that appends Points as events arrive reconstructs exactly the merged
// point order GeometrySweepWithStats returns. Failovers, retries and
// re-admissions reorder completion, never emission.
type ShardEvent struct {
	Shard  Shard
	Points []harness.GeometryPoint
	// Worker is the base URL of the worker whose replay produced the
	// points, or FallbackWorker for shards the local fallback recovered.
	Worker string
	// Done counts shards emitted so far (this one included); Total is
	// the sweep's shard count. Done == Total marks the final event.
	Done  int
	Total int
}
