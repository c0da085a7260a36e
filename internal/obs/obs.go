// Package obs is the repository's observability layer: a
// dependency-free process-wide metrics registry (counters, gauges,
// histograms — all atomic on the hot path), per-component structured
// logging on log/slog, lightweight span timing, build/version
// introspection, and the HTTP middleware + export endpoints the
// long-running binaries (mp4served, mp4worker) mount.
//
// The paper this repository reproduces is a measurement study; obs
// applies the same discipline to the reproduction itself. Every layer
// that does work reports it:
//
//   - internal/farm exposes queue depth, in-flight jobs and per-job
//     latency histograms;
//   - internal/trace reports replay throughput (records/sec and
//     events/sec) from the replay loops themselves;
//   - internal/dist turns the end-of-sweep SweepStats accounting into
//     live counters and gauges (uploads, failovers, workers alive) and
//     emits structured upload/failover/worker-health events;
//   - internal/service wraps its API in a middleware chain (request
//     logging, in-flight gauge, per-route latency) and serves the
//     registry at /v1/metrics.
//
// Metric naming convention: snake_case, prefixed with the owning
// component, suffixed with the unit or `_total` for monotonic counters
// (Prometheus style): `farm_queue_depth`, `dist_uploads_total`,
// `service_http_request_seconds`. One optional label dimension rides
// inside the name via Label ("name{route=\"GET /v1/studies\"}").
//
// Instrumentation cost: counters and gauges are single atomic
// operations; a histogram observation is a binary search over its
// bounds plus two atomic adds. Hot-loop instrumentation (the trace
// replay loops) measures per *call*, never per record.
package obs

import "time"

// Span starts a named timing span against the default registry and
// returns the function that ends it:
//
//	defer obs.Span("replay.chunk")()
//
// Ending the span observes the elapsed seconds into the histogram
// "<name>_seconds" and increments the counter "<name>_total". Dots in
// the span name are exported as underscores (metric names are
// snake_case).
func Span(name string) func() {
	return Default().Span(name)
}

// Span is the registry-scoped form of the package-level Span.
func (r *Registry) Span(name string) func() {
	base := metricName(name)
	h := r.Histogram(base+"_seconds", nil)
	c := r.Counter(base + "_total")
	start := time.Now()
	return func() {
		h.Observe(time.Since(start).Seconds())
		c.Inc()
	}
}

// metricName maps a span name to its metric family: dots (the span
// convention) become underscores (the metric convention).
func metricName(name string) string {
	b := []byte(name)
	changed := false
	for i, c := range b {
		if c == '.' {
			b[i] = '_'
			changed = true
		}
	}
	if !changed {
		return name
	}
	return string(b)
}
