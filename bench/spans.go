package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. All spans are
// opened and closed on the benchmark's one client goroutine, so the
// open spans form a stack. A nil *tracer records nothing, which is how
// untraced operations run.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	open   []int // indexes into spans
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Op: t.op, ID: i + 1, Parent: parent,
		Start: time.Since(t.origin).Seconds(),
	})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = time.Since(t.origin).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover (children never overlap: one goroutine
// opens them in sequence).
func selfTimes(spans []span) map[string]float64 {
	childTime := map[int]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - childTime[s.ID]
	}
	return out
}

// writeSpans stores the spans as JSON under dir.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), raw, 0o644)
}

// counters is a before/after view of the process metrics registry: the
// layers' own counts, read from outside.
type counters struct{ before, after obs.Snapshot }

func startCounters() *counters { return &counters{before: obs.Default().Snapshot()} }

func (c *counters) stop() { c.after = obs.Default().Snapshot() }

// count returns the change of a counter, or of a histogram's sample
// count when name is a histogram.
func (c *counters) count(name string) float64 {
	if h, ok := c.after.Histograms[name]; ok {
		return float64(h.Count - c.before.Histograms[name].Count)
	}
	return float64(c.after.Counters[name] - c.before.Counters[name])
}

// sum returns the change of a histogram's sum of observations.
func (c *counters) sum(name string) float64 {
	return c.after.Histograms[name].Sum - c.before.Histograms[name].Sum
}

// frac returns part/(part+rest) of two counter changes, 0 when both
// are zero.
func (c *counters) frac(part, rest string) float64 {
	p, r := c.count(part), c.count(rest)
	if p+r == 0 {
		return 0
	}
	return p / (p + r)
}
