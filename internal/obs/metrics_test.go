package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("c_total") != c {
		t.Error("Counter is not get-or-create: second lookup returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	if r.Gauge("g") != g {
		t.Error("Gauge is not get-or-create")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("sum = %g, want 106", h.Sum())
	}
	snap := r.Snapshot().Histograms["h_seconds"]
	// Cumulative le counts: <=1: {0.5, 1}, <=2: +{1.5}, <=4: +{3}, +Inf: all.
	want := []BucketCount{{"1", 2}, {"2", 3}, {"4", 4}, {"+Inf", 5}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", snap.Buckets, want)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Errorf("bucket %d = %v, want %v", i, snap.Buckets[i], b)
		}
	}

	// First registration wins: later bounds are ignored.
	if r.Histogram("h_seconds", []float64{9}) != h {
		t.Error("Histogram is not get-or-create")
	}
	// nil bounds mean DefBuckets.
	d := r.Histogram("d_seconds", nil)
	if len(d.bounds) != len(DefBuckets) {
		t.Errorf("default bounds = %d, want %d", len(d.bounds), len(DefBuckets))
	}
}

func TestLabel(t *testing.T) {
	for _, tc := range []struct{ name, key, value, want string }{
		{"x_total", "route", "GET /v1/studies", `x_total{route="GET /v1/studies"}`},
		{`x_total{route="a"}`, "code", "200", `x_total{route="a",code="200"}`},
		{"x", "k", `q"\v`, `x{k="q\"\\v"}`},
	} {
		if got := Label(tc.name, tc.key, tc.value); got != tc.want {
			t.Errorf("Label(%q, %q, %q) = %q, want %q", tc.name, tc.key, tc.value, got, tc.want)
		}
	}
}

func TestSplitLabels(t *testing.T) {
	if f, l := splitLabels(`a_total{b="c"}`); f != "a_total" || l != `b="c"` {
		t.Errorf("splitLabels = %q, %q", f, l)
	}
	if f, l := splitLabels("plain"); f != "plain" || l != "" {
		t.Errorf("splitLabels(plain) = %q, %q", f, l)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(-2)
	r.Histogram("c_seconds", []float64{1}).Observe(0.5)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, sb.String())
	}
	if snap.Counters["a_total"] != 3 || snap.Gauges["b"] != -2 {
		t.Errorf("snapshot = %+v", snap)
	}
	h := snap.Histograms["c_seconds"]
	if h.Count != 1 || h.Buckets[len(h.Buckets)-1].LE != "+Inf" {
		t.Errorf("histogram snapshot = %+v", h)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("req_total", "code", "200")).Add(7)
	r.Counter(Label("req_total", "code", "500")).Inc()
	r.Gauge("depth").Set(3)
	r.Histogram(Label("lat_seconds", "route", "GET /x"), []float64{1}).Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter\n",
		`req_total{code="200"} 7` + "\n",
		`req_total{code="500"} 1` + "\n",
		"# TYPE depth gauge\ndepth 3\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{route="GET /x",le="1"} 1` + "\n",
		`lat_seconds_bucket{route="GET /x",le="+Inf"} 1` + "\n",
		`lat_seconds_sum{route="GET /x"} 0.5` + "\n",
		`lat_seconds_count{route="GET /x"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family even with two labeled children.
	if strings.Count(out, "# TYPE req_total") != 1 {
		t.Errorf("want exactly one TYPE line for req_total:\n%s", out)
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	h := r.Handler()

	// Default: Prometheus text.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default Content-Type = %q, want text/plain...", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("prometheus body = %q", rec.Body.String())
	}

	// Accept: application/json.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	req.Header.Set("Accept", "application/json")
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept json Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON body invalid: %v", err)
	}
	if snap.Counters["x_total"] != 1 {
		t.Errorf("JSON snapshot = %+v", snap)
	}

	// ?format=json without an Accept header.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("format=json Content-Type = %q", ct)
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	end := r.Span("replay.chunk")
	end()
	if got := r.Counter("replay_chunk_total").Value(); got != 1 {
		t.Errorf("span counter = %d, want 1", got)
	}
	if got := r.Histogram("replay_chunk_seconds", nil).Count(); got != 1 {
		t.Errorf("span histogram count = %d, want 1", got)
	}
}
