package main

// metricDef describes one reported metric. BENCHMARK.json at the root
// of the repository lists the same metrics; a test keeps them equal.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: the share of the baseline median a regression may take
}

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_p50_s", unit: "s", bound: 0.25},
	{name: "first_result_p50_s", unit: "s", bound: 0.25},
	{name: "cells_per_s", unit: "cells/s", higher: true, bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", bound: 0.10},
}

// perLayer are the single-layer metrics a traced run reports.
var perLayer = []metricDef{
	{name: "codec.capture_encode_s", unit: "s"},
	{name: "codec.capture_decode_s", unit: "s"},
	{name: "codec.capture_krec_per_s", unit: "krec/s", higher: true},
	{name: "trace.wire_encode_mb_s", unit: "MB/s", higher: true},
	{name: "trace.wire_decode_mb_s", unit: "MB/s", higher: true},
	{name: "trace.filter_ns_per_rec", unit: "ns"},
	{name: "trace.filter_l2_frac", unit: "ratio"},
	{name: "trace.filter_fallback_frac", unit: "ratio"},
	{name: "trace.l2wire_encode_mb_s", unit: "MB/s", higher: true},
	{name: "trace.l2wire_decode_mb_s", unit: "MB/s", higher: true},
	{name: "trace.replay_ns_per_event", unit: "ns"},
	{name: "trace.replay_fused_ns_per_event_cfg", unit: "ns"},
	{name: "trace.replay_parallel_speedup", unit: "x", higher: true},
	{name: "memo.get_ns", unit: "ns"},
	{name: "memo.put_ns", unit: "ns"},
	{name: "memo.hit_frac", unit: "ratio", higher: true},
	{name: "memo.cold_overhead_frac", unit: "ratio"},
	{name: "farm.utilization", unit: "ratio", higher: true},
	{name: "farm.jobs_per_op", unit: "count"},
	{name: "dist.upload_mb", unit: "MB"},
	{name: "dist.upload_s", unit: "s"},
	{name: "dist.replay_batch_s", unit: "s"},
	{name: "dist.worker_replay_s", unit: "s"},
	{name: "dist.retries", unit: "count"},
	{name: "service.submit_s", unit: "s"},
	{name: "service.queue_wait_s", unit: "s"},
	{name: "service.run_s", unit: "s"},
	{name: "service.stream_lag_s", unit: "s"},
	{name: "harness.render_s", unit: "s"},
	{name: "ladder.coverage", unit: "ratio", higher: true},
	{name: "bench.trace_overhead_frac", unit: "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named values, each with its definition's unit.
type metricSet map[string]metric

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("undefined metric " + name)
}
