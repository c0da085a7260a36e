package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// ledgerReps is how often the stage ledger repeats a short stage; it
// reports the median.
const ledgerReps = 3

// timed runs fn inside a span and returns its duration in seconds.
func timed(t *tracer, name string, fn func() error) (float64, error) {
	end := t.begin(name)
	start := time.Now()
	err := fn()
	sec := time.Since(start).Seconds()
	end()
	return sec, err
}

// mbPerSec runs fn ledgerReps times, each inside a span, and returns
// the median rate at which it moves the bytes it reports, in MB/s.
func mbPerSec(t *tracer, name string, fn func() (int, error)) (float64, error) {
	var rates []float64
	for i := 0; i < ledgerReps; i++ {
		var n int
		sec, err := timed(t, name, func() (err error) {
			n, err = fn()
			return err
		})
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(n)/1e6/sec)
	}
	return median(rates), nil
}

func newMemo() (*memo.Cache, error) {
	return memo.New(memo.Config{Version: harness.CodeVersion})
}

// perLayerMetrics assembles a traced run's metrics: counter deltas over
// its operations, the tracing overhead, the stage ledger on the inputs
// lp and the workload's ladder coverage.
func perLayerMetrics(ctx context.Context, w *workload, inst instance, lp params, t *tracer,
	cnt *counters, rec *record, traced, untraced []float64) (metricSet, error) {
	m := metricSet{}
	m.set(perLayer, "farm.utilization", cnt.sum("farm_job_seconds")/(float64(runtime.GOMAXPROCS(0))*total(rec.OpS)))
	m.set(perLayer, "farm.jobs_per_op", cnt.count("farm_job_seconds")/float64(len(rec.OpS)))
	m.set(perLayer, "memo.hit_frac", cnt.frac("memo_hits_total", "memo_misses_total"))
	m.set(perLayer, "trace.filter_fallback_frac", cnt.frac("trace_filter_fallback_total", "trace_filter_parallel_total"))
	m.set(perLayer, "bench.trace_overhead_frac", median(traced)/median(untraced)-1)

	t.op = len(rec.OpS) + 1
	if err := stageLedger(ctx, lp, t, m); err != nil {
		return nil, fmt.Errorf("stage ledger: %w", err)
	}
	coverage := opSpanCoverage(t.spans)
	if w.ladder != nil {
		t.op++
		var err error
		if coverage, err = w.ladder(ctx, inst, t); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	m.set(perLayer, "ladder.coverage", coverage)
	return m, nil
}

// opSpanCoverage is the share of the traced operations' wall time that
// their direct child spans account for.
func opSpanCoverage(spans []span) float64 {
	roots := map[int]bool{}
	whole, covered := 0.0, 0.0
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op" {
			roots[s.ID] = true
			whole += s.dur()
		}
	}
	for _, s := range spans {
		if roots[s.Parent] {
			covered += s.dur()
		}
	}
	return covered / whole
}

// stageLedger times each pipeline stage on its own, through the layers'
// public calls, on the capture of p, and sets the layer-speed metrics.
// Every workload runs the same ledger on the same inputs, so these
// numbers compare across workloads; the workload's own operations set
// the rest.
func stageLedger(ctx context.Context, p params, t *tracer, m metricSet) error {
	defer t.begin("ledger")()
	ctx = freshStudy(ctx)

	// Capture and decode, then sweep the fresh capture without and with
	// a cold memo. The cold sweep runs on a capture whose content hash
	// is not yet computed, as a first study's does.
	var enc, dec, krec, overhead []float64
	var c *harness.Capture
	var geometry []harness.GeometryPoint
	for i := 0; i < 2; i++ {
		te, err := timed(t, "codec.capture_encode", func() (err error) {
			c, err = harness.RecordEncodeCtx(ctx, simmem.NewSpace(0), captureWorkload(p))
			return err
		})
		if err != nil {
			return err
		}
		td, err := timed(t, "codec.capture_decode", func() error {
			return c.RecordDecodeIn(simmem.NewSpace(0))
		})
		if err != nil {
			return err
		}
		enc, dec = append(enc, te), append(dec, td)
		krec = append(krec, float64(c.Enc.Records()+c.Dec.Records())/(te+td)/1e3)

		tn, err := timed(t, "harness.sweep_no_memo", func() (err error) {
			geometry, err = harness.RunGeometrySweepFromTrace(ctx, farm.Default(), c.Enc, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		mc, err := newMemo()
		if err != nil {
			return err
		}
		cold := harness.NewStudy(true)
		cold.SetMemo(mc)
		tc, err := timed(t, "harness.sweep_cold_memo", func() error {
			_, err := harness.RunGeometrySweepFromTrace(harness.WithStudy(ctx, cold), farm.Default(), c.Enc, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		overhead = append(overhead, tc/tn-1)
	}
	m.set(perLayer, "codec.capture_encode_s", median(enc))
	m.set(perLayer, "codec.capture_decode_s", median(dec))
	m.set(perLayer, "codec.capture_krec_per_s", median(krec))
	m.set(perLayer, "memo.cold_overhead_frac", median(overhead))

	// The full trace's wire format, hash trailer included.
	var wire bytes.Buffer
	rate, err := mbPerSec(t, "trace.wire_encode", func() (int, error) {
		wire.Reset()
		_, err := c.Enc.WriteTo(&wire)
		return wire.Len(), err
	})
	if err != nil {
		return err
	}
	m.set(perLayer, "trace.wire_encode_mb_s", rate)
	if rate, err = mbPerSec(t, "trace.wire_decode", func() (int, error) {
		_, err := trace.ReadTrace(bytes.NewReader(wire.Bytes()))
		return wire.Len(), err
	}); err != nil {
		return err
	}
	m.set(perLayer, "trace.wire_decode_mb_s", rate)

	// The L1 filter, once per L1 of the default axis; the first (the
	// paper's L1) feeds the L2 stages below.
	var base *trace.L2Trace
	filterSec := 0.0
	l1s := harness.GeometryL1Configs()
	for _, l1 := range l1s {
		var lt *trace.L2Trace
		sec, _ := timed(t, "trace.filter", func() error {
			lt = harness.FilterGeometryL1(ctx, c.Enc, l1)
			return nil
		})
		filterSec += sec
		if base == nil {
			base = lt
		}
	}
	m.set(perLayer, "trace.filter_ns_per_rec", filterSec*1e9/float64(c.Enc.Records()*len(l1s)))
	m.set(perLayer, "trace.filter_l2_frac", float64(base.Events())/float64(c.Enc.Records()))

	var l2wire bytes.Buffer
	if rate, err = mbPerSec(t, "trace.l2wire_encode", func() (int, error) {
		l2wire.Reset()
		_, err := base.WriteTo(&l2wire)
		return l2wire.Len(), err
	}); err != nil {
		return err
	}
	m.set(perLayer, "trace.l2wire_encode_mb_s", rate)
	if rate, err = mbPerSec(t, "trace.l2wire_decode", func() (int, error) {
		_, err := trace.ReadL2Trace(bytes.NewReader(l2wire.Bytes()))
		return l2wire.Len(), err
	}); err != nil {
		return err
	}
	m.set(perLayer, "trace.l2wire_decode_mb_s", rate)

	// L2 replay of the paper's L1 row: one config at a time, then all
	// six fused into one pass.
	sizes := harness.GeometryL2Sizes()
	cfgs := make([]cache.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = harness.GeometryL2For(l1s[0], size)
	}
	stats := make([]cache.Stats, len(cfgs))
	events := float64(base.Events() * len(cfgs))
	var serial, fused []float64
	for i := 0; i < ledgerReps; i++ {
		sec, _ := timed(t, "trace.replay", func() error {
			for j, cfg := range cfgs {
				stats[j], _ = base.Replay(cfg)
			}
			return nil
		})
		serial = append(serial, sec*1e9/events)
		sec, _ = timed(t, "trace.replay_fused", func() error {
			base.ReplayMany(cfgs, 1)
			return nil
		})
		fused = append(fused, sec*1e9/events)
	}
	m.set(perLayer, "trace.replay_ns_per_event", median(serial))
	m.set(perLayer, "trace.replay_fused_ns_per_event_cfg", median(fused))

	// One paper machine replayed from the full capture by one worker and
	// by GOMAXPROCS workers (the chunk-speculative engine).
	machine := perf.O2R12K1MB()
	var one, all []float64
	for i := 0; i < ledgerReps; i++ {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			trace.SetReplayWorkers(workers)
			sec, _ := timed(t, "harness.replay_on", func() error {
				harness.ReplayOn(machine, c.Enc, c.SS.TotalBytes())
				return nil
			})
			if workers == 1 {
				one = append(one, sec)
			} else {
				all = append(all, sec)
			}
		}
	}
	trace.SetReplayWorkers(0)
	m.set(perLayer, "trace.replay_parallel_speedup", median(one)/median(all))

	if err := ledgerMemo(t, m, c.Enc.Hash(), stats); err != nil {
		return err
	}

	var render []float64
	for i := 0; i < 20; i++ {
		sec, _ := timed(t, "harness.render", func() error {
			harness.GeometrySweepReport(harness.SweepTitle("geometry", true), geometry)
			return nil
		})
		render = append(render, sec)
	}
	m.set(perLayer, "harness.render_s", median(render))

	return ledgerFleet(ctx, p, t, m)
}

// ledgerMemo times memo inserts and lookups of the 48 cells the
// trace-sweep and fleet studies simulate, each into a fresh memo.
func ledgerMemo(t *tracer, m metricSet, hash trace.Hash, stats []cache.Stats) error {
	var keys []memo.Key
	for _, e := range sweepSpecs() {
		l1s, l2Sizes, err := sweepAxes(e)
		if err != nil {
			return err
		}
		for _, l1 := range l1s {
			for _, size := range l2Sizes {
				keys = append(keys, harness.GeometryMemoKey(hash, l1, size))
			}
		}
	}
	const memos = 20
	caches := make([]*memo.Cache, memos)
	for i := range caches {
		mc, err := newMemo()
		if err != nil {
			return err
		}
		caches[i] = mc
	}
	ops := float64(memos * len(keys))
	put, _ := timed(t, "memo.put", func() error {
		for _, mc := range caches {
			for i, k := range keys {
				mc.Put(k, stats[i%len(stats)])
			}
		}
		return nil
	})
	get, _ := timed(t, "memo.get", func() error {
		for _, mc := range caches {
			for _, k := range keys {
				mc.Get(k)
			}
		}
		return nil
	})
	m.set(perLayer, "memo.put_ns", put*1e9/ops)
	m.set(perLayer, "memo.get_ns", get*1e9/ops)
	return nil
}

// ledgerFleet runs the fleet study once on a fresh in-process fleet and
// reads the service's and the fleet's stage times.
func ledgerFleet(ctx context.Context, p params, t *tracer, m metricSet) error {
	body, err := json.Marshal(fleetSpec(p))
	if err != nil {
		return err
	}
	f, err := newFleet(ctx)
	if err != nil {
		return err
	}
	defer f.close()
	cnt := startCounters()
	st, err := f.runStudy(ctx, body, t)
	cnt.stop()
	if err != nil {
		return err
	}
	status, err := f.status(ctx, st.id)
	if err != nil {
		return err
	}
	if status.Started == nil || status.Finished == nil {
		return fmt.Errorf("study %s: no start or finish time", st.id)
	}
	m.set(perLayer, "service.submit_s", st.submit)
	m.set(perLayer, "service.queue_wait_s", status.Started.Sub(status.Submitted).Seconds())
	m.set(perLayer, "service.run_s", status.Finished.Sub(*status.Started).Seconds())
	m.set(perLayer, "service.stream_lag_s", st.doneAt.Sub(*status.Finished).Seconds())
	m.set(perLayer, "dist.upload_mb", cnt.count("dist_upload_bytes_total")/1e6)
	m.set(perLayer, "dist.upload_s", cnt.sum("dist_upload_seconds"))
	m.set(perLayer, "dist.replay_batch_s", cnt.sum("dist_replay_batch_seconds"))
	m.set(perLayer, "dist.worker_replay_s", cnt.sum("worker_replay_seconds"))
	m.set(perLayer, "dist.retries", cnt.count("dist_retries_total"))
	return nil
}

// ---- ladders: one operation re-driven stage by stage ----

// rungs sums the time of a ladder's stages.
type rungs struct {
	t     *tracer
	total float64
}

func (r *rungs) do(name string, fn func() error) error {
	sec, err := timed(r.t, name, fn)
	r.total += sec
	return err
}

// serially runs fn at GOMAXPROCS=1: with one processor the stages'
// times add up to the operation's wall time.
func serially(fn func() error) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

var errLadderOutput = errors.New("stage-by-stage output differs from the operation's")

// traceSweepLadder: wire decode, then per L1 row the filter and the L2
// replay, then the reports.
func traceSweepLadder(ctx context.Context, inst instance, t *tracer) (float64, error) {
	w := inst.(*traceSweep)
	var coverage float64
	err := serially(func() error {
		runtime.GC()
		start := time.Now()
		res, err := w.op(ctx, nil)
		if err != nil {
			return err
		}
		whole := time.Since(start).Seconds()

		runtime.GC()
		defer t.begin("ladder")()
		r := &rungs{t: t}
		ctx := freshStudy(ctx)
		var tr *trace.Trace
		if err := r.do("trace.read", func() (err error) {
			tr, err = trace.ReadTrace(bytes.NewReader(w.wire))
			return err
		}); err != nil {
			return err
		}
		var sb strings.Builder
		for _, e := range sweepSpecs() {
			l1s, l2Sizes, err := sweepAxes(e)
			if err != nil {
				return err
			}
			var points []harness.GeometryPoint
			for _, l1 := range l1s {
				var lt *trace.L2Trace
				r.do("trace.filter", func() error {
					lt = harness.FilterGeometryL1(ctx, tr, l1)
					return nil
				})
				if err := r.do("trace.replay", func() error {
					row, err := harness.GeometryRowFromL2Trace(ctx, lt, l2Sizes)
					points = append(points, row...)
					return err
				}); err != nil {
					return err
				}
			}
			r.do("harness.render", func() error {
				sb.WriteString(harness.GeometrySweepReport(harness.SweepTitle(e.Sweep, true), points))
				return nil
			})
		}
		if sb.String() != res.output {
			return errLadderOutput
		}
		coverage = r.total / whole
		return nil
	})
	return coverage, err
}

// fleetColdLadder re-drives a cold study against a fresh fleet and a
// fresh memo, and compares it with a whole cold study.
func fleetColdLadder(ctx context.Context, inst instance, t *tracer) (float64, error) {
	w := inst.(*fleetStudy)
	var coverage float64
	err := serially(func() error {
		f, err := newFleet(ctx)
		if err != nil {
			return err
		}
		whole, want, err := wholeStudy(ctx, w, f)
		f.close()
		if err != nil {
			return err
		}
		mc, err := newMemo()
		if err != nil {
			return err
		}
		if f, err = newFleet(ctx); err != nil {
			return err
		}
		defer f.close()
		runtime.GC()
		r := &rungs{t: t}
		end := t.begin("ladder")
		out, err := fleetStages(ctx, r, f, w.spec, mc)
		end()
		if err != nil {
			return err
		}
		if out != want {
			return errLadderOutput
		}
		coverage = r.total / whole
		return nil
	})
	return coverage, err
}

// fleetResubmitLadder fills a memo with one untimed cold pass, then
// re-drives the resubmission against it and compares that with a whole
// resubmission to the run's warm fleet.
func fleetResubmitLadder(ctx context.Context, inst instance, t *tracer) (float64, error) {
	w := inst.(*fleetStudy)
	var coverage float64
	err := serially(func() error {
		mc, err := newMemo()
		if err != nil {
			return err
		}
		f, err := newFleet(ctx)
		if err != nil {
			return err
		}
		defer f.close()
		if _, err := fleetStages(ctx, &rungs{}, f, w.spec, mc); err != nil {
			return err
		}
		whole, want, err := wholeStudy(ctx, w, w.f)
		if err != nil {
			return err
		}
		runtime.GC()
		r := &rungs{t: t}
		end := t.begin("ladder")
		out, err := fleetStages(ctx, r, f, w.spec, mc)
		end()
		if err != nil {
			return err
		}
		if out != want {
			return errLadderOutput
		}
		coverage = r.total / whole
		return nil
	})
	return coverage, err
}

// wholeStudy times one untraced study on f and returns its output.
func wholeStudy(ctx context.Context, w *fleetStudy, f *fleet) (float64, string, error) {
	runtime.GC()
	start := time.Now()
	st, err := f.runStudy(ctx, w.body, nil)
	return time.Since(start).Seconds(), st.output, err
}

// fleetStages re-drives a fleet study through the layers' public calls
// in the dist coordinator's order: per experiment the capture and its
// hash, then per L1 row the memo lookups and, for the missing cells,
// the L1 filter, the L2 wire encode and, per worker, an upload and a
// replay call whose cells are memoized; then the report.
func fleetStages(ctx context.Context, r *rungs, f *fleet, spec service.StudySpec, mc *memo.Cache) (string, error) {
	ctx = freshStudy(ctx)
	var sb strings.Builder
	for _, e := range spec.Experiments {
		l1s, l2Sizes, err := sweepAxes(e)
		if err != nil {
			return "", err
		}
		var c *harness.Capture
		if err := r.do("codec.capture", func() (err error) {
			c, err = harness.RecordEncodeCtx(ctx, simmem.NewSpace(0), harness.Workload{W: 352, H: 288, Frames: spec.Frames})
			return err
		}); err != nil {
			return "", err
		}
		var hash trace.Hash
		r.do("trace.hash", func() error {
			hash = c.Enc.Hash()
			return nil
		})
		var points []harness.GeometryPoint
		for _, l1 := range l1s {
			row, err := fleetRow(ctx, r, f, mc, c.Enc, hash, l1, l2Sizes)
			if err != nil {
				return "", err
			}
			points = append(points, row...)
		}
		r.do("harness.render", func() error {
			sb.WriteString(harness.GeometrySweepReport(harness.SweepTitle(e.Sweep, true), points))
			return nil
		})
	}
	return sb.String(), nil
}

// fleetRow is one L1 row of fleetStages. Like the coordinator, it splits
// the row's missing cells into one contiguous shard per worker.
func fleetRow(ctx context.Context, r *rungs, f *fleet, mc *memo.Cache, tr *trace.Trace, hash trace.Hash,
	l1 cache.Config, l2Sizes []int) ([]harness.GeometryPoint, error) {
	row := make([]harness.GeometryPoint, len(l2Sizes))
	var missing []int
	r.do("memo.get", func() error {
		for i, size := range l2Sizes {
			if st, ok := mc.Get(harness.GeometryMemoKey(hash, l1, size)); ok {
				row[i] = harness.GeometryPointFromStats(l1, size, st)
			} else {
				missing = append(missing, i)
			}
		}
		return nil
	})
	if len(missing) == 0 {
		return row, nil
	}
	var lt *trace.L2Trace
	r.do("trace.filter", func() error {
		lt = harness.FilterGeometryL1(ctx, tr, l1)
		return nil
	})
	var wire bytes.Buffer
	if err := r.do("trace.l2wire_encode", func() error {
		_, err := lt.WriteTo(&wire)
		return err
	}); err != nil {
		return nil, err
	}
	id := lt.Hash().String() // cached by WriteTo
	for k := 0; k < fleetWorkers; k++ {
		chunk := missing[k*len(missing)/fleetWorkers : (k+1)*len(missing)/fleetWorkers]
		if len(chunk) == 0 {
			continue
		}
		url := f.workers[k].URL
		if err := r.do("dist.upload", func() error {
			return doJSON(ctx, f.client, http.MethodPost, url+"/v1/traces", dist.ContentTypeL2Trace, wire.Bytes(), http.StatusCreated, nil)
		}); err != nil {
			return nil, err
		}
		shard := dist.Shard{Index: k, L1: l1}
		for _, i := range chunk {
			shard.L2Sizes = append(shard.L2Sizes, l2Sizes[i])
		}
		var resp dist.ReplayResponse
		if err := r.do("dist.replay", func() error {
			body, err := json.Marshal(dist.ReplayRequest{TraceID: id, Shards: []dist.Shard{shard}})
			if err != nil {
				return err
			}
			return doJSON(ctx, f.client, http.MethodPost, url+"/v1/replay", "application/json", body, http.StatusOK, &resp)
		}); err != nil {
			return nil, err
		}
		if len(resp.Results) != 1 || len(resp.Results[0].Points) != len(chunk) || len(resp.Results[0].Stats) != len(chunk) {
			return nil, fmt.Errorf("worker %s: replay response does not match its shard", url)
		}
		r.do("memo.put", func() error {
			for j, i := range chunk {
				row[i] = resp.Results[0].Points[j]
				mc.Put(harness.GeometryMemoKey(hash, l1, l2Sizes[i]), resp.Results[0].Stats[j])
			}
			return nil
		})
	}
	return row, nil
}
