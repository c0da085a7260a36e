package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// params are the inputs one run of a workload is made from.
type params struct {
	seed   int64
	frames int // sequence length of every capture the workload makes
}

// result is what one operation delivered to its client.
type result struct {
	output string
	cells  int     // simulated (trace x cache configuration) results
	first  float64 // seconds from the operation's start to its first result
}

// instance is a set-up workload: the state its operations run against.
type instance interface {
	// prepare readies the next operation, outside the operation's time.
	// It returns how long it spent setting the workload up again, or 0.
	prepare(ctx context.Context) (time.Duration, error)
	// op runs one operation. t records spans when non-nil.
	op(ctx context.Context, t *tracer) (result, error)
	close()
}

// workload is one named set of inputs and the operation run on them.
type workload struct {
	name   string
	why    string
	frames int // default sequence length
	// reference renders the output every operation must produce. It
	// runs once, before set-up and untimed. Nil means only the golden
	// digest and agreement between operations apply.
	reference func(ctx context.Context, p params) (string, error)
	setup     func(ctx context.Context, p params) (instance, error)
	// ladder re-drives one operation stage by stage at GOMAXPROCS=1 and
	// returns the summed rung time over the wall time of the same
	// operation run whole at GOMAXPROCS=1. Nil means the operation's own
	// spans already are its stages.
	ladder func(ctx context.Context, inst instance, t *tracer) (float64, error)
}

var workloads = []*workload{
	{
		name:   "paper",
		why:    "every table and figure of the paper, as mp4study -all -frames 2 makes them: the codec capture and the farm do nearly all the work",
		frames: 2,
		setup:  setupPaper,
	},
	{
		name:   "trace-sweep",
		why:    "geometry and policy sweeps of a shipped CIF capture: only wire decode, L1 filter and L2 replay run, so a codec change must not move it",
		frames: 6,
		setup:  setupTraceSweep,
		ladder: traceSweepLadder,
	},
	{
		name:      "fleet-cold",
		why:       "a first study on a fresh service and two-worker fleet: capture, filter, L2 wire, upload, worker replay, memo puts and SSE all run",
		frames:    6,
		reference: renderLocal,
		setup:     setupFleet(true),
		ladder:    fleetColdLadder,
	},
	{
		name:      "fleet-resubmit",
		why:       "the same study resubmitted to a warm fleet: every cell is memo-served and nothing is uploaded, so lookups and capture dominate",
		frames:    6,
		reference: renderLocal,
		setup:     setupFleet(false),
		ladder:    fleetResubmitLadder,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// captureWorkload is the CIF sequence the trace-sweep workload and the
// stage ledger capture; the seed picks its synthetic content.
func captureWorkload(p params) harness.Workload {
	return harness.Workload{W: 352, H: 288, Frames: p.frames, Seed: p.seed}
}

// sweepSpecs are the two replay sweeps the trace-sweep workload runs.
func sweepSpecs() []harness.ExperimentSpec {
	return []harness.ExperimentSpec{{Sweep: "geometry"}, {Sweep: "policy"}}
}

// sweepAxes resolves an experiment's axes, defaults filled in.
func sweepAxes(e harness.ExperimentSpec) ([]cache.Config, []int, error) {
	l1s, l2Sizes, err := e.SweepAxes()
	if len(l1s) == 0 {
		l1s = harness.GeometryL1Configs()
	}
	if len(l2Sizes) == 0 {
		l2Sizes = harness.GeometryL2Sizes()
	}
	return l1s, l2Sizes, err
}

// freshStudy scopes a context to a new study: replay on, memo off.
func freshStudy(ctx context.Context) context.Context {
	return harness.WithStudy(ctx, harness.NewStudy(true))
}

// ---- paper ----

type paper struct{ frames int }

// setupPaper warms the process with the paper's cheapest simulated
// table, so the first timed operation does not pay for heap growth.
func setupPaper(ctx context.Context, p params) (instance, error) {
	if _, err := harness.RenderExperiment(freshStudy(ctx), farm.Default(), harness.ExperimentSpec{Table: 3}, p.frames); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &paper{frames: p.frames}, nil
}

func (w *paper) prepare(context.Context) (time.Duration, error) { return 0, nil }
func (w *paper) close()                                         {}

// op regenerates the paper in mp4study -all's order and layout.
func (w *paper) op(ctx context.Context, t *tracer) (result, error) {
	start := time.Now()
	study := harness.NewStudy(true)
	ctx = harness.WithStudy(ctx, study)
	pool := farm.Default()
	var sb strings.Builder
	var r result

	end := t.begin("harness.table1")
	sb.WriteString(harness.Table1() + "\n")
	end()
	end = t.begin("harness.run_tables")
	tabs, err := harness.RunTables(ctx, pool, harness.TableSpecs(), w.frames)
	end()
	if err != nil {
		return r, err
	}
	end = t.begin("harness.render")
	for _, tab := range tabs {
		sb.WriteString(tab.String() + "\n")
	}
	end()
	r.first = time.Since(start).Seconds()
	for _, e := range []harness.ExperimentSpec{{Table: 8}, {Figure: 2}} {
		end = t.begin("harness.render_experiment")
		out, err := harness.RenderExperiment(ctx, pool, e, w.frames)
		end()
		if err != nil {
			return r, err
		}
		sb.WriteString(out)
	}
	end = t.begin("harness.object_sweep")
	points, err := harness.RunObjectSweepPool(ctx, pool, w.frames)
	end()
	if err != nil {
		return r, err
	}
	end = t.begin("harness.render")
	for _, s := range append(harness.Figure3Series(points), harness.Figure4Series(points)...) {
		s.Write(&sb)
		sb.WriteString("\n")
	}
	end()
	r.output = sb.String()
	r.cells = int(study.Usage().Replays)
	return r, nil
}

// ---- trace-sweep ----

type traceSweep struct {
	wire []byte // the seed's capture in the M4TR wire format
}

// setupTraceSweep captures the seed's CIF encode and serializes it,
// as mp4study -sweep geometry -trace-out would.
func setupTraceSweep(ctx context.Context, p params) (instance, error) {
	c, err := harness.RecordEncodeCtx(freshStudy(ctx), simmem.NewSpace(0), captureWorkload(p))
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	var buf bytes.Buffer
	if _, err := c.Enc.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serialize capture: %w", err)
	}
	return &traceSweep{wire: buf.Bytes()}, nil
}

func (w *traceSweep) prepare(context.Context) (time.Duration, error) { return 0, nil }
func (w *traceSweep) close()                                         {}

// op decodes the capture and runs both sweeps on it, as mp4study
// -trace-in does for -sweep geometry and then -sweep policy.
func (w *traceSweep) op(ctx context.Context, t *tracer) (result, error) {
	start := time.Now()
	ctx = freshStudy(ctx)
	var r result
	end := t.begin("trace.read")
	tr, err := trace.ReadTrace(bytes.NewReader(w.wire))
	end()
	if err != nil {
		return r, err
	}
	var sb strings.Builder
	for i, e := range sweepSpecs() {
		l1s, l2Sizes, err := e.SweepAxes()
		if err != nil {
			return r, err
		}
		end = t.begin("harness.sweep_from_trace")
		points, err := harness.RunGeometrySweepFromTrace(ctx, farm.Default(), tr, l1s, l2Sizes)
		end()
		if err != nil {
			return r, err
		}
		end = t.begin("harness.render")
		sb.WriteString(harness.GeometrySweepReport(harness.SweepTitle(e.Sweep, true), points))
		end()
		r.cells += len(points)
		if i == 0 {
			r.first = time.Since(start).Seconds()
		}
	}
	r.output = sb.String()
	return r, nil
}

// ---- fleet-cold and fleet-resubmit ----

// fleetSpec is the study both fleet workloads submit: a geometry sweep
// over an L1 axis, then the policy sweep — 48 cells. Seed 1 uses both
// sweeps' default axes. Other seeds reorder them: the 32 KB 2-way and
// 4-way rows of the L1 axis (around its 16 KB 2-way row) and the five
// policies. The seed so changes the inputs and the output, but not the
// work: another size or associativity changes a row's cost (with a
// 16 KB 4-way row the study allocates a quarter more), and the runs of
// different seeds must compare.
func fleetSpec(p params) service.StudySpec {
	geometry := harness.ExperimentSpec{Sweep: "geometry"}
	policy := harness.ExperimentSpec{Sweep: "policy"}
	if p.seed != 1 {
		rng := rand.New(rand.NewSource(p.seed))
		ways := []int{2, 4}
		rng.Shuffle(len(ways), func(i, j int) { ways[i], ways[j] = ways[j], ways[i] })
		for _, l1 := range []struct{ kb, ways int }{{32, ways[0]}, {16, 2}, {32, ways[1]}} {
			geometry.L1s = append(geometry.L1s, cache.Config{SizeBytes: l1.kb << 10, LineBytes: 32, Ways: l1.ways})
		}
		for _, i := range rng.Perm(len(cache.Policies())) {
			policy.Policies = append(policy.Policies, string(cache.Policies()[i]))
		}
	}
	return service.StudySpec{
		Frames:      p.frames,
		Experiments: []harness.ExperimentSpec{geometry, policy},
	}
}

// renderLocal renders the seed's fleet study in-process, memo off: the
// output the fleet must reproduce byte for byte.
func renderLocal(ctx context.Context, p params) (string, error) {
	spec := fleetSpec(p)
	var sb strings.Builder
	for _, e := range spec.Experiments {
		out, err := harness.RenderExperiment(freshStudy(ctx), farm.Default(), e, spec.Frames)
		if err != nil {
			return "", fmt.Errorf("in-process render: %w", err)
		}
		sb.WriteString(out)
	}
	return sb.String(), nil
}

type fleetStudy struct {
	spec  service.StudySpec
	body  []byte // spec as POSTed
	fresh bool   // a new deployment for every operation
	f     *fleet
	used  bool // f has served an operation
}

// setupFleet starts a fleet. With fresh unset it also runs the study
// once, so the service's memo holds every cell and the workers hold
// every trace.
func setupFleet(fresh bool) func(context.Context, params) (instance, error) {
	return func(ctx context.Context, p params) (instance, error) {
		spec := fleetSpec(p)
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		f, err := newFleet(ctx)
		if err != nil {
			return nil, err
		}
		w := &fleetStudy{spec: spec, body: body, fresh: fresh, f: f}
		if !fresh {
			if _, err := f.runStudy(ctx, body, nil); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up study: %w", err)
			}
		}
		return w, nil
	}
}

// prepare gives fleet-cold a new deployment for every operation after
// the first; that counts as set-up.
func (w *fleetStudy) prepare(ctx context.Context) (time.Duration, error) {
	if !w.fresh || !w.used {
		return 0, nil
	}
	start := time.Now()
	f, err := newFleet(ctx)
	if err != nil {
		return 0, err
	}
	setup := time.Since(start)
	w.f.close()
	w.f, w.used = f, false
	return setup, nil
}

func (w *fleetStudy) op(ctx context.Context, t *tracer) (result, error) {
	w.used = true
	st, err := w.f.runStudy(ctx, w.body, t)
	return result{output: st.output, cells: st.cells, first: st.first}, err
}

func (w *fleetStudy) close() { w.f.close() }
