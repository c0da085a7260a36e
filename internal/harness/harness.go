// Package harness runs the paper's experiments: it generates the
// synthetic workloads, drives the instrumented codec over the simulated
// memory hierarchies of the three SGI platforms, and derives the metric
// tables (Tables 2–8) and figure series (Figures 2–4).
package harness

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/perf"
	"repro/internal/simmem"
	"repro/internal/video"
	"repro/internal/vop"
)

// Workload describes one experimental input configuration.
type Workload struct {
	W, H    int
	Frames  int
	Objects int // 1 = single rectangular VO; >1 = background + shaped objects
	Layers  int // 1 or 2
	Seed    int64
	QP      int // 0 = default (8)
}

// DefaultFrames is the default sequence length. The paper uses 30-frame
// clips; rates and ratios are insensitive to run length (asserted by a
// test), so the default trades trace time for identical metrics.
const DefaultFrames = 6

// normalize fills defaults.
func (wl Workload) normalize() Workload {
	if wl.Frames <= 0 {
		wl.Frames = DefaultFrames
	}
	if wl.Objects <= 0 {
		wl.Objects = 1
	}
	if wl.Layers <= 0 {
		wl.Layers = 1
	}
	if wl.Seed == 0 {
		wl.Seed = 1
	}
	if wl.QP <= 0 {
		wl.QP = 8
	}
	return wl
}

// Label names the workload as the paper's tables do.
func (wl Workload) Label() string {
	return fmt.Sprintf("%dx%d", wl.W, wl.H)
}

// sessionConfig builds the codec session configuration for the workload.
func (wl Workload) sessionConfig() codec.SessionConfig {
	obj := codec.DefaultConfig(wl.W, wl.H)
	obj.QP = wl.QP
	obj.Shape = wl.Objects > 1
	return codec.SessionConfig{Object: obj, Objects: wl.Objects, Layers: wl.Layers}
}

// frames renders the per-object input sequences (untraced: frame
// synthesis stands in for the camera/disk source, which the paper's
// counters of course also exclude from the codec's cache behaviour only
// in the sense that the input is read through the codec's own loads —
// which our encoder's gather kernels do trace).
func (wl Workload) frames(space *simmem.Space) [][]*video.Frame {
	synth := video.NewSynth(wl.W, wl.H, wl.Seed)
	out := make([][]*video.Frame, wl.Objects)
	if wl.Objects == 1 {
		out[0] = synth.Sequence(space, wl.Frames)
		return out
	}
	for o := 0; o < wl.Objects; o++ {
		if o == 0 {
			out[o] = synth.ObjectSequence(space, -1, wl.Frames) // background
		} else {
			out[o] = synth.ObjectSequence(space, o-1, wl.Frames)
		}
	}
	return out
}

// Result bundles the measurements of one run on one machine.
type Result struct {
	Machine perf.Machine
	Whole   perf.Metrics
	Phases  map[string]perf.Metrics
	Bytes   int // coded stream size (encode runs)
}

// phaseTracker implements codec.PhaseRecorder over a hierarchy,
// accumulating counter deltas per phase name.
type phaseTracker struct {
	h     *cache.Hierarchy
	start map[string]cache.Stats
	acc   map[string]cache.Stats
}

func newPhaseTracker(h *cache.Hierarchy) *phaseTracker {
	return &phaseTracker{h: h, start: map[string]cache.Stats{}, acc: map[string]cache.Stats{}}
}

func (p *phaseTracker) PhaseBegin(name string) { p.start[name] = p.h.Snapshot() }

func (p *phaseTracker) PhaseEnd(name string) {
	s, ok := p.start[name]
	if !ok {
		return
	}
	delete(p.start, name)
	p.acc[name] = p.acc[name].Add(p.h.Snapshot().Sub(s))
}

// multiPhases fans phase events to several trackers.
type multiPhases []*phaseTracker

func (m multiPhases) PhaseBegin(n string) {
	for _, p := range m {
		p.PhaseBegin(n)
	}
}

func (m multiPhases) PhaseEnd(n string) {
	for _, p := range m {
		p.PhaseEnd(n)
	}
}

// RunEncode encodes the workload once, measured on all machines, and
// returns one Result per machine plus the session stream for subsequent
// decode experiments.
func RunEncode(machines []perf.Machine, wl Workload) ([]Result, *codec.SessionStream, error) {
	return RunEncodeIn(simmem.NewSpace(0), machines, wl)
}

// RunEncodeIn is RunEncode in a caller-provided simulated address
// space. The experiment farm passes each job's isolated Space here, so
// concurrent runs can never share allocator state. It runs in a fresh
// replay Study; use RunEncodeCtx to run in a request's Study.
func RunEncodeIn(space *simmem.Space, machines []perf.Machine, wl Workload) ([]Result, *codec.SessionStream, error) {
	return RunEncodeCtx(context.Background(), space, machines, wl)
}

// RunEncodeCtx is RunEncodeIn with the simulation strategy and usage
// accounting taken from the context's Study (see WithStudy).
//
// In a replay study, a multi-machine set sharing one L1 — the paper's
// three platforms — costs one codec run plus one L1 simulation, with
// each machine served by a replay of the L2-bound stream. Every other
// run (one machine, machines whose L1s differ, or a live study)
// attaches each hierarchy to one codec run. Either way the Stats are
// counter-identical (see replay_test.go).
func RunEncodeCtx(ctx context.Context, space *simmem.Space, machines []perf.Machine, wl Workload) ([]Result, *codec.SessionStream, error) {
	s := StudyFrom(ctx)
	if len(machines) > 1 && !s.live && sameL1(machines) {
		return runEncodeFiltered(s, space, machines, wl)
	}
	return RunEncodeLiveIn(space, machines, wl)
}

// RunEncodeLiveIn is the live simulation strategy: every machine's
// hierarchy is attached to the codec run and simulates inline. It runs
// single-machine and mixed-L1 sets, live studies, and is the oracle
// the replay equivalence tests and benchmarks compare against.
func RunEncodeLiveIn(space *simmem.Space, machines []perf.Machine, wl Workload) ([]Result, *codec.SessionStream, error) {
	wl = wl.normalize()
	frames := wl.frames(space)

	hiers := make([]*cache.Hierarchy, len(machines))
	trackers := make(multiPhases, len(machines))
	tracers := make([]simmem.Tracer, len(machines))
	for i, m := range machines {
		hiers[i] = m.NewHierarchy()
		trackers[i] = newPhaseTracker(hiers[i])
		tracers[i] = hiers[i]
	}

	ss, err := codec.EncodeSession(wl.sessionConfig(), space, simmem.Combine(tracers...), trackers, frames)
	if err != nil {
		return nil, nil, err
	}
	results := make([]Result, len(machines))
	for i, m := range machines {
		results[i] = makeResult(m, hiers[i], trackers[i], ss.TotalBytes())
	}
	return results, ss, nil
}

// RunDecode decodes a previously encoded session on all machines as a
// streaming playback pipeline: VOPs are decoded in coding order,
// reordered to display order, enhanced (two-layer sessions), composed
// into the scene (multi-object sessions) and their buffers recycled —
// the stable resident set of a real-time player, which the paper's
// machines measure.
func RunDecode(machines []perf.Machine, wl Workload, ss *codec.SessionStream) ([]Result, error) {
	return RunDecodeIn(simmem.NewSpace(0), machines, wl, ss)
}

// RunDecodeIn is RunDecode in a caller-provided simulated address
// space (see RunEncodeIn for the study scoping).
func RunDecodeIn(space *simmem.Space, machines []perf.Machine, wl Workload, ss *codec.SessionStream) ([]Result, error) {
	return RunDecodeCtx(context.Background(), space, machines, wl, ss)
}

// RunDecodeCtx is RunDecodeIn with strategy and usage accounting taken
// from the context's Study (see RunEncodeCtx).
func RunDecodeCtx(ctx context.Context, space *simmem.Space, machines []perf.Machine, wl Workload, ss *codec.SessionStream) ([]Result, error) {
	s := StudyFrom(ctx)
	if len(machines) > 1 && !s.live && sameL1(machines) {
		return runDecodeFiltered(s, space, machines, ss)
	}
	return RunDecodeLiveIn(space, machines, wl, ss)
}

// RunDecodeLiveIn is the live decode path (see RunEncodeLiveIn).
func RunDecodeLiveIn(space *simmem.Space, machines []perf.Machine, wl Workload, ss *codec.SessionStream) ([]Result, error) {
	hiers := make([]*cache.Hierarchy, len(machines))
	trackers := make(multiPhases, len(machines))
	tracers := make([]simmem.Tracer, len(machines))
	for i, m := range machines {
		hiers[i] = m.NewHierarchy()
		trackers[i] = newPhaseTracker(hiers[i])
		tracers[i] = hiers[i]
	}

	if err := streamDecode(ss, space, simmem.Combine(tracers...), trackers); err != nil {
		return nil, err
	}
	results := make([]Result, len(machines))
	for i, m := range machines {
		results[i] = makeResult(m, hiers[i], trackers[i], ss.TotalBytes())
	}
	return results, nil
}

// streamDecode is the playback loop: per coding step it decodes one VOP
// of every object, then drains all display frames that became ready —
// enhancement application and buffer release. Scene composition is NOT
// part of the measured loop: the reference decoder writes per-object
// output (composition happens offline), and the paper's counters cover
// the decoder binary only. The per-VOP display write is modelled inside
// the decoder (its display stager).
func streamDecode(ss *codec.SessionStream, space *simmem.Space, t simmem.Tracer, ph codec.PhaseRecorder) error {
	nObj := ss.Objects
	decs := make([]*codec.Decoder, nObj)
	for o := 0; o < nObj; o++ {
		decs[o] = codec.NewDecoder(space, t, ph)
		if err := decs[o].Begin(ss.Base[o]); err != nil {
			return fmt.Errorf("object %d header: %w", o, err)
		}
	}
	var enh []*codec.EnhDecoder
	if ss.Layers == 2 {
		enh = make([]*codec.EnhDecoder, nObj)
		for o := 0; o < nObj; o++ {
			enh[o] = codec.NewEnhDecoder(space, t, ph)
			if err := enh[o].Begin(ss.Enh[o]); err != nil {
				return fmt.Errorf("object %d enhancement header: %w", o, err)
			}
		}
	}
	n := decs[0].NFrames()
	rbs := make([]vop.ReorderBuffer, nObj)
	ready := make([][]*video.Frame, nObj) // display-order queues
	byDisp := make([]map[int]*video.Frame, nObj)
	for o := range byDisp {
		byDisp[o] = map[int]*video.Frame{}
	}

	for step := 0; step < n; step++ {
		for o := 0; o < nObj; o++ {
			it, f, err := decs[o].DecodeNext()
			if err != nil {
				return fmt.Errorf("object %d step %d: %w", o, step, err)
			}
			byDisp[o][it.Display] = f
			for _, e := range rbs[o].Push(it) {
				ready[o] = append(ready[o], byDisp[o][e.Display])
				delete(byDisp[o], e.Display)
			}
		}
		if err := drainReady(ready, enh, decs); err != nil {
			return err
		}
	}
	for o := 0; o < nObj; o++ {
		for _, e := range rbs[o].Flush() {
			ready[o] = append(ready[o], byDisp[o][e.Display])
			delete(byDisp[o], e.Display)
		}
	}
	if err := drainReady(ready, enh, decs); err != nil {
		return err
	}
	for o := 0; o < nObj; o++ {
		if err := decs[o].CheckEnd(); err != nil {
			return err
		}
		if enh != nil {
			if err := enh[o].End(); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainReady processes every frame index for which all objects have a
// ready frame: enhancement application, then buffer release.
func drainReady(ready [][]*video.Frame, enh []*codec.EnhDecoder, decs []*codec.Decoder) error {
	for {
		for _, q := range ready {
			if len(q) == 0 {
				return nil
			}
		}
		layers := make([]*video.Frame, len(ready))
		for o := range ready {
			layers[o] = ready[o][0]
			ready[o] = ready[o][1:]
		}
		if enh != nil {
			for o, f := range layers {
				if err := enh[o].ApplyNext(f); err != nil {
					return fmt.Errorf("object %d enhancement: %w", o, err)
				}
			}
		}
		for o, f := range layers {
			decs[o].Release(f)
		}
	}
}

// EncodeDecode runs both directions, returning (encode, decode) results.
func EncodeDecode(machines []perf.Machine, wl Workload) ([]Result, []Result, error) {
	encRes, ss, err := RunEncode(machines, wl)
	if err != nil {
		return nil, nil, err
	}
	decRes, err := RunDecode(machines, wl, ss)
	if err != nil {
		return nil, nil, err
	}
	return encRes, decRes, nil
}

func makeResult(m perf.Machine, h *cache.Hierarchy, tr *phaseTracker, bytes int) Result {
	return resultFromStats(m, h.Snapshot(), tr.acc, bytes)
}
