package harness

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/farm"
	"repro/internal/motion"
	"repro/internal/perf"
	"repro/internal/simmem"
)

// RatioPoint is one point of the processor-to-memory speed sweep: the
// DRAM latency scaled by Factor relative to the baseline machine, with
// the resulting modelled stall fractions.
type RatioPoint struct {
	Factor        float64
	EncodeDRAM    float64 // fraction of encode time stalled on DRAM
	DecodeDRAM    float64
	EncodeSeconds float64
	DecodeSeconds float64
}

// RunRatioSweepPool performs the study the paper names as future work:
// "determine at what ratio of processor-to-memory speed ... the
// performance of MPEG-4 does finally become memory limited". The
// workload is traced once; the timing model is then re-evaluated with
// the DRAM penalty scaled by each factor (counters are
// latency-independent, so this is exact, not an approximation). The
// per-factor re-evaluations fan out through the pool.
func RunRatioSweepPool(ctx context.Context, p *farm.Pool, wl Workload, factors []float64) ([]RatioPoint, error) {
	if len(factors) == 0 {
		factors = []float64{1, 2, 4, 8, 16, 32, 64}
	}
	base := perf.O2R12K1MB()
	encRes, ss, err := RunEncodeCtx(ctx, simmem.NewSpace(0), []perf.Machine{base}, wl)
	if err != nil {
		return nil, err
	}
	decRes, err := RunDecodeCtx(ctx, simmem.NewSpace(0), []perf.Machine{base}, wl, ss)
	if err != nil {
		return nil, err
	}
	encRaw := encRes[0].Whole.Raw
	decRaw := decRes[0].Whole.Raw
	return farm.MapLabeled(ctx, p, factors,
		func(i int, f float64) string { return fmt.Sprintf("ratio/factor=%gx", f) },
		func(ctx context.Context, env farm.Env, f float64) (RatioPoint, error) {
			m := base
			m.DRAMCycles = base.DRAMCycles * f
			e := perf.Compute(m, encRaw)
			d := perf.Compute(m, decRaw)
			return RatioPoint{
				Factor:        f,
				EncodeDRAM:    e.DRAMTimeFrac,
				DecodeDRAM:    d.DRAMTimeFrac,
				EncodeSeconds: e.Seconds,
				DecodeSeconds: d.Seconds,
			}, nil
		})
}

// MemoryBoundCrossover returns the first sweep factor at which decoding
// spends at least half its time in DRAM stalls, or 0 if none does.
func MemoryBoundCrossover(points []RatioPoint) float64 {
	for _, p := range points {
		if p.DecodeDRAM >= 0.5 {
			return p.Factor
		}
	}
	return 0
}

// RatioSweepSeries renders the sweep for display.
func RatioSweepSeries(points []RatioPoint) []perf.Series {
	enc := perf.Series{Label: "DRAM stall fraction vs memory-latency factor (encode)", YUnit: "%"}
	dec := perf.Series{Label: "DRAM stall fraction vs memory-latency factor (decode)", YUnit: "%"}
	for _, p := range points {
		x := fmt.Sprintf("%gx", p.Factor)
		enc.Append(x, p.EncodeDRAM*100)
		dec.Append(x, p.DecodeDRAM*100)
	}
	return []perf.Series{enc, dec}
}

// AblationResult is one configuration of an ablation experiment.
type AblationResult struct {
	Name    string
	Encode  perf.Metrics
	Bytes   int
	Scratch cache.Stats
}

// RunSearchAblationPool compares full search against diamond search on
// the same workload and machine: the memory-behaviour cost of the
// exhaustive search the paper's locality argument rests on. The two
// configurations encode concurrently on the pool.
func RunSearchAblationPool(ctx context.Context, p *farm.Pool, wl Workload) ([]AblationResult, error) {
	algs := []motion.Algorithm{motion.FullSearch, motion.DiamondSearch}
	return farm.MapLabeled(ctx, p, algs,
		func(i int, alg motion.Algorithm) string { return "search=" + alg.String() },
		func(ctx context.Context, env farm.Env, alg motion.Algorithm) (AblationResult, error) {
			res, ss, err := runEncodeConfiguredIn(env.Space, wl, func(c *codec.Config) { c.SearchAlg = alg })
			if err != nil {
				return AblationResult{}, err
			}
			return AblationResult{Name: "search=" + alg.String(), Encode: res, Bytes: ss.TotalBytes()}, nil
		})
}

// RunPrefetchAblationPool sweeps the software-prefetch cadence,
// reproducing the paper's observation that conservative prefetching
// mostly hits L1. One pool job per cadence.
func RunPrefetchAblationPool(ctx context.Context, p *farm.Pool, wl Workload, intervals []int) ([]AblationResult, error) {
	if len(intervals) == 0 {
		intervals = []int{0, 16, 48, 128}
	}
	return farm.MapLabeled(ctx, p, intervals,
		func(i int, iv int) string { return fmt.Sprintf("prefetch=%d", iv) },
		func(ctx context.Context, env farm.Env, iv int) (AblationResult, error) {
			res, ss, err := runEncodeConfiguredIn(env.Space, wl, func(c *codec.Config) { c.PrefetchInterval = iv })
			if err != nil {
				return AblationResult{}, err
			}
			return AblationResult{Name: fmt.Sprintf("prefetch=%d", iv), Encode: res, Bytes: ss.TotalBytes()}, nil
		})
}

// RunStagingAblationPool compares the full MoMuSys-style per-VOP
// staging model against a lean codec without it — the design choice
// that dominates L2-level traffic (README.md, `-sweep staging`).
func RunStagingAblationPool(ctx context.Context, p *farm.Pool, wl Workload) ([]AblationResult, error) {
	return farm.MapLabeled(ctx, p, []bool{false, true},
		func(i int, disable bool) string {
			if disable {
				return "staging=off"
			}
			return "staging=on"
		},
		func(ctx context.Context, env farm.Env, disable bool) (AblationResult, error) {
			name := "staging=on"
			if disable {
				name = "staging=off"
			}
			res, ss, err := runEncodeConfiguredIn(env.Space, wl, func(c *codec.Config) { c.DisableStaging = disable })
			if err != nil {
				return AblationResult{}, err
			}
			return AblationResult{Name: name, Encode: res, Bytes: ss.TotalBytes()}, nil
		})
}

// RunColoringAblationPool compares cache-coloured allocation against
// naive page-aligned allocation: without colouring, the three planes of
// the masked SAD kernel fall into the same L1 set and thrash. Each
// configuration gets its own job (and so its own Space to colour or
// not).
func RunColoringAblationPool(ctx context.Context, p *farm.Pool, wl Workload) ([]AblationResult, error) {
	return farm.MapLabeled(ctx, p, []bool{true, false},
		func(i int, color bool) string {
			if color {
				return "coloring=on"
			}
			return "coloring=off"
		},
		func(ctx context.Context, env farm.Env, color bool) (AblationResult, error) {
			name := "coloring=on"
			space := env.Space
			if !color {
				name = "coloring=off"
				space.DisableColoring()
			}
			res, ss, err := runEncodeConfiguredIn(space, wl, func(*codec.Config) {})
			if err != nil {
				return AblationResult{}, err
			}
			return AblationResult{Name: name, Encode: res, Bytes: ss.TotalBytes()}, nil
		})
}

// runEncodeConfiguredIn encodes wl on the O2 model in the given address
// space with a modified codec configuration.
func runEncodeConfiguredIn(space *simmem.Space, wl Workload, mod func(*codec.Config)) (perf.Metrics, *codec.SessionStream, error) {
	wl = wl.normalize()
	frames := wl.frames(space)
	m := perf.O2R12K1MB()
	h := m.NewHierarchy()
	cfg := wl.sessionConfig()
	mod(&cfg.Object)
	ss, err := codec.EncodeSession(cfg, space, h, nil, frames)
	if err != nil {
		return perf.Metrics{}, nil, err
	}
	return perf.Compute(m, h.Snapshot()), ss, nil
}

// FormatAblation renders ablation results as an aligned text block.
func FormatAblation(title string, results []AblationResult) string {
	out := title + "\n"
	out += fmt.Sprintf("  %-16s %9s %9s %10s %12s %10s\n",
		"config", "L1miss%", "L2miss%", "DRAM%", "L2DRAM MB/s", "bytes")
	for _, r := range results {
		out += fmt.Sprintf("  %-16s %8.3f%% %8.2f%% %9.2f%% %12.1f %10d\n",
			r.Name, r.Encode.L1MissRate*100, r.Encode.L2MissRate*100,
			r.Encode.DRAMTimeFrac*100, r.Encode.L2DRAMMBps, r.Bytes)
	}
	return out
}
