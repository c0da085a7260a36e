package harness

import (
	"context"
	"fmt"

	"repro/internal/farm"
	"repro/internal/perf"
)

// Figure2Sizes is the growing-image-size sweep (the paper reports
// 720×576 through 2048×1024; we add smaller points to show the trend).
var Figure2Sizes = [][2]int{{512, 384}, {720, 576}, {1024, 768}, {1440, 960}, {2048, 1024}}

// Figure2Pool regenerates "Memory Statistics for Growing Image Size
// (Decoding, 1MB L2C)": L2 miss rate, L2–DRAM bandwidth and DRAM stall
// time as functions of frame size, all of which the paper shows flat or
// falling. Every size is one pool job measuring its decode; the pool
// returns the points in size order, so the result is byte-identical to
// a serial sweep.
func Figure2Pool(ctx context.Context, p *farm.Pool, frames int) ([]perf.Series, error) {
	return Figure2Sweep(ctx, p, frames, Figure2Sizes)
}

// figure2Runs are the runs Figure 2 reads over sizes: their decodes.
func figure2Runs(frames int, sizes [][2]int) []paperRun {
	return runsAt(sizes, Workload{Frames: frames}, false, true)
}

// Figure2Sweep is Figure2Pool over a caller-chosen size list (the
// determinism tests sweep small sizes; the paper figure uses
// Figure2Sizes). Each point is the O2 (R12K/1MB) column of the size's
// decode measured on the paper machines in the context's Study: in a
// study that ran Table 3, the 720×576 and 1024×768 points are Table 3's
// and only the other sizes simulate.
func Figure2Sweep(ctx context.Context, p *farm.Pool, frames int, sizes [][2]int) ([]perf.Series, error) {
	col := paperColumn(perf.O2R12K1MB())
	runs, _, err := measureRuns(ctx, p, figure2Runs(frames, sizes))
	if err != nil {
		return nil, err
	}
	missRate := perf.Series{Label: "Figure 2a: L2C miss rate (decode, 1MB L2C)", YUnit: "%"}
	bw := perf.Series{Label: "Figure 2b: L2-DRAM bandwidth (decode, 1MB L2C)", YUnit: "MB/s"}
	stall := perf.Series{Label: "Figure 2c: DRAM stall time (decode, 1MB L2C)", YUnit: "%"}
	for i, r := range runs {
		whole := r.dec[col].Whole
		x := Workload{W: sizes[i][0], H: sizes[i][1]}.Label()
		missRate.Append(x, whole.L2MissRate*100)
		bw.Append(x, whole.L2DRAMMBps)
		stall.Append(x, whole.DRAMTimeFrac*100)
	}
	return []perf.Series{missRate, bw, stall}, nil
}

// ObjectSweepPoint is one bar of Figures 3/4: a (VO count, layer count)
// configuration measured for encode and decode at one resolution.
type ObjectSweepPoint struct {
	Label      string
	Objects    int
	Layers     int
	Resolution string
	EncodeL1   float64 // percent
	DecodeL1   float64
	EncodeL2   float64
	DecodeL2   float64
}

// ObjectSweepConfigs are the paper's three bar groups.
var ObjectSweepConfigs = []struct {
	Objects, Layers int
	Label           string
}{
	{1, 1, "1 VO, 1 layer"},
	{3, 1, "3 VOs, 1 layer each"},
	{3, 2, "3 VOs, 2 layers each"},
}

// objectSweepRuns are the runs Figures 3/4 read: both directions of
// the six workloads of Tables 2–7, resolution outer, configuration
// inner.
func objectSweepRuns(frames int) []paperRun {
	var runs []paperRun
	for _, res := range TableResolutions {
		for _, c := range ObjectSweepConfigs {
			wl := Workload{W: res[0], H: res[1], Frames: frames, Objects: c.Objects, Layers: c.Layers}
			runs = append(runs, paperRun{wl, true, true})
		}
	}
	return runs
}

// RunObjectSweepPool measures the Figures 3/4 sweep on the R10K/2MB
// machine (the machine the paper plots), on the pool; the points return
// in the paper's order (resolution outer, configuration inner). The
// pairs are the six workloads of Tables 2–7, so each point is their
// R10K/2MB column, read from the context's Study, which simulates only
// what it has not measured yet.
func RunObjectSweepPool(ctx context.Context, p *farm.Pool, frames int) ([]ObjectSweepPoint, error) {
	col := paperColumn(perf.OnyxR10K2MB())
	runs := objectSweepRuns(frames)
	measured, _, err := measureRuns(ctx, p, runs)
	if err != nil {
		return nil, err
	}
	points := make([]ObjectSweepPoint, len(runs))
	for i, r := range runs {
		e, d := measured[i].enc[col].Whole, measured[i].dec[col].Whole
		points[i] = ObjectSweepPoint{
			Label:      ObjectSweepConfigs[i%len(ObjectSweepConfigs)].Label,
			Objects:    r.wl.Objects,
			Layers:     r.wl.Layers,
			Resolution: r.wl.Label(),
			EncodeL1:   e.L1MissRate * 100,
			DecodeL1:   d.L1MissRate * 100,
			EncodeL2:   e.L2MissRate * 100,
			DecodeL2:   d.L2MissRate * 100,
		}
	}
	return points, nil
}

// Figure3Series converts sweep points into the Figure 3 bar series
// (L1C miss rates for varying numbers of objects and layers).
func Figure3Series(points []ObjectSweepPoint) []perf.Series {
	return sweepSeries(points, "Figure 3: L1C miss rate", func(p ObjectSweepPoint) (float64, float64) {
		return p.EncodeL1, p.DecodeL1
	})
}

// Figure4Series converts sweep points into the Figure 4 bar series
// (L2C miss rates).
func Figure4Series(points []ObjectSweepPoint) []perf.Series {
	return sweepSeries(points, "Figure 4: L2C miss rate", func(p ObjectSweepPoint) (float64, float64) {
		return p.EncodeL2, p.DecodeL2
	})
}

func sweepSeries(points []ObjectSweepPoint, title string, pick func(ObjectSweepPoint) (enc, dec float64)) []perf.Series {
	var out []perf.Series
	byRes := map[string][]ObjectSweepPoint{}
	var resOrder []string
	for _, p := range points {
		if _, ok := byRes[p.Resolution]; !ok {
			resOrder = append(resOrder, p.Resolution)
		}
		byRes[p.Resolution] = append(byRes[p.Resolution], p)
	}
	for _, res := range resOrder {
		s := perf.Series{Label: fmt.Sprintf("%s, %s (R10K 2MB)", title, res), YUnit: "%"}
		for _, p := range byRes[res] {
			e, d := pick(p)
			s.Append("encode "+p.Label, e)
			s.Append("decode "+p.Label, d)
		}
		out = append(out, s)
	}
	return out
}
