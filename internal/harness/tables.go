package harness

import (
	"context"
	"fmt"

	"repro/internal/farm"
	"repro/internal/perf"
)

// Resolutions used by the paper's tables: PAL 720×576 and a 1024×768
// size between NTSC and HDTV.
var TableResolutions = [][2]int{{720, 576}, {1024, 768}}

// TableSpec identifies one of the paper's measurement tables.
type TableSpec struct {
	Num     int
	Title   string
	Encode  bool
	Objects int
	Layers  int
}

// TableSpecs enumerates Tables 2–7 in paper order.
func TableSpecs() []TableSpec {
	return []TableSpec{
		{2, "Video Encoding: One Visual Object, One Layer", true, 1, 1},
		{3, "Video Decoding: One Visual Object, One Layer", false, 1, 1},
		{4, "Video Encoding: Three Visual Objects, One Layer Each", true, 3, 1},
		{5, "Video Decoding: Three Visual Objects, One Layer Each", false, 3, 1},
		{6, "Video Encoding: Three Visual Objects, Two Layers Each", true, 3, 2},
		{7, "Video Decoding: Three Visual Objects, Two Layers Each", false, 3, 2},
	}
}

// TableSpecByNum returns the spec for table n (2..7).
func TableSpecByNum(n int) (TableSpec, error) {
	for _, s := range TableSpecs() {
		if s.Num == n {
			return s, nil
		}
	}
	return TableSpec{}, fmt.Errorf("harness: no table %d", n)
}

// assembleTable lays per-resolution results into the paper's column
// order (resolution outer, machine inner) — identical to what a serial
// loop produces, whatever order the cells were computed in.
func assembleTable(spec TableSpec, cells [][]Result) (*perf.Table, []Result) {
	machines := perf.PaperMachines()
	tab := perf.NewTable(fmt.Sprintf("Table %d. %s", spec.Num, spec.Title))
	var all []Result
	for ri, res := range TableResolutions {
		wl := Workload{W: res[0], H: res[1]}
		for i, r := range cells[ri] {
			tab.AddColumn(fmt.Sprintf("%s %s", wl.Label(), machines[i].Label()), r.Whole)
			all = append(all, r)
		}
	}
	return tab, all
}

// RunTablePool regenerates one of Tables 2–7 with the given sequence
// length (0 = default), fanning the per-resolution measurements out on
// the pool. It also returns the per-column raw results keyed the same
// way as the columns. An encode table measures the encode on all
// machines; a decode table plays the coded stream of an untraced
// encode, or the stream its study already holds. Within one study (see
// WithStudy) each direction of a workload is simulated once, however
// many tables and figures read it.
func RunTablePool(ctx context.Context, p *farm.Pool, spec TableSpec, frames int) (*perf.Table, []Result, error) {
	cells, err := farm.MapLabeled(ctx, p, TableResolutions,
		func(i int, res [2]int) string { return fmt.Sprintf("table%d/%dx%d", spec.Num, res[0], res[1]) },
		func(ctx context.Context, env farm.Env, res [2]int) ([]Result, error) {
			wl := Workload{W: res[0], H: res[1], Frames: frames,
				Objects: spec.Objects, Layers: spec.Layers}
			enc, dec, err := measure(ctx, env.Space, wl, spec.Encode, !spec.Encode)
			if spec.Encode {
				return enc, err
			}
			return dec, err
		})
	if err != nil {
		return nil, nil, err
	}
	tab, all := assembleTable(spec, cells)
	return tab, all, nil
}

// RunTables regenerates several of Tables 2–7 in one batch — the
// multi-workload generation path behind `mp4study -all`. Table pairs
// sharing a workload (2/3, 4/5, 6/7 are the encode/decode views of the
// same configuration) share one farm job per resolution: the workload
// is encoded once, its encode measured if an encode table wants it and
// its stream decoded-and-measured if a decode table does. That turns
// O(tables × resolutions) codec runs into O(workloads), with every
// machine served by capture replay inside RunEncodeCtx/RunDecodeCtx.
// The measurements land in the context's Study, where Table8Pool,
// Figure2Sweep and RunObjectSweepPool read their columns without
// simulating again. Tables return in spec order, byte-identical to
// RunTablePool per spec.
func RunTables(ctx context.Context, p *farm.Pool, specs []TableSpec, frames int) ([]*perf.Table, error) {
	type group struct{ objects, layers int }
	type need struct{ enc, dec bool }
	needs := map[group]*need{}
	var order []group
	for _, spec := range specs {
		g := group{spec.Objects, spec.Layers}
		n, ok := needs[g]
		if !ok {
			n = &need{}
			needs[g] = n
			order = append(order, g)
		}
		if spec.Encode {
			n.enc = true
		} else {
			n.dec = true
		}
	}

	type cellKey struct {
		g   group
		res [2]int
	}
	type cellOut struct{ enc, dec []Result }
	var keys []cellKey
	for _, g := range order {
		for _, res := range TableResolutions {
			keys = append(keys, cellKey{g: g, res: res})
		}
	}
	cells, err := farm.MapLabeled(ctx, p, keys,
		func(i int, k cellKey) string {
			return fmt.Sprintf("tables/%dobj%dlay/%dx%d", k.g.objects, k.g.layers, k.res[0], k.res[1])
		},
		func(ctx context.Context, env farm.Env, k cellKey) (cellOut, error) {
			wl := Workload{W: k.res[0], H: k.res[1], Frames: frames,
				Objects: k.g.objects, Layers: k.g.layers}
			n := needs[k.g]
			enc, dec, err := measure(ctx, env.Space, wl, n.enc, n.dec)
			return cellOut{enc: enc, dec: dec}, err
		})
	if err != nil {
		return nil, err
	}
	byKey := map[cellKey]cellOut{}
	for i, k := range keys {
		byKey[k] = cells[i]
	}

	out := make([]*perf.Table, len(specs))
	for si, spec := range specs {
		specCells := make([][]Result, len(TableResolutions))
		for ri, res := range TableResolutions {
			c := byKey[cellKey{g: group{spec.Objects, spec.Layers}, res: res}]
			if spec.Encode {
				specCells[ri] = c.enc
			} else {
				specCells[ri] = c.dec
			}
		}
		tab, _ := assembleTable(spec, specCells)
		out[si] = tab
	}
	return out, nil
}

// Table1 renders the platform-highlights table (paper Table 1).
func Table1() string {
	out := "Table 1. Common Platform Highlights\n"
	out += fmt.Sprintf("%-18s %s\n", "L1 D-cache", "32 KB, 2-way, 32 B lines")
	out += fmt.Sprintf("%-18s %s\n", "L2 cache", "128 B lines (size varies by machine)")
	out += fmt.Sprintf("%-18s %s\n", "system bus", "64 bits, 133 MHz, split transaction")
	out += fmt.Sprintf("%-18s %s\n", "main memory", "4-way interleaved SDRAM")
	out += fmt.Sprintf("%-18s %s\n", "bus bandwidth", "680 MB/s sustained, 1064 MB/s peak")
	out += fmt.Sprintf("%-18s %s\n", "operating system", "IRIX64 V6.5 (modelled)")
	out += "\nmachines:\n"
	for _, m := range perf.PaperMachines() {
		out += fmt.Sprintf("  %-14s %s, %.0f MHz, L2 %d MB\n",
			m.Name, m.CPU, m.ClockMHz, m.L2.SizeBytes>>20)
	}
	return out
}

// Table8Pool regenerates the burstiness table: per-phase (VopEncode /
// VopDecode) metrics against whole-program metrics, on the R12K/8MB
// machine, at both table resolutions. Cells are "phase (whole)". It is
// the R12K/8MB column of the Tables 2/3 workloads: the per-resolution
// jobs fan out on the pool and read that column from the context's
// Study, simulating only what the study has not measured yet (after
// RunTables, nothing).
func Table8Pool(ctx context.Context, p *farm.Pool, frames int) (*perf.Table, error) {
	col := paperColumn(perf.Onyx2R12K8MB())
	cells, err := farm.MapLabeled(ctx, p, TableResolutions,
		func(i int, res [2]int) string { return fmt.Sprintf("table8/%dx%d", res[0], res[1]) },
		func(ctx context.Context, env farm.Env, res [2]int) ([2]Result, error) {
			enc, dec, err := measure(ctx, env.Space, Workload{W: res[0], H: res[1], Frames: frames}, true, true)
			if err != nil {
				return [2]Result{}, err
			}
			return [2]Result{enc[col], dec[col]}, nil
		})
	if err != nil {
		return nil, err
	}
	tab := &perf.Table{
		Title: "Table 8. Burstiness of VopEncode/VopDecode vs whole program (R12K, 8MB L2C)",
		Cells: map[string][]string{},
		Rows: []string{
			"L1C miss rate",
			"L2C miss rate",
			"L1-L2 b/w (MB/s)",
			"L2-DRAM b/w (MB/s)",
		},
	}
	for ri, res := range TableResolutions {
		wl := Workload{W: res[0], H: res[1]}
		addPhaseColumn(tab, fmt.Sprintf("VopEncode %s", wl.Label()), cells[ri][0], "VopEncode")
		addPhaseColumn(tab, fmt.Sprintf("VopDecode %s", wl.Label()), cells[ri][1], "VopDecode")
	}
	return tab, nil
}

func addPhaseColumn(tab *perf.Table, label string, r Result, phase string) {
	ph, ok := r.Phases[phase]
	if !ok {
		ph = r.Whole
	}
	cells := map[string]string{}
	for _, row := range tab.Rows {
		cells[row] = fmt.Sprintf("%s (%s)", ph.RowValue(row), r.Whole.RowValue(row))
	}
	tab.AddCustomColumn(label, cells)
}
