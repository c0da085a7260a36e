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

// tableRuns are the runs Table spec reads: its two TableResolutions at
// its object and layer count, in its direction.
func tableRuns(spec TableSpec, frames int) []paperRun {
	shape := Workload{Frames: frames, Objects: spec.Objects, Layers: spec.Layers}
	return runsAt(TableResolutions, shape, spec.Encode, !spec.Encode)
}

// assembleTable lays the results of spec's runs (tableRuns) into the
// paper's column order: resolution outer, machine inner.
func assembleTable(spec TableSpec, runs []runResults) (*perf.Table, []Result) {
	machines := perf.PaperMachines()
	tab := perf.NewTable(fmt.Sprintf("Table %d. %s", spec.Num, spec.Title))
	var all []Result
	for ri, res := range TableResolutions {
		wl := Workload{W: res[0], H: res[1]}
		cells := runs[ri].dec
		if spec.Encode {
			cells = runs[ri].enc
		}
		for i, r := range cells {
			tab.AddColumn(fmt.Sprintf("%s %s", wl.Label(), machines[i].Label()), r.Whole)
			all = append(all, r)
		}
	}
	return tab, all
}

// RunTablePool regenerates one of Tables 2–7 with the given sequence
// length (0 = default), measuring its two workloads on the pool. It
// also returns the per-column raw results keyed the same way as the
// columns. An encode table measures the encode on all machines; a
// decode table plays the coded stream of an untraced encode, or the
// stream its study already holds. Within one study (see WithStudy) each
// direction of a workload is simulated once, however many tables and
// figures read it.
func RunTablePool(ctx context.Context, p *farm.Pool, spec TableSpec, frames int) (*perf.Table, []Result, error) {
	runs, _, err := measureRuns(ctx, p, tableRuns(spec, frames))
	if err != nil {
		return nil, nil, err
	}
	tab, all := assembleTable(spec, runs)
	return tab, all, nil
}

// RunTables regenerates several of Tables 2–7 from one batch of runs
// (measureRuns): an encode table and a decode table of one
// configuration (2/3, 4/5, 6/7) share one job per resolution, so each
// workload is encoded once, and the batch starts its largest job first.
// The measurements land in the context's Study. Tables return in spec
// order, byte-identical to RunTablePool per spec.
func RunTables(ctx context.Context, p *farm.Pool, specs []TableSpec, frames int) ([]*perf.Table, error) {
	var runs []paperRun
	for _, spec := range specs {
		runs = append(runs, tableRuns(spec, frames)...)
	}
	measured, _, err := measureRuns(ctx, p, runs)
	if err != nil {
		return nil, err
	}
	n := len(TableResolutions)
	out := make([]*perf.Table, len(specs))
	for i, spec := range specs {
		out[i], _ = assembleTable(spec, measured[i*n:(i+1)*n])
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

// table8Runs are the runs Table 8 reads: both directions of the
// Tables 2/3 workloads.
func table8Runs(frames int) []paperRun {
	return runsAt(TableResolutions, Workload{Frames: frames}, true, true)
}

// Table8Pool regenerates the burstiness table: per-phase (VopEncode /
// VopDecode) metrics against whole-program metrics, on the R12K/8MB
// machine, at both table resolutions. Cells are "phase (whole)". It is
// the R12K/8MB column of the Tables 2/3 workloads, measured on the pool
// in the context's Study, which simulates only what it has not measured
// yet.
func Table8Pool(ctx context.Context, p *farm.Pool, frames int) (*perf.Table, error) {
	col := paperColumn(perf.Onyx2R12K8MB())
	runs, _, err := measureRuns(ctx, p, table8Runs(frames))
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
		addPhaseColumn(tab, fmt.Sprintf("VopEncode %s", wl.Label()), runs[ri].enc[col], "VopEncode")
		addPhaseColumn(tab, fmt.Sprintf("VopDecode %s", wl.Label()), runs[ri].dec[col], "VopDecode")
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
