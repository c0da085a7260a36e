package perf

import (
	"fmt"
	"io"
	"strings"
)

// MetricRows is the row order of the paper's Tables 2–7.
var MetricRows = []string{
	"L1C miss rate",
	"L1C miss time",
	"L1C line reuse",
	"L2C miss rate",
	"L2C line reuse",
	"DRAM time",
	"L1-L2 b/w (MB/s)",
	"L2-DRAM b/w (MB/s)",
	"prefetch L1C miss",
}

// RowValue formats the named metric row for one column.
func (mt Metrics) RowValue(row string) string {
	switch row {
	case "L1C miss rate":
		return fmt.Sprintf("%.2f%%", mt.L1MissRate*100)
	case "L1C miss time":
		return fmt.Sprintf("%.2f%%", mt.L1MissTimeFrac*100)
	case "L1C line reuse":
		return fmt.Sprintf("%.1f", mt.L1LineReuse)
	case "L2C miss rate":
		return fmt.Sprintf("%.2f%%", mt.L2MissRate*100)
	case "L2C line reuse":
		return fmt.Sprintf("%.1f", mt.L2LineReuse)
	case "DRAM time":
		return fmt.Sprintf("%.1f%%", mt.DRAMTimeFrac*100)
	case "L1-L2 b/w (MB/s)":
		return fmt.Sprintf("%.1f", mt.L1L2MBps)
	case "L2-DRAM b/w (MB/s)":
		return fmt.Sprintf("%.1f", mt.L2DRAMMBps)
	case "prefetch L1C miss":
		return mt.PrefetchL1MissString()
	default:
		return "?"
	}
}

// Table is a formatted experiment table in the paper's layout: metric
// rows by machine/resolution columns.
type Table struct {
	Title   string
	Columns []string // e.g. "720x576 R12K 1MB"
	Cells   map[string][]string
	Rows    []string
}

// NewTable creates an empty table with the standard metric rows.
func NewTable(title string) *Table {
	return &Table{
		Title: title,
		Cells: make(map[string][]string),
		Rows:  append([]string(nil), MetricRows...),
	}
}

// AddColumn appends one result column.
func (t *Table) AddColumn(label string, mt Metrics) {
	t.Columns = append(t.Columns, label)
	for _, row := range t.Rows {
		t.Cells[row] = append(t.Cells[row], mt.RowValue(row))
	}
}

// AddCustomColumn appends a column of preformatted cells (used by
// Table 8, whose rows differ from the standard metric set).
func (t *Table) AddCustomColumn(label string, cells map[string]string) {
	t.Columns = append(t.Columns, label)
	for _, row := range t.Rows {
		t.Cells[row] = append(t.Cells[row], cells[row])
	}
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("metrics")
	for _, r := range t.Rows {
		if len(r) > widths[0] {
			widths[0] = len(r)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if cells := t.Cells[r]; i < len(cells) && len(cells[i]) > widths[i+1] {
				widths[i+1] = len(cells[i])
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%-*s", widths[0], "metrics")
	for i, c := range t.Columns {
		fmt.Fprintf(w, "  %*s", widths[i+1], c)
	}
	fmt.Fprintln(w)
	total := widths[0]
	for _, wd := range widths[1:] {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", widths[0], r)
		for i := range t.Columns {
			cell := ""
			if cells := t.Cells[r]; i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(w, "  %*s", widths[i+1], cell)
		}
		fmt.Fprintln(w)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Write(&sb)
	return sb.String()
}

// Series is a labelled data series for the paper's figures.
type Series struct {
	Label  string
	XLabel string
	X      []string
	Y      []float64
	YUnit  string
}

// Append adds one (x, y) point to the series.
func (s *Series) Append(x string, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Write renders the series as aligned "x y" text plus a crude ASCII bar
// chart, which is how the harness "draws" the paper's figures.
func (s Series) Write(w io.Writer) {
	fmt.Fprintf(w, "%s (%s)\n", s.Label, s.YUnit)
	maxY := 0.0
	for _, y := range s.Y {
		if y > maxY {
			maxY = y
		}
	}
	for i, x := range s.X {
		bar := 0
		if maxY > 0 {
			bar = int(s.Y[i] / maxY * 40)
		}
		fmt.Fprintf(w, "  %-16s %10.4f %s\n", x, s.Y[i], strings.Repeat("#", bar))
	}
}
