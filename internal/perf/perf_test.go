package perf

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

func TestPaperMachines(t *testing.T) {
	ms := PaperMachines()
	if len(ms) != 3 {
		t.Fatalf("want 3 machines, got %d", len(ms))
	}
	wantLabels := []string{"R12K 1MB", "R10K 2MB", "R12K 8MB"}
	for i, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("machine %s invalid: %v", m.Name, err)
		}
		if m.Label() != wantLabels[i] {
			t.Errorf("label %q want %q", m.Label(), wantLabels[i])
		}
		if m.L1.SizeBytes != 32<<10 || m.L1.LineBytes != 32 {
			t.Errorf("%s: L1 geometry wrong: %+v", m.Name, m.L1)
		}
		if m.L2.LineBytes != 128 {
			t.Errorf("%s: L2 line size wrong", m.Name)
		}
	}
	if ms[0].L2.SizeBytes != 1<<20 || ms[1].L2.SizeBytes != 2<<20 || ms[2].L2.SizeBytes != 8<<20 {
		t.Error("L2 sizes are not 1/2/8 MB")
	}
	if ms[1].HasPrefetchHitCounter {
		t.Error("R10K must not have a prefetch-hit counter (paper: n/a)")
	}
	if !ms[0].HasPrefetchHitCounter || !ms[2].HasPrefetchHitCounter {
		t.Error("R12K machines must have the prefetch-hit counter")
	}
}

func TestMachineValidateRejectsBad(t *testing.T) {
	m := O2R12K1MB()
	m.ClockMHz = 0
	if m.Validate() == nil {
		t.Error("zero clock accepted")
	}
	m = O2R12K1MB()
	m.L1VisibleFrac = 1.5
	if m.Validate() == nil {
		t.Error("visible fraction > 1 accepted")
	}
	m = O2R12K1MB()
	m.L2.LineBytes = 100
	if m.Validate() == nil {
		t.Error("non-pow2 line accepted")
	}
}

func TestComputeBasicRatios(t *testing.T) {
	m := Onyx2R12K8MB()
	s := cache.Stats{
		Loads: 900_000, Stores: 100_000, Ops: 2_000_000,
		L1Misses: 1000, L1Writebacks: 300,
		L2Misses: 100, L2Writebacks: 30,
		Prefetches: 1000, PrefetchL1Hits: 550,
	}
	mt := Compute(m, s)
	if math.Abs(mt.L1MissRate-0.001) > 1e-9 {
		t.Errorf("L1MissRate=%v want 0.001", mt.L1MissRate)
	}
	if math.Abs(mt.L1LineReuse-999) > 1e-6 {
		t.Errorf("L1LineReuse=%v want 999", mt.L1LineReuse)
	}
	if math.Abs(mt.L2MissRate-0.1) > 1e-9 {
		t.Errorf("L2MissRate=%v want 0.1", mt.L2MissRate)
	}
	if math.Abs(mt.L2LineReuse-9) > 1e-9 {
		t.Errorf("L2LineReuse=%v want 9", mt.L2LineReuse)
	}
	if math.Abs(mt.PrefetchL1Miss-0.45) > 1e-9 {
		t.Errorf("PrefetchL1Miss=%v want 0.45", mt.PrefetchL1Miss)
	}
	if mt.Cycles <= 0 || mt.Seconds <= 0 {
		t.Error("nonpositive time")
	}
	// Traffic: (1000+300)*32 bytes over the run.
	wantL1L2 := 1300.0 * 32 / mt.Seconds / 1e6
	if math.Abs(mt.L1L2MBps-wantL1L2) > 1e-6 {
		t.Errorf("L1L2MBps=%v want %v", mt.L1L2MBps, wantL1L2)
	}
	wantL2D := 130.0 * 128 / mt.Seconds / 1e6
	if math.Abs(mt.L2DRAMMBps-wantL2D) > 1e-6 {
		t.Errorf("L2DRAMMBps=%v want %v", mt.L2DRAMMBps, wantL2D)
	}
}

func TestComputeZeroSafe(t *testing.T) {
	mt := Compute(O2R12K1MB(), cache.Stats{})
	for name, v := range map[string]float64{
		"L1MissRate": mt.L1MissRate, "L2MissRate": mt.L2MissRate,
		"L1LineReuse": mt.L1LineReuse, "L2LineReuse": mt.L2LineReuse,
		"DRAMTimeFrac": mt.DRAMTimeFrac, "L1L2MBps": mt.L1L2MBps,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s is %v on zero stats", name, v)
		}
	}
}

func TestPrefetchNA(t *testing.T) {
	mt := Compute(OnyxR10K2MB(), cache.Stats{Prefetches: 10, PrefetchL1Hits: 5})
	if mt.PrefetchL1MissString() != "n/a" {
		t.Errorf("R10K prefetch string = %q want n/a", mt.PrefetchL1MissString())
	}
	mt2 := Compute(O2R12K1MB(), cache.Stats{Prefetches: 10, PrefetchL1Hits: 5, Loads: 1})
	if mt2.PrefetchL1MissString() != "50.0%" {
		t.Errorf("R12K prefetch string = %q want 50.0%%", mt2.PrefetchL1MissString())
	}
}

func TestQuickTimeFractionsBounded(t *testing.T) {
	f := func(loads, stores, l1m, l2m uint32, ops uint32) bool {
		s := cache.Stats{
			Loads: uint64(loads), Stores: uint64(stores), Ops: uint64(ops),
		}
		// Enforce counter consistency: misses <= refs, l2m <= l1m.
		refs := s.References()
		s.L1Misses = uint64(l1m) % (refs + 1)
		s.L2Misses = uint64(l2m) % (s.L1Misses + 1)
		for _, m := range PaperMachines() {
			mt := Compute(m, s)
			if mt.L1MissTimeFrac < 0 || mt.L1MissTimeFrac > 1 ||
				mt.DRAMTimeFrac < 0 || mt.DRAMTimeFrac > 1 {
				return false
			}
			if mt.L1MissTimeFrac+mt.DRAMTimeFrac > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMoreMissesMoreTime(t *testing.T) {
	// Monotonicity: with everything else equal, more L2 misses must not
	// decrease modelled DRAM stall fraction.
	f := func(l2a, l2b uint16) bool {
		base := cache.Stats{Loads: 1_000_000, Ops: 1_000_000, L1Misses: 70000}
		a, b := base, base
		a.L2Misses = uint64(l2a) % 60000
		b.L2Misses = uint64(l2b) % 60000
		if a.L2Misses > b.L2Misses {
			a, b = b, a
		}
		m := O2R12K1MB()
		return Compute(m, a).DRAMTimeFrac <= Compute(m, b).DRAMTimeFrac+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X. Test")
	mt := Compute(O2R12K1MB(), cache.Stats{
		Loads: 1000, Stores: 200, L1Misses: 12, L2Misses: 3, Ops: 5000,
		Prefetches: 10, PrefetchL1Hits: 4,
	})
	tab.AddColumn("720x576 R12K 1MB", mt)
	out := tab.String()
	for _, want := range []string{"Table X. Test", "L1C miss rate", "DRAM time", "720x576 R12K 1MB", "prefetch L1C miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tab.Columns) != 1 {
		t.Fatal("column count wrong")
	}
}

func TestRowValueUnknown(t *testing.T) {
	mt := Metrics{}
	if mt.RowValue("no such row") != "?" {
		t.Error("unknown row should render '?'")
	}
}

func TestSeriesWrite(t *testing.T) {
	s := Series{Label: "L2 miss rate", X: []string{"720x576", "1024x768"}, Y: []float64{0.3, 0.2}, YUnit: "%"}
	var sb strings.Builder
	s.Write(&sb)
	if !strings.Contains(sb.String(), "720x576") || !strings.Contains(sb.String(), "#") {
		t.Errorf("series rendering wrong:\n%s", sb.String())
	}
}

func TestHumanSize(t *testing.T) {
	if humanSize(1<<20) != "1MB" || humanSize(32<<10) != "32KB" || humanSize(100) != "100B" {
		t.Error("humanSize wrong")
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	m := O2R12K1MB()
	s := cache.Stats{Loads: 1_000_000, Stores: 100_000, Ops: 2_000_000,
		L1Misses: 5000, L2Misses: 800}
	mt := Compute(m, s)
	sum := mt.IssueTimeFrac + mt.L1MissTimeFrac + mt.DRAMTimeFrac
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("breakdown fractions sum to %v", sum)
	}
	if !strings.Contains(mt.Breakdown(), "issue") {
		t.Fatal("Breakdown string malformed")
	}
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append("a", 1)
	s.Append("b", 2)
	if !reflect.DeepEqual(s.X, []string{"a", "b"}) || !reflect.DeepEqual(s.Y, []float64{1, 2}) {
		t.Fatalf("append: %+v", s)
	}
}
