package harness

import (
	"strings"
	"testing"

	"repro/internal/perf"
)

// Tests use reduced frame sizes/counts: every reported metric is a rate
// or ratio, insensitive to scale (asserted by TestRunLengthInvariance).

func testWL(objects, layers int) Workload {
	return Workload{W: 160, H: 128, Frames: 6, Objects: objects, Layers: layers}
}

func TestWorkloadNormalize(t *testing.T) {
	wl := Workload{W: 64, H: 48}.normalize()
	if wl.Frames != DefaultFrames || wl.Objects != 1 || wl.Layers != 1 || wl.QP != 8 || wl.Seed == 0 {
		t.Fatalf("normalize wrong: %+v", wl)
	}
	if wl.Label() != "64x48" {
		t.Fatalf("label %q", wl.Label())
	}
}

func TestRunEncodeProducesSaneMetrics(t *testing.T) {
	machines := perf.PaperMachines()
	res, ss, err := RunEncode(machines, testWL(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || ss == nil || ss.TotalBytes() == 0 {
		t.Fatal("missing results or stream")
	}
	for _, r := range res {
		m := r.Whole
		if m.L1MissRate <= 0 || m.L1MissRate > 0.05 {
			t.Errorf("%s: implausible L1 miss rate %v", r.Machine.Name, m.L1MissRate)
		}
		if m.Cycles <= 0 || m.Seconds <= 0 {
			t.Errorf("%s: nonpositive time", r.Machine.Name)
		}
		if _, ok := r.Phases["VopEncode"]; !ok {
			t.Errorf("%s: missing VopEncode phase", r.Machine.Name)
		}
	}
	// L1-level counters are machine independent (same geometry), L2
	// differs: the 8MB machine must not miss more than the 1MB machine.
	if res[0].Whole.Raw.L1Misses != res[2].Whole.Raw.L1Misses {
		t.Error("L1 misses differ across machines with identical L1s")
	}
	if res[2].Whole.Raw.L2Misses > res[0].Whole.Raw.L2Misses {
		t.Error("8MB L2 misses more than 1MB L2")
	}
}

func TestRunDecodeProducesSaneMetrics(t *testing.T) {
	machines := perf.PaperMachines()
	wl := testWL(1, 1)
	_, ss, err := RunEncode(machines[:1], wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDecode(machines, wl, ss)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Whole.Raw.References() == 0 {
			t.Fatal("decode produced no references")
		}
		if _, ok := r.Phases["VopDecode"]; !ok {
			t.Errorf("%s: missing VopDecode phase", r.Machine.Name)
		}
	}
}

func TestMultiObjectMultiLayerRuns(t *testing.T) {
	machines := []perf.Machine{perf.OnyxR10K2MB()}
	encRes, decRes, err := EncodeDecode(machines, testWL(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if encRes[0].Whole.Raw.References() == 0 || decRes[0].Whole.Raw.References() == 0 {
		t.Fatal("empty multi-object run")
	}
}

// TestRunLengthInvariance checks the README.md claim that the reported
// rates are insensitive to sequence length, justifying short runs.
func TestRunLengthInvariance(t *testing.T) {
	m := []perf.Machine{perf.O2R12K1MB()}
	short := Workload{W: 160, H: 128, Frames: 5}
	long := Workload{W: 160, H: 128, Frames: 10}
	sRes, _, err := RunEncode(m, short)
	if err != nil {
		t.Fatal(err)
	}
	lRes, _, err := RunEncode(m, long)
	if err != nil {
		t.Fatal(err)
	}
	s, l := sRes[0].Whole, lRes[0].Whole
	if !within(s.L1MissRate, l.L1MissRate, 0.5) {
		t.Errorf("L1 miss rate varies with length: %v vs %v", s.L1MissRate, l.L1MissRate)
	}
	if !within(s.DRAMTimeFrac+1e-6, l.DRAMTimeFrac+1e-6, 0.6) {
		t.Errorf("DRAM time varies with length: %v vs %v", s.DRAMTimeFrac, l.DRAMTimeFrac)
	}
}

func within(a, b, relTol float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	max := a
	if b > max {
		max = b
	}
	return d/max <= relTol
}

func TestTableSpecs(t *testing.T) {
	specs := TableSpecs()
	if len(specs) != 6 {
		t.Fatalf("want 6 table specs, got %d", len(specs))
	}
	for n := 2; n <= 7; n++ {
		s, err := TableSpecByNum(n)
		if err != nil || s.Num != n {
			t.Errorf("TableSpecByNum(%d): %+v, %v", n, s, err)
		}
	}
	if _, err := TableSpecByNum(9); err == nil {
		t.Error("table 9 should not exist")
	}
	// Encode/decode pairing and object/layer counts per the paper.
	want := []struct {
		enc      bool
		obj, lay int
	}{
		{true, 1, 1}, {false, 1, 1}, {true, 3, 1}, {false, 3, 1}, {true, 3, 2}, {false, 3, 2},
	}
	for i, s := range specs {
		if s.Encode != want[i].enc || s.Objects != want[i].obj || s.Layers != want[i].lay {
			t.Errorf("spec %d wrong: %+v", s.Num, s)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, want := range []string{"32 KB", "128 B lines", "133 MHz", "SGI O2", "SGI Onyx2 IR", "8 MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestSweepSeriesGrouping(t *testing.T) {
	points := []ObjectSweepPoint{
		{Label: "1 VO, 1 layer", Resolution: "a", EncodeL1: 1, DecodeL1: 2, EncodeL2: 3, DecodeL2: 4},
		{Label: "3 VOs, 1 layer each", Resolution: "a", EncodeL1: 5, DecodeL1: 6, EncodeL2: 7, DecodeL2: 8},
		{Label: "1 VO, 1 layer", Resolution: "b", EncodeL1: 9, DecodeL1: 10, EncodeL2: 11, DecodeL2: 12},
	}
	s3 := Figure3Series(points)
	if len(s3) != 2 {
		t.Fatalf("want 2 series (one per resolution), got %d", len(s3))
	}
	if s3[0].Y[0] != 1 || s3[0].Y[1] != 2 || s3[0].Y[2] != 5 {
		t.Fatalf("figure 3 series values wrong: %v", s3[0].Y)
	}
	s4 := Figure4Series(points)
	if s4[1].Y[0] != 11 {
		t.Fatalf("figure 4 series values wrong: %v", s4[1].Y)
	}
}
