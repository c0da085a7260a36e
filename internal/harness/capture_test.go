package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/memo"
	"repro/internal/trace"
)

// TestCaptureProvenanceCoversEveryWorkloadField: every Workload field
// reaches the provenance key, so two workloads that capture differently
// cannot share memo cells; the spellings normalize maps together share
// one key; and the code version is part of the preimage. A field added
// to Workload but left out of the preimage fails here.
func TestCaptureProvenanceCoversEveryWorkloadField(t *testing.T) {
	base := Workload{W: 96, H: 80}.normalize()
	want := CaptureProvenance(base)
	wlType := reflect.TypeOf(Workload{})
	for i := 0; i < wlType.NumField(); i++ {
		field := wlType.Field(i)
		if !field.IsExported() {
			t.Errorf("Workload.%s is unexported: the preimage cannot see it", field.Name)
			continue
		}
		wl := base
		v := reflect.ValueOf(&wl).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		default:
			t.Fatalf("Workload.%s has kind %s: teach this test to change it", field.Name, v.Kind())
		}
		if CaptureProvenance(wl) == want {
			t.Errorf("Workload.%s does not reach the provenance key", field.Name)
		}
	}

	same := []struct {
		name string
		a, b Workload
	}{
		{"Frames 0 vs 6", Workload{W: 96, H: 80}, Workload{W: 96, H: 80, Frames: DefaultFrames}},
		{"Seed 0 vs 1", Workload{W: 96, H: 80}, Workload{W: 96, H: 80, Seed: 1}},
		{"QP 0 vs 8", Workload{W: 96, H: 80}, Workload{W: 96, H: 80, QP: 8}},
		{"Objects 0 vs 1", Workload{W: 96, H: 80}, Workload{W: 96, H: 80, Objects: 1}},
		{"Layers 0 vs 1", Workload{W: 96, H: 80}, Workload{W: 96, H: 80, Layers: 1}},
	}
	for _, c := range same {
		if CaptureProvenance(c.a) != CaptureProvenance(c.b) {
			t.Errorf("%s: one capture under two keys", c.name)
		}
	}

	if CaptureProvenance(base) != captureProvenance(CodeVersion, base) {
		t.Error("CaptureProvenance does not key by CodeVersion")
	}
	if captureProvenance(CodeVersion, base) == captureProvenance(CodeVersion+"x", base) {
		t.Error("the code version does not reach the provenance key")
	}
}

// TestStudySharesOneCapturePerWorkload: a geometry and a policy sweep of
// one workload in one study replay one capture, and a second study on
// the warm memo captures, filters and replays nothing — with output
// identical to the first study's.
func TestStudySharesOneCapturePerWorkload(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2}
	sizes := []int{512 << 10, 1 << 20}
	policies := PolicyAxisConfigs([]cache.Policy{cache.PolicyLRU, cache.PolicyFIFO})
	mc, err := memo.New(memo.Config{Version: CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	// study runs both sweeps in a fresh study on mc (nil: memo off).
	study := func(mc *memo.Cache) ([][]GeometryPoint, TraceUsage) {
		t.Helper()
		s := NewStudy(true)
		s.SetMemo(mc)
		ctx := WithStudy(context.Background(), s)
		geometry, err := RunGeometrySweepPool(ctx, nil, wl, GeometryL1Configs()[:2], sizes)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := RunGeometrySweepPool(ctx, nil, wl, policies, sizes)
		if err != nil {
			t.Fatal(err)
		}
		return [][]GeometryPoint{geometry, policy}, s.Usage()
	}

	cold, u := study(mc)
	if u.Traces != 1 {
		t.Fatalf("cold study recorded %d full traces, want 1 shared by both sweeps (%+v)", u.Traces, u)
	}
	warm, u := study(mc)
	if u.Traces != 0 || u.L2Traces != 0 || u.Replays != 0 || u.MemoMisses != 0 {
		t.Fatalf("warm study usage = %+v, want no capture, filter, replay or miss", u)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm study's sweeps differ from the cold study's")
	}
	plain, u := study(nil)
	if !reflect.DeepEqual(plain, cold) {
		t.Fatal("memoized sweeps differ from unmemoized sweeps")
	}
	if u.Traces != 1 || u.MemoHits+u.MemoMisses != 0 {
		t.Fatalf("unmemoized study usage = %+v, want 1 capture and no memo lookups", u)
	}
}

// TestStudyEncodeTraceCapturesOnce: goroutines that ask one study for
// the same workload at once share one capture; the first captures and
// the rest wait for it.
func TestStudyEncodeTraceCapturesOnce(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 1}
	s := NewStudy(true)
	const callers = 8
	got := make([]*trace.Trace, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the callers spell the workload's defaults out: the
			// table is keyed by the normalized workload.
			w := wl
			if i%2 == 1 {
				w.Seed, w.QP = 1, 8
			}
			got[i], errs[i] = s.EncodeTrace(w)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got trace %p, caller 0 got %p", i, got[i], got[0])
		}
	}
	if u := s.Usage(); u.Traces != 1 {
		t.Fatalf("%d callers made %d captures, want 1", callers, u.Traces)
	}
}

// TestStudyReleaseCapturesRecaptures: after ReleaseCaptures the next
// request captures anew, and a trace handed out before the release is
// left intact.
func TestStudyReleaseCapturesRecaptures(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 1}
	s := NewStudy(true)
	first, err := s.EncodeTrace(wl)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Hash()
	s.ReleaseCaptures()
	second, err := s.EncodeTrace(wl)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("ReleaseCaptures kept the capture")
	}
	if first.Hash() != want || second.Hash() != want {
		t.Fatal("a capture changed across ReleaseCaptures")
	}
	if again, _ := s.EncodeTrace(wl); again != second {
		t.Fatal("the capture made after the release is not shared")
	}
	if u := s.Usage(); u.Traces != 2 {
		t.Fatalf("recorded %d captures, want 2", u.Traces)
	}
}
