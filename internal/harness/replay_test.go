package harness

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/perf"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// liveResults runs the workload on every machine through the legacy
// live path (hierarchies attached to the codec run), one machine at a
// time so no path under test is shared.
func liveResults(t *testing.T, wl Workload, decode bool) []Result {
	t.Helper()
	var out []Result
	for _, m := range perf.PaperMachines() {
		encRes, ss, err := RunEncodeLiveIn(simmem.NewSpace(0), []perf.Machine{m}, wl)
		if err != nil {
			t.Fatal(err)
		}
		if !decode {
			out = append(out, encRes[0])
			continue
		}
		decRes, err := RunDecodeLiveIn(simmem.NewSpace(0), []perf.Machine{m}, wl, ss)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, decRes[0])
	}
	return out
}

// requireIdentical asserts counter-identical results: raw whole-run
// Stats and every per-phase Stats must match exactly.
func requireIdentical(t *testing.T, label string, live, replayed []Result) {
	t.Helper()
	if len(live) != len(replayed) {
		t.Fatalf("%s: %d live vs %d replayed results", label, len(live), len(replayed))
	}
	for i := range live {
		l, r := live[i], replayed[i]
		if l.Whole.Raw != r.Whole.Raw {
			t.Errorf("%s %s: whole-run stats differ\nlive   %+v\nreplay %+v",
				label, l.Machine.Label(), l.Whole.Raw, r.Whole.Raw)
		}
		if len(l.Phases) != len(r.Phases) {
			t.Errorf("%s %s: phase sets differ: %d vs %d", label, l.Machine.Label(), len(l.Phases), len(r.Phases))
		}
		for name, lp := range l.Phases {
			rp, ok := r.Phases[name]
			if !ok {
				t.Errorf("%s %s: phase %s missing after replay", label, l.Machine.Label(), name)
				continue
			}
			if lp.Raw != rp.Raw {
				t.Errorf("%s %s phase %s: stats differ\nlive   %+v\nreplay %+v",
					label, l.Machine.Label(), name, lp.Raw, rp.Raw)
			}
		}
		if l.Bytes != r.Bytes {
			t.Errorf("%s %s: coded bytes differ: %d vs %d", label, l.Machine.Label(), l.Bytes, r.Bytes)
		}
	}
}

// TestReplayGoldenEquivalence is the golden acceptance test: for an
// encode and a decode workload, on all three paper machines, both
// replay strategies (full-trace replay and L1-filtered L2 replay)
// reproduce exactly the Stats of live tracing.
func TestReplayGoldenEquivalence(t *testing.T) {
	machines := perf.PaperMachines()
	for _, wl := range []Workload{
		{W: 160, H: 128, Frames: 6},           // rectangular single-object
		{W: 96, H: 96, Frames: 4, Objects: 2}, // shaped multi-object
	} {
		liveEnc := liveResults(t, wl, false)
		liveDec := liveResults(t, wl, true)

		// Full-trace record + per-machine replay.
		capture, err := RecordEncodeIn(simmem.NewSpace(0), wl)
		if err != nil {
			t.Fatal(err)
		}
		if err := capture.RecordDecodeIn(simmem.NewSpace(0)); err != nil {
			t.Fatal(err)
		}
		var encReplay, decReplay []Result
		for _, m := range machines {
			encReplay = append(encReplay, ReplayOn(m, capture.Enc, capture.SS.TotalBytes()))
			decReplay = append(decReplay, ReplayOn(m, capture.Dec, capture.SS.TotalBytes()))
		}
		requireIdentical(t, "full-trace encode", liveEnc, encReplay)
		requireIdentical(t, "full-trace decode", liveDec, decReplay)

		// L1-filtered path, as used by RunEncodeIn/RunDecodeIn.
		encFilt, ss, err := RunEncodeIn(simmem.NewSpace(0), machines, wl)
		if err != nil {
			t.Fatal(err)
		}
		decFilt, err := RunDecodeIn(simmem.NewSpace(0), machines, wl, ss)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "filtered encode", liveEnc, encFilt)
		requireIdentical(t, "filtered decode", liveDec, decFilt)

		// The multi-machine live path (simmem.Multi fan-out) must agree
		// with per-machine live runs too — replay disabled explicitly.
		SetReplayEnabled(false)
		encLiveMulti, _, err := RunEncodeIn(simmem.NewSpace(0), machines, wl)
		SetReplayEnabled(true)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "live multi encode", liveEnc, encLiveMulti)
	}
}

// TestReplayGeometryIndependence: a single capture replayed against a
// geometry must match a live run against that geometry, including
// geometries the trace was not recorded "for" (different L1s).
func TestReplayGeometryIndependence(t *testing.T) {
	wl := Workload{W: 160, H: 128, Frames: 4}
	capture, err := RecordEncodeIn(simmem.NewSpace(0), wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, l1 := range GeometryL1Configs() {
		for _, size := range []int{512 << 10, 2 << 20} {
			m := geometryMachine(l1, size)
			live, _, err := RunEncodeLiveIn(simmem.NewSpace(0), []perf.Machine{m}, wl)
			if err != nil {
				t.Fatal(err)
			}
			got := ReplayOn(m, capture.Enc, capture.SS.TotalBytes())
			if live[0].Whole.Raw != got.Whole.Raw {
				t.Errorf("%s: replayed stats differ\nlive   %+v\nreplay %+v",
					m.Name, live[0].Whole.Raw, got.Whole.Raw)
			}
		}
	}
}

// TestGeometrySweepMatchesLive: the replay-based geometry sweep and the
// re-encode baseline agree point for point.
func TestGeometrySweepMatchesLive(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 4}
	l1s := GeometryL1Configs()[:2]
	l2s := []int{512 << 10, 1 << 20}
	replay, err := RunGeometrySweep(wl, l1s, l2s)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunGeometrySweepLive(context.Background(), nil, wl, l1s, l2s)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(live) {
		t.Fatalf("point counts differ: %d vs %d", len(replay), len(live))
	}
	for i := range replay {
		if replay[i].Label != live[i].Label {
			t.Fatalf("point %d: label %q vs %q", i, replay[i].Label, live[i].Label)
		}
		if replay[i].Encode.Raw != live[i].Encode.Raw {
			t.Errorf("%s: stats differ\nlive   %+v\nreplay %+v",
				replay[i].Label, live[i].Encode.Raw, replay[i].Encode.Raw)
		}
	}
	if s := GeometrySweepSeries(replay); len(s) != len(l1s) {
		t.Fatalf("series count %d, want %d", len(s), len(l1s))
	}
	if out := FormatGeometrySweep("sweep", replay); len(out) == 0 {
		t.Fatal("empty sweep rendering")
	}
}

// TestTraceUsageAccounting: captures and replays are visible in the
// usage counters that feed mp4study's trace report.
func TestTraceUsageAccounting(t *testing.T) {
	ResetTraceUsage()
	wl := Workload{W: 96, H: 80, Frames: 2}
	if _, _, err := RunEncode(perf.PaperMachines(), wl); err != nil {
		t.Fatal(err)
	}
	u := TraceUsageSnapshot()
	if u.L2Traces != 1 || u.Replays != 3 || u.L2Events == 0 || u.L2Bytes == 0 {
		t.Fatalf("unexpected usage after filtered encode: %+v", u)
	}
	if _, err := RecordEncodeIn(simmem.NewSpace(0), wl); err != nil {
		t.Fatal(err)
	}
	u = TraceUsageSnapshot()
	if u.Traces != 1 || u.TraceRecords == 0 || u.TraceBytes == 0 {
		t.Fatalf("unexpected usage after full record: %+v", u)
	}
	ResetTraceUsage()
	if u := TraceUsageSnapshot(); !reflect.DeepEqual(u, TraceUsage{}) {
		t.Fatalf("reset left counters: %+v", u)
	}
}

// TestReplayToggle: disabling replay routes multi-machine runs through
// the live path (no captures recorded) and still produces identical
// results.
func TestReplayToggle(t *testing.T) {
	wl := Workload{W: 96, H: 80, Frames: 2}
	on, _, err := RunEncode(perf.PaperMachines(), wl)
	if err != nil {
		t.Fatal(err)
	}
	ResetTraceUsage()
	SetReplayEnabled(false)
	defer SetReplayEnabled(true)
	if ReplayEnabled() {
		t.Fatal("toggle did not stick")
	}
	off, _, err := RunEncode(perf.PaperMachines(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if u := TraceUsageSnapshot(); u.L2Traces != 0 || u.Traces != 0 {
		t.Fatalf("live mode recorded captures: %+v", u)
	}
	requireIdentical(t, "toggle", on, off)
}

// TestFilterGeometryL1Allocation bounds what the L1 filter pass
// allocates on a long trace to a small multiple of the L2 trace it
// returns: the pass appends the L2-bound events and keeps no other
// per-record state.
func TestFilterGeometryL1Allocation(t *testing.T) {
	rec := trace.NewRecorder()
	x := uint64(1)
	for i := 0; i < 250_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		kind := simmem.Load
		if x>>63 == 1 {
			kind = simmem.Store
		}
		rec.Access((x>>20)%(8<<20), 8, kind)
	}
	tr := rec.Finish()
	l1 := GeometryL1Configs()[0]

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lt := FilterGeometryL1(context.Background(), tr, l1)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := 4 * uint64(lt.SizeBytes()); alloc > limit {
		t.Fatalf("filtering %d records allocated %d bytes, more than 4x the %d-byte L2 trace",
			tr.Records(), alloc, lt.SizeBytes())
	}
}
