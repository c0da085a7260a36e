package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

// encodeTrace serializes t and fails the test on error.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func encodeL2Trace(t *testing.T, lt *L2Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := lt.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestTraceWireRoundTrip is the wire-format property test: for random
// reference streams, decode(encode(t)) replays counter-identically to t
// across several cache geometries, including per-phase deltas and LRU
// invariants.
func TestTraceWireRoundTrip(t *testing.T) {
	geoms := []struct{ l1, l2 cache.Config }{
		{l1Config(), l2Config(1 << 20)},
		{cache.Config{Name: "L1", SizeBytes: 16 << 10, LineBytes: 32, Ways: 2}, l2Config(256 << 10)},
		{cache.Config{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4}, l2Config(512 << 10)},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rec := NewRecorder()
		randomStream(rand.New(rand.NewSource(seed)), 4000, rec, rec)
		orig := rec.Finish()

		data := encodeTrace(t, orig)
		dec, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if dec.Records() != orig.Records() {
			t.Fatalf("seed %d: %d records decoded, want %d", seed, dec.Records(), orig.Records())
		}
		if !reflect.DeepEqual(dec.phaseNames, orig.phaseNames) {
			t.Fatalf("seed %d: phase names %v != %v", seed, dec.phaseNames, orig.phaseNames)
		}
		for _, g := range geoms {
			want := newLiveHierarchy(g.l1, g.l2)
			orig.Replay(want.Hierarchy, want)
			got := newLiveHierarchy(g.l1, g.l2)
			dec.Replay(got.Hierarchy, got)
			if got.Snapshot() != want.Snapshot() {
				t.Fatalf("seed %d geom %v: decoded replay differs\nwant %+v\ngot  %+v",
					seed, g, want.Snapshot(), got.Snapshot())
			}
			if !reflect.DeepEqual(got.acc, want.acc) {
				t.Fatalf("seed %d geom %v: phase deltas differ\nwant %+v\ngot  %+v",
					seed, g, want.acc, got.acc)
			}
			if err := got.L1.CheckInvariant(); err != nil {
				t.Fatalf("seed %d: L1 invariant after decoded replay: %v", seed, err)
			}
		}
	}
}

// TestL2TraceWireRoundTrip: the filtered trace round-trips to identical
// whole-run Stats and phase deltas for every replayed L2 geometry.
func TestL2TraceWireRoundTrip(t *testing.T) {
	l2s := []cache.Config{
		l2Config(256 << 10),
		l2Config(1 << 20),
		{Name: "L2", SizeBytes: 512 << 10, LineBytes: 128, Ways: 4},
	}
	for seed := int64(1); seed <= 8; seed++ {
		f := NewL2Filter(l1Config())
		randomStream(rand.New(rand.NewSource(seed)), 4000, f, f)
		orig := f.Trace()

		data := encodeL2Trace(t, orig)
		dec, err := ReadL2Trace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if dec.L1 != orig.L1 {
			t.Fatalf("seed %d: L1 config %+v != %+v", seed, dec.L1, orig.L1)
		}
		if dec.Events() != orig.Events() {
			t.Fatalf("seed %d: %d events decoded, want %d", seed, dec.Events(), orig.Events())
		}
		for _, l2 := range l2s {
			wantWhole, wantPhases := orig.Replay(l2)
			gotWhole, gotPhases := dec.Replay(l2)
			if gotWhole != wantWhole {
				t.Fatalf("seed %d l2=%d: whole stats differ\nwant %+v\ngot  %+v",
					seed, l2.SizeBytes, wantWhole, gotWhole)
			}
			if !reflect.DeepEqual(gotPhases, wantPhases) {
				t.Fatalf("seed %d l2=%d: phase stats differ\nwant %+v\ngot  %+v",
					seed, l2.SizeBytes, wantPhases, gotPhases)
			}
		}
	}
}

// TestTraceWireEmpty: zero-record traces survive the trip.
func TestTraceWireEmpty(t *testing.T) {
	dec, err := ReadTrace(bytes.NewReader(encodeTrace(t, NewRecorder().Finish())))
	if err != nil {
		t.Fatalf("decode empty trace: %v", err)
	}
	if dec.Records() != 0 {
		t.Fatalf("empty trace decoded to %d records", dec.Records())
	}
	f := NewL2Filter(l1Config())
	ldec, err := ReadL2Trace(bytes.NewReader(encodeL2Trace(t, f.Trace())))
	if err != nil {
		t.Fatalf("decode empty l2 trace: %v", err)
	}
	if ldec.Events() != 0 {
		t.Fatalf("empty l2 trace decoded to %d events", ldec.Events())
	}
}

// TestTraceWireTruncation: every proper prefix of a valid encoding is
// rejected with an ErrBadFormat-tagged error, never a panic — with one
// deliberate exception: the prefix ending exactly at the body is a
// valid legacy hash-less stream (pre-trailer writers produced exactly
// those bytes), so it must decode, and to the same content hash.
func TestTraceWireTruncation(t *testing.T) {
	rec := NewRecorder()
	randomStream(rand.New(rand.NewSource(3)), 200, rec, rec)
	data := encodeTrace(t, rec.Finish())
	bodyLen := len(data) - hashTrailerLen
	for cut := 0; cut < len(data); cut++ {
		dec, err := ReadTrace(bytes.NewReader(data[:cut]))
		if cut == bodyLen {
			if err != nil {
				t.Fatalf("legacy body-only prefix rejected: %v", err)
			}
			full, err := ReadTrace(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if dec.Hash() != full.Hash() {
				t.Fatalf("legacy stream hash %s != trailered hash %s", dec.Hash(), full.Hash())
			}
			continue
		}
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		} else if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("prefix of %d bytes: error %v not tagged ErrBadFormat", cut, err)
		}
	}

	f := NewL2Filter(l1Config())
	randomStream(rand.New(rand.NewSource(3)), 200, f, f)
	ldata := encodeL2Trace(t, f.Trace())
	lBodyLen := len(ldata) - hashTrailerLen
	for cut := 0; cut < len(ldata); cut++ {
		_, err := ReadL2Trace(bytes.NewReader(ldata[:cut]))
		if cut == lBodyLen {
			if err != nil {
				t.Fatalf("legacy l2 body-only prefix rejected: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("l2 prefix of %d/%d bytes decoded without error", cut, len(ldata))
		} else if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("l2 prefix of %d bytes: error %v not tagged ErrBadFormat", cut, err)
		}
	}
}

// cutBody is a request body whose client stopped before its
// Content-Length: its source ends in io.ErrUnexpectedEOF, not io.EOF.
type cutBody struct{ r *bytes.Reader }

func (c cutBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// TestTraceWireCutBody: a source that ends in io.ErrUnexpectedEOF is a
// truncated file wherever the cut lands — at a record or mark boundary
// as much as inside a field — so a worker answers every cut upload the
// same way. No cut is a legacy hash-less stream: that needs a clean EOF.
func TestTraceWireCutBody(t *testing.T) {
	rec := NewRecorder()
	randomStream(rand.New(rand.NewSource(3)), 200, rec, rec)
	data := encodeTrace(t, rec.Finish())
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadTrace(cutBody{bytes.NewReader(data[:cut])}); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("trace cut at %d/%d bytes: error %v not tagged ErrBadFormat", cut, len(data), err)
		}
	}

	f := NewL2Filter(l1Config())
	randomStream(rand.New(rand.NewSource(3)), 200, f, f)
	ldata := encodeL2Trace(t, f.Trace())
	for cut := 0; cut < len(ldata); cut++ {
		if _, err := ReadL2Trace(cutBody{bytes.NewReader(ldata[:cut])}); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("l2 trace cut at %d/%d bytes: error %v not tagged ErrBadFormat", cut, len(ldata), err)
		}
	}
}

// TestTraceWireCorruption: single-byte corruptions never panic; the
// ones that strike structure (magic, version, table headers) are
// rejected with errors.
func TestTraceWireCorruption(t *testing.T) {
	rec := NewRecorder()
	rec.PhaseBegin("Vop")
	randomStream(rand.New(rand.NewSource(5)), 500, rec, nil)
	rec.PhaseEnd("Vop")
	data := encodeTrace(t, rec.Finish())
	for pos := 0; pos < len(data); pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := bytes.Clone(data)
			mut[pos] ^= flip
			// Must not panic; errors are expected and fine, and a
			// successfully decoded mutation must still be replayable.
			dec, err := ReadTrace(bytes.NewReader(mut))
			if err == nil && dec.Records() < 0 {
				t.Fatal("unreachable")
			}
		}
	}
	// Targeted structural corruptions must be errors.
	for name, mut := range map[string][]byte{
		"bad magic":   append([]byte("XXXX"), data[4:]...),
		"bad version": append(bytes.Clone(data[:4]), append([]byte{0x7F}, data[5:]...)...),
		"empty input": {},
	} {
		if _, err := ReadTrace(bytes.NewReader(mut)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: got %v, want ErrBadFormat", name, err)
		}
	}
}

// TestTraceWireRejectsCrossFormat: the two container types refuse each
// other's files.
func TestTraceWireRejectsCrossFormat(t *testing.T) {
	tdata := encodeTrace(t, NewRecorder().Finish())
	ldata := encodeL2Trace(t, NewL2Filter(l1Config()).Trace())
	if _, err := ReadTrace(bytes.NewReader(ldata)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("ReadTrace accepted an l2trace file: %v", err)
	}
	if _, err := ReadL2Trace(bytes.NewReader(tdata)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("ReadL2Trace accepted a trace file: %v", err)
	}
}

// TestTraceWirePhaseIndexValidation: an out-of-range phase-name index
// is a decode error, not a latent replay panic.
func TestTraceWirePhaseIndexValidation(t *testing.T) {
	rec := NewRecorder()
	rec.PhaseBegin("only")
	rec.PhaseEnd("only")
	data := encodeTrace(t, rec.Finish())
	// The last body byte (just before the hash trailer) is PhaseEnd's
	// name index 0 as its final varint; bump it out of range.
	mut := bytes.Clone(data)
	mut[len(mut)-1-hashTrailerLen] = 0x07
	if _, err := ReadTrace(bytes.NewReader(mut)); err == nil {
		t.Fatal("out-of-range phase index decoded without error")
	} else if !strings.Contains(err.Error(), "phase index") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestL2TraceWireGeometryValidation: an L2 trace claiming an invalid L1
// geometry is rejected at decode time.
func TestL2TraceWireGeometryValidation(t *testing.T) {
	f := NewL2Filter(l1Config())
	f.Run(0, 64, 1, 0)
	data := encodeL2Trace(t, f.Trace())
	// Magic(4) + version(1) + name len(1) + "L1D"(3), then size varint.
	// Zeroing the size field invalidates the geometry.
	mut := bytes.Clone(data)
	sizeOff := 4 + 1 + 1 + len("L1D")
	// 32768 encodes as a 3-byte varint; replace with a 1-byte zero and
	// drop the remainder of the varint.
	mut = append(mut[:sizeOff], append([]byte{0x00}, mut[sizeOff+3:]...)...)
	if _, err := ReadL2Trace(bytes.NewReader(mut)); err == nil {
		t.Fatal("invalid L1 geometry decoded without error")
	} else if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("error %v not tagged ErrBadFormat", err)
	}
}

// TestL2TraceWirePolicyRoundTrip: the version-2 header carries the
// L1's replacement policy and seed, and a decoded trace replays
// identically under policy-configured L2 geometries.
func TestL2TraceWirePolicyRoundTrip(t *testing.T) {
	l1 := l1Config()
	l1.Policy = cache.PolicyPLRU
	f := NewL2Filter(l1)
	randomStream(rand.New(rand.NewSource(9)), 4000, f, f)
	orig := f.Trace()

	dec, err := ReadL2Trace(bytes.NewReader(encodeL2Trace(t, orig)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.L1 != orig.L1 {
		t.Fatalf("L1 config %+v != %+v (policy lost on the wire?)", dec.L1, orig.L1)
	}
	for _, pol := range []cache.Policy{cache.PolicyLRU, cache.PolicyRandom, cache.PolicyFIFO} {
		l2 := l2Config(512 << 10)
		l2.Policy = pol
		l2.Seed = 99
		wantWhole, _ := orig.Replay(l2)
		gotWhole, _ := dec.Replay(l2)
		if gotWhole != wantWhole {
			t.Fatalf("policy %s: decoded replay differs\nwant %+v\ngot  %+v", pol, wantWhole, gotWhole)
		}
	}
}

// TestL2TraceWireRejectsVersion1: the M4L2 reader speaks exactly the
// version its writer emits. A version-1 file — the header before the L1
// policy and seed existed — is a format error, not a best-effort LRU
// decode.
func TestL2TraceWireRejectsVersion1(t *testing.T) {
	f := NewL2Filter(l1Config())
	randomStream(rand.New(rand.NewSource(4)), 1000, f, f)
	data := encodeL2Trace(t, f.Trace())

	// Downgrade the file: magic(4) + version(1) + "L1D" name(1+3) +
	// size(3-byte varint for 32768) + line(1) + ways(1) puts the v2
	// policy-length and seed bytes (both zero for the default config)
	// at offset 14; drop them, the hash trailer the edited body no
	// longer matches, and stamp version 1.
	const polOff = 4 + 1 + 1 + 3 + 3 + 1 + 1
	if data[polOff] != 0 || data[polOff+1] != 0 {
		t.Fatalf("expected empty policy+seed bytes at offset %d, got %#x %#x",
			polOff, data[polOff], data[polOff+1])
	}
	v1 := append(bytes.Clone(data[:polOff]), data[polOff+2:len(data)-hashTrailerLen]...)
	v1[4] = 1

	_, err := ReadL2Trace(bytes.NewReader(v1))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("decode version 1: err = %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "unsupported l2trace version 1") {
		t.Fatalf("decode version 1: err = %v, want it to name the version", err)
	}
}

// TestL2TraceWireRejectsUnknownPolicy: a file naming a policy this
// reader does not implement is a decode error, not a misinterpreted
// simulation.
func TestL2TraceWireRejectsUnknownPolicy(t *testing.T) {
	bad := l1Config()
	bad.Policy = "mru"
	lt := &L2Trace{L1: bad}
	if _, err := ReadL2Trace(bytes.NewReader(encodeL2Trace(t, lt))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("unknown policy decoded without error: %v", err)
	}
}

// TestTraceWireAddressBound: addresses beyond the decode bound are
// rejected — replay walks cache lines address-upward, so a crafted
// top-of-address-space record would otherwise wrap the loop counter
// and hang whatever process replays the trace (a dist worker, e.g.).
func TestTraceWireAddressBound(t *testing.T) {
	rec := NewRecorder()
	rec.Access(^uint64(0)-64, 64, 0)
	data := encodeTrace(t, rec.Finish())
	if _, err := ReadTrace(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("huge access address decoded without error: %v", err)
	}

	rec = NewRecorder()
	rec.RunStrided(^uint64(0)-1024, 64, 128, 4, 1, 0)
	data = encodeTrace(t, rec.Finish())
	if _, err := ReadTrace(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("huge run address decoded without error: %v", err)
	}

	hugeAddr := ^uint64(0) >> 1 // 2^63-1, above the 2^56 decode bound
	lt := &L2Trace{L1: l1Config()}
	lt.setEvents([]uint64{hugeAddr << 1})
	ldata := encodeL2Trace(t, lt)
	if _, err := ReadL2Trace(bytes.NewReader(ldata)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("huge l2 event address decoded without error: %v", err)
	}
}

// TestTraceWireCompactness: the varint-delta encoding should beat the
// in-memory footprint by a wide margin on real-shaped streams.
func TestTraceWireCompactness(t *testing.T) {
	rec := NewRecorder()
	randomStream(rand.New(rand.NewSource(11)), 20000, rec, rec)
	tr := rec.Finish()
	data := encodeTrace(t, tr)
	if len(data) >= tr.SizeBytes() {
		t.Fatalf("wire size %d not smaller than in-memory %d", len(data), tr.SizeBytes())
	}
}

// TestTraceReadFromResetsReceiver: ReadFrom replaces prior contents and
// clears the receiver on failure.
func TestTraceReadFromResetsReceiver(t *testing.T) {
	rec := NewRecorder()
	rec.Run(0, 64, 1, 0)
	data := encodeTrace(t, rec.Finish())

	var tr Trace
	if _, err := tr.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if tr.Records() != 1 {
		t.Fatalf("records = %d, want 1", tr.Records())
	}
	if _, err := tr.ReadFrom(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("truncated decode succeeded")
	}
	if tr.Records() != 0 {
		t.Fatalf("failed ReadFrom left %d records in receiver", tr.Records())
	}
}
