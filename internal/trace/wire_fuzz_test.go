package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// The fuzz targets prove the decoders' safety contract: arbitrary bytes
// — truncated, corrupted, wrong-version, hostile — yield an error or a
// valid trace, never a panic. `go test` runs the seed corpus as a
// regression suite; `go test -fuzz=FuzzReadTrace ./internal/trace` digs
// for new crashers.

func fuzzSeedTrace() []byte {
	rec := NewRecorder()
	rec.PhaseBegin("Vop")
	randomStream(rand.New(rand.NewSource(1)), 300, rec, nil)
	rec.PhaseEnd("Vop")
	var buf bytes.Buffer
	if _, err := rec.Finish().WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func fuzzSeedL2Trace() []byte {
	f := NewL2Filter(l1Config())
	f.PhaseBegin("Vop")
	randomStream(rand.New(rand.NewSource(1)), 300, f, nil)
	f.PhaseEnd("Vop")
	var buf bytes.Buffer
	if _, err := f.Trace().WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzSeedChunkedL2Trace is the smallest body whose events fill two
// chunks and start a third: 2×fusedBlockEvents+1 events of one line,
// one byte each, with a phase from the second chunk's first position
// to the third's. The fuzzer takes long to minimize inputs grown from
// 65 KB, so fuzz with -fuzzminimizetime 2s.
func fuzzSeedChunkedL2Trace() []byte {
	lt := &L2Trace{L1: l1Config(), names: []string{"Vop"}}
	lt.setEvents(make([]uint64, 2*fusedBlockEvents+1))
	lt.marks = []l2Mark{{pos: fusedBlockEvents, begin: true}, {pos: 2 * fusedBlockEvents}}
	var buf bytes.Buffer
	if _, err := lt.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadTrace(f *testing.F) {
	seed := fuzzSeedTrace()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:5])
	f.Add([]byte{})
	f.Add([]byte("M4TR\x01"))
	f.Add([]byte("M4TR\x02\x00\x00"))         // wrong version
	f.Add([]byte("M4TR\x01\x00\x01\x07\x05")) // phase index out of range
	f.Add(seed[:len(seed)-hashTrailerLen])    // legacy hash-less stream
	f.Add(seed[:len(seed)-1])                 // truncated hash trailer
	corrupt := bytes.Clone(seed)              // trailer digest that contradicts the body
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded trace must be internally consistent
		// enough to re-encode.
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
	})
}

func FuzzReadL2Trace(f *testing.F) {
	seed := fuzzSeedL2Trace()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:5])
	f.Add([]byte{})
	f.Add([]byte("M4L2\x01"))
	f.Add([]byte("M4L2\x02"))
	f.Add(seed[:len(seed)-hashTrailerLen]) // legacy hash-less stream
	lcorrupt := bytes.Clone(seed)
	lcorrupt[len(lcorrupt)-1] ^= 0xFF
	f.Add(lcorrupt)
	f.Add(hostileL2Body()) // an event count of 2^40, then three events
	f.Add(fuzzSeedChunkedL2Trace())
	f.Fuzz(func(t *testing.T, data []byte) {
		lt, err := ReadL2Trace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := lt.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of decoded l2 trace failed: %v", err)
		}
	})
}
