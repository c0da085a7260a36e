package dct

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardInverseRoundTrip(t *testing.T) {
	var b, orig Block
	rng := rand.New(rand.NewSource(1))
	for i := range b {
		b[i] = int32(rng.Intn(256)) - 128
	}
	orig = b
	Forward(&b)
	Inverse(&b)
	for i := range b {
		d := b[i] - orig[i]
		if d < -1 || d > 1 {
			t.Fatalf("roundtrip error at %d: %d vs %d", i, b[i], orig[i])
		}
	}
}

func TestQuickRoundTripBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b, orig Block
		for i := range b {
			b[i] = int32(rng.Intn(511)) - 255 // inter residual range
		}
		orig = b
		Forward(&b)
		Inverse(&b)
		for i := range b {
			d := b[i] - orig[i]
			if d < -2 || d > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTOfConstantBlock(t *testing.T) {
	var b Block
	for i := range b {
		b[i] = 100
	}
	Forward(&b)
	// DC = 8 * value for the orthonormal 8x8 DCT.
	if b[0] != 800 {
		t.Fatalf("DC of constant block = %d want 800", b[0])
	}
	for i := 1; i < 64; i++ {
		if b[i] != 0 {
			t.Fatalf("AC %d of constant block = %d want 0", i, b[i])
		}
	}
}

func TestDCTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, sum Block
	for i := range a {
		a[i] = int32(rng.Intn(100))
		b[i] = int32(rng.Intn(100))
		sum[i] = a[i] + b[i]
	}
	Forward(&a)
	Forward(&b)
	Forward(&sum)
	for i := range sum {
		d := sum[i] - (a[i] + b[i])
		if d < -2 || d > 2 { // rounding tolerance
			t.Fatalf("linearity violated at %d: %d vs %d", i, sum[i], a[i]+b[i])
		}
	}
}

func TestDCTEnergyCompaction(t *testing.T) {
	// A smooth gradient should concentrate energy in low frequencies.
	var b Block
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			b[y*8+x] = int32(10*x + 5*y)
		}
	}
	Forward(&b)
	var low, high int64
	for i, j := range ZigzagOrder {
		e := int64(b[j]) * int64(b[j])
		if i < 10 {
			low += e
		} else {
			high += e
		}
	}
	if low < 100*high {
		t.Fatalf("poor energy compaction: low=%d high=%d", low, high)
	}
}

func TestQuantizerClamping(t *testing.T) {
	if NewQuantizer(0).QP != 1 || NewQuantizer(99).QP != 31 || NewQuantizer(8).QP != 8 {
		t.Fatal("QP clamping wrong")
	}
}

func TestQuantRoundTripErrorBound(t *testing.T) {
	f := func(seed int64, qpRaw uint8) bool {
		qp := int(qpRaw)%31 + 1
		q := NewQuantizer(qp)
		rng := rand.New(rand.NewSource(seed))
		var b Block
		for i := range b {
			b[i] = int32(rng.Intn(2047)) - 1023
		}
		orig := b
		q.QuantInter(&b)
		q.DequantInter(&b)
		for i := range b {
			d := b[i] - orig[i]
			if d < 0 {
				d = -d
			}
			// H.263 inter quantizer error bound: dead zone can swallow
			// values up to ~2.5*QP.
			if d > int32(3*qp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantIntraDC(t *testing.T) {
	q := NewQuantizer(4)
	var b Block
	b[0] = 800
	q.QuantIntra(&b)
	if b[0] != 100 {
		t.Fatalf("intra DC quant: %d want 100", b[0])
	}
	q.DequantIntra(&b)
	if b[0] != 800 {
		t.Fatalf("intra DC dequant: %d want 800", b[0])
	}
}

func TestQuantSignSymmetry(t *testing.T) {
	f := func(v int32, qpRaw uint8) bool {
		v %= 2048
		qp := int32(qpRaw)%31 + 1
		p := quantAC(v, qp, false)
		n := quantAC(-v, qp, false)
		if p != -n {
			return false
		}
		return dequantAC(p, qp) == -dequantAC(n, qp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantZeroPreserved(t *testing.T) {
	for qp := int32(1); qp <= 31; qp++ {
		if dequantAC(0, qp) != 0 {
			t.Fatalf("dequant(0) != 0 at qp=%d", qp)
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := make(map[int]bool)
	for _, j := range ZigzagOrder {
		if j < 0 || j > 63 || seen[j] {
			t.Fatalf("zigzag not a permutation at %d", j)
		}
		seen[j] = true
	}
	if len(seen) != 64 {
		t.Fatal("zigzag misses positions")
	}
}

func TestZigzagKnownPrefix(t *testing.T) {
	want := []int{0, 1, 8, 16, 9, 2}
	for i, w := range want {
		if ZigzagOrder[i] != w {
			t.Fatalf("zigzag[%d]=%d want %d", i, ZigzagOrder[i], w)
		}
	}
}

func TestScanUnscanRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b, back Block
		var s [64]int32
		for i := range b {
			b[i] = rng.Int31n(1000) - 500
		}
		Scan(&b, &s)
		Unscan(&s, &back)
		return b == back
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScanPosInverse(t *testing.T) {
	for j := 0; j < 64; j++ {
		if ZigzagOrder[ScanPos(j)] != j {
			t.Fatalf("ScanPos not inverse at %d", j)
		}
	}
}
