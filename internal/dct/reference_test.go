package dct

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refForward and refInverse are the textbook loops Forward and Inverse
// replaced: every output must be bit-identical to theirs.

func refForward(b *Block) {
	var tmp [BlockSize][BlockSize]float64
	for y := 0; y < BlockSize; y++ {
		for u := 0; u < BlockSize; u++ {
			var s float64
			for x := 0; x < BlockSize; x++ {
				s += float64(b[y*BlockSize+x]) * cosTable[u][x]
			}
			tmp[y][u] = s
		}
	}
	for u := 0; u < BlockSize; u++ {
		for v := 0; v < BlockSize; v++ {
			var s float64
			for y := 0; y < BlockSize; y++ {
				s += tmp[y][u] * cosTable[v][y]
			}
			b[v*BlockSize+u] = int32(math.RoundToEven(s))
		}
	}
}

func refInverse(b *Block) {
	var tmp [BlockSize][BlockSize]float64
	for u := 0; u < BlockSize; u++ {
		for y := 0; y < BlockSize; y++ {
			var s float64
			for v := 0; v < BlockSize; v++ {
				s += float64(b[v*BlockSize+u]) * cosTable[v][y]
			}
			tmp[y][u] = s
		}
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			var s float64
			for u := 0; u < BlockSize; u++ {
				s += tmp[y][u] * cosTable[u][x]
			}
			b[y*BlockSize+x] = int32(math.RoundToEven(s))
		}
	}
}

// checkMatchesReference fails t unless Forward and Inverse of in equal
// refForward and refInverse of it, output for output.
func checkMatchesReference(t *testing.T, name string, in Block) {
	t.Helper()
	for _, k := range []struct {
		op       string
		got, ref func(*Block)
	}{{"Forward", Forward, refForward}, {"Inverse", Inverse, refInverse}} {
		got, want := in, in
		k.got(&got)
		k.ref(&want)
		if got != want {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %s: output %d = %d, reference %d (input %v)", name, k.op, i, got[i], want[i], in)
				}
			}
		}
	}
}

// referenceBlocks are the table cases: all-zero, every single
// coefficient at ±1 and at the ±2048 extremes, sparse and dense blocks,
// and quantized intra and inter blocks like the ones the codec inverts.
func referenceBlocks() map[string][]Block {
	rng := rand.New(rand.NewSource(5))
	cases := map[string][]Block{"zero": {{}}}
	for i := 0; i < 64; i++ {
		for _, v := range []int32{1, -1, 2047, -2048, 2048} {
			var b Block
			b[i] = v
			cases["single"] = append(cases["single"], b)
		}
	}
	for n := 0; n < 200; n++ {
		var sparse, dense, extreme Block
		for k := 0; k < 1+n%6; k++ {
			sparse[rng.Intn(64)] = int32(rng.Intn(4096)) - 2048
		}
		for i := range dense {
			dense[i] = int32(rng.Intn(511)) - 255
			extreme[i] = []int32{-2048, 2048, 2047, -2047, 0}[rng.Intn(5)]
		}
		cases["sparse"] = append(cases["sparse"], sparse)
		cases["dense"] = append(cases["dense"], dense)
		cases["extreme"] = append(cases["extreme"], extreme)
		cases["intra"] = append(cases["intra"], quantized(rng, true, 1+n%31))
		cases["inter"] = append(cases["inter"], quantized(rng, false, 1+n%31))
	}
	return cases
}

// quantized returns a dequantized intra block of a textured 8×8 image
// patch, or a dequantized inter block of a small residual, at QP qp.
func quantized(rng *rand.Rand, intra bool, qp int) Block {
	var b Block
	base := rng.Intn(200)
	for i := range b {
		if intra {
			b[i] = int32(base + i%8*3 + rng.Intn(24))
		} else {
			b[i] = int32(rng.Intn(25)) - 12
		}
	}
	Forward(&b)
	q := NewQuantizer(qp)
	if intra {
		q.QuantIntra(&b)
		q.DequantIntra(&b)
	} else {
		q.QuantInter(&b)
		q.DequantInter(&b)
	}
	return b
}

func TestTransformsMatchReference(t *testing.T) {
	for name, blocks := range referenceBlocks() {
		for _, b := range blocks {
			checkMatchesReference(t, name, b)
		}
	}
}

func FuzzDCT(f *testing.F) {
	cases := referenceBlocks()
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		for _, b := range cases[name][:min(len(cases[name]), 8)] {
			var raw [64 * 2]byte
			for i, v := range b {
				raw[2*i], raw[2*i+1] = byte(v), byte(v>>8)
			}
			f.Add(raw[:])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Two bytes per coefficient, little endian, folded into
		// [-2048, 2047]; missing coefficients are zero.
		var b Block
		for i := 0; i < 64 && 2*i+1 < len(raw); i++ {
			b[i] = int32(int16(uint16(raw[2*i])|uint16(raw[2*i+1])<<8)) >> 4
		}
		checkMatchesReference(t, "fuzz", b)
	})
}

func TestTransformsAllocateNothing(t *testing.T) {
	b := referenceBlocks()["dense"][0]
	if n := testing.AllocsPerRun(100, func() { Forward(&b); Inverse(&b) }); n != 0 {
		t.Fatalf("Forward+Inverse allocate %v times per run", n)
	}
}

var benchSink Block

func BenchmarkForward(b *testing.B) {
	var blk Block
	for i := range blk {
		blk[i] = int32(i * 3 % 255)
	}
	b.ReportAllocs()
	for b.Loop() {
		benchSink = blk
		Forward(&benchSink)
	}
}

// BenchmarkInverse inverts a dense block that was never quantized, and
// the dequantized intra and inter blocks of QP 8 the codec inverts.
func BenchmarkInverse(b *testing.B) {
	var dense Block
	for i := range dense {
		dense[i] = int32(i * 3 % 255)
	}
	Forward(&dense)
	rng := rand.New(rand.NewSource(3))
	for _, bc := range []struct {
		name string
		blk  Block
	}{{"dense", dense}, {"intra", quantized(rng, true, 8)}, {"inter", quantized(rng, false, 8)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSink = bc.blk
				Inverse(&benchSink)
			}
		})
	}
}
