// Package dct implements the 8×8 forward and inverse discrete cosine
// transform, H.263-style quantization (the MPEG-4 "second quantization
// method" used by the MoMuSys reference software in short-header mode),
// and the zigzag coefficient scan.
//
// The transform is a separable floating-point DCT-II/DCT-III pair with
// precomputed basis tables. IDCT(DCT(x)) reproduces x to well under one
// quantization step, which is all the codec requires; a property test
// asserts the roundtrip error bound.
package dct

import "math"

// BlockSize is the transform dimension.
const BlockSize = 8

// Block is an 8×8 coefficient or sample-difference block in row-major
// order. Samples use the int32 range; coefficients after a forward
// transform of 9-bit input fit comfortably.
type Block [BlockSize * BlockSize]int32

// cosTable[u][x] = c(u) * cos((2x+1)uπ/16), the orthonormal DCT basis.
var cosTable [BlockSize][BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		cu := math.Sqrt(2.0 / BlockSize)
		if u == 0 {
			cu = math.Sqrt(1.0 / BlockSize)
		}
		for x := 0; x < BlockSize; x++ {
			cosTable[u][x] = cu * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
		}
	}
}

// The transforms convert each sample once, unroll the eight-term sums
// and skip zero inputs of the inverse, but every output is the same
// float64 expression, evaluated in the same order, as the textbook
// loop s += x[i]·c[i] for i = 0..7 with s starting at +0: the results
// are bit-identical to it. Skipping a zero input is exact: its product
// is ±0, and a sum that starts at +0 is never −0, so adding ±0 leaves
// it unchanged.

// Forward transforms spatial block b in place to frequency coefficients.
func Forward(b *Block) {
	var tmp [BlockSize][BlockSize]float64 // tmp[u][y]: row y's coefficient u
	// Rows.
	for y := 0; y < BlockSize; y++ {
		r := (*[BlockSize]int32)(b[y*BlockSize:])
		x0, x1, x2, x3 := float64(r[0]), float64(r[1]), float64(r[2]), float64(r[3])
		x4, x5, x6, x7 := float64(r[4]), float64(r[5]), float64(r[6]), float64(r[7])
		for u := range cosTable {
			tmp[u][y] = dot8(x0, x1, x2, x3, x4, x5, x6, x7, &cosTable[u])
		}
	}
	// Columns.
	for u, t := range &tmp {
		t0, t1, t2, t3, t4, t5, t6, t7 := t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]
		for v := range cosTable {
			b[v*BlockSize+u] = int32(math.RoundToEven(dot8(t0, t1, t2, t3, t4, t5, t6, t7, &cosTable[v])))
		}
	}
}

// dot8 is Σ x[i]·c[i], summed from +0 in index order.
func dot8(x0, x1, x2, x3, x4, x5, x6, x7 float64, c *[BlockSize]float64) float64 {
	var s float64
	s += x0 * c[0]
	s += x1 * c[1]
	s += x2 * c[2]
	s += x3 * c[3]
	s += x4 * c[4]
	s += x5 * c[5]
	s += x6 * c[6]
	s += x7 * c[7]
	return s
}

// Inverse transforms frequency coefficients b in place back to spatial
// samples. Both passes accumulate all eight outputs of a column or row
// at once, one input at a time, so each output still sums its terms in
// input order; zero coefficients, and the columns they leave all zero,
// are skipped. A dequantized block is mostly zeros.
func Inverse(b *Block) {
	var tmp [BlockSize][BlockSize]float64 // tmp[u][y]: column u's sample y
	var live [BlockSize]bool              // live[u]: column u has a nonzero coefficient
	// Columns (inverse of the second forward pass).
	for u := 0; u < BlockSize; u++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for v := 0; v < BlockSize; v++ {
			c := b[v*BlockSize+u]
			if c == 0 {
				continue
			}
			x, k := float64(c), &cosTable[v]
			s0 += x * k[0]
			s1 += x * k[1]
			s2 += x * k[2]
			s3 += x * k[3]
			s4 += x * k[4]
			s5 += x * k[5]
			s6 += x * k[6]
			s7 += x * k[7]
			live[u] = true
		}
		tmp[u] = [BlockSize]float64{s0, s1, s2, s3, s4, s5, s6, s7}
	}
	// Rows.
	for y := 0; y < BlockSize; y++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for u := 0; u < BlockSize; u++ {
			if !live[u] {
				continue
			}
			x, k := tmp[u][y], &cosTable[u]
			s0 += x * k[0]
			s1 += x * k[1]
			s2 += x * k[2]
			s3 += x * k[3]
			s4 += x * k[4]
			s5 += x * k[5]
			s6 += x * k[6]
			s7 += x * k[7]
		}
		r := (*[BlockSize]int32)(b[y*BlockSize:])
		r[0] = int32(math.RoundToEven(s0))
		r[1] = int32(math.RoundToEven(s1))
		r[2] = int32(math.RoundToEven(s2))
		r[3] = int32(math.RoundToEven(s3))
		r[4] = int32(math.RoundToEven(s4))
		r[5] = int32(math.RoundToEven(s5))
		r[6] = int32(math.RoundToEven(s6))
		r[7] = int32(math.RoundToEven(s7))
	}
}

// OpsForward is the approximate graduated-instruction cost of one 8×8
// forward or inverse transform (two separable passes of 64
// multiply-accumulate pairs each, plus loop overhead), used by the
// timing model.
const OpsForward = 2*64*8*2 + 200

// Quantizer implements H.263-style scalar quantization with a quantizer
// parameter QP in [1, 31].
type Quantizer struct {
	QP int32
}

// NewQuantizer clamps qp into the legal range.
func NewQuantizer(qp int) Quantizer {
	if qp < 1 {
		qp = 1
	}
	if qp > 31 {
		qp = 31
	}
	return Quantizer{QP: int32(qp)}
}

// QuantIntra quantizes an intra block in place: the DC coefficient is
// divided by 8 (as MPEG-4 intra DC coding does at this level), AC
// coefficients by 2·QP.
func (q Quantizer) QuantIntra(b *Block) {
	b[0] = divRound(b[0], 8)
	for i := 1; i < len(b); i++ {
		b[i] = quantAC(b[i], q.QP, true)
	}
}

// DequantIntra reverses QuantIntra (up to quantization loss).
func (q Quantizer) DequantIntra(b *Block) {
	b[0] *= 8
	for i := 1; i < len(b); i++ {
		b[i] = dequantAC(b[i], q.QP)
	}
}

// QuantInter quantizes an inter (residual) block in place with the H.263
// dead zone.
func (q Quantizer) QuantInter(b *Block) {
	for i := range b {
		b[i] = quantAC(b[i], q.QP, false)
	}
}

// DequantInter reverses QuantInter (up to quantization loss).
func (q Quantizer) DequantInter(b *Block) {
	for i := range b {
		b[i] = dequantAC(b[i], q.QP)
	}
}

func quantAC(c, qp int32, intra bool) int32 {
	neg := c < 0
	if neg {
		c = -c
	}
	var lvl int32
	if intra {
		lvl = c / (2 * qp)
	} else {
		lvl = (c - qp/2) / (2 * qp)
		if lvl < 0 {
			lvl = 0
		}
	}
	if neg {
		return -lvl
	}
	return lvl
}

func dequantAC(lvl, qp int32) int32 {
	if lvl == 0 {
		return 0
	}
	neg := lvl < 0
	if neg {
		lvl = -lvl
	}
	var c int32
	if qp%2 == 1 {
		c = qp * (2*lvl + 1)
	} else {
		c = qp*(2*lvl+1) - 1
	}
	if neg {
		return -c
	}
	return c
}

func divRound(a, d int32) int32 {
	if a >= 0 {
		return (a + d/2) / d
	}
	return -((-a + d/2) / d)
}

// OpsQuant is the approximate instruction cost of quantizing or
// dequantizing one block.
const OpsQuant = 64 * 4

// ZigzagOrder is the standard zigzag scan mapping: position i of the
// scan reads coefficient ZigzagOrder[i] of the row-major block.
var ZigzagOrder = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// inverseZigzag[j] is the scan position of row-major coefficient j.
var inverseZigzag [64]int

func init() {
	for i, j := range ZigzagOrder {
		inverseZigzag[j] = i
	}
}

// Scan writes the zigzag scan of b into out.
func Scan(b *Block, out *[64]int32) {
	for i, j := range ZigzagOrder {
		out[i] = b[j]
	}
}

// Unscan reverses Scan.
func Unscan(in *[64]int32, b *Block) {
	for i, j := range ZigzagOrder {
		b[j] = in[i]
	}
}

// ScanPos returns the zigzag position of row-major coefficient index j.
func ScanPos(j int) int { return inverseZigzag[j] }
