package codec

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/dct"
	"repro/internal/motion"
	"repro/internal/simmem"
	"repro/internal/video"
)

// The enhancement layer implements two-layer scalable coding. Each
// enhancement VOP is a P-type plane predicting from the *decoded base
// layer* frame at the same time instant: per macroblock, a short motion
// search against the base reconstruction (MPEG-4 scalability codes
// enhancement VOPs with motion compensation from the reference layer),
// then a finer-quantizer residual. Shaped objects code their bounding
// box only. This stands in for the MoMuSys scalable VOL tool the paper
// measured (README.md lists the codec's scope).

// EnhConfig parameterises the enhancement layer.
type EnhConfig struct {
	W, H        int
	QP          int // enhancement quantizer, typically base QP / 2
	SearchRange int // motion search radius against the base layer (default 4)
}

// Validate checks the configuration.
func (c EnhConfig) Validate() error {
	if c.W <= 0 || c.H <= 0 || c.W%16 != 0 || c.H%16 != 0 {
		return fmt.Errorf("codec: enhancement dimensions %dx%d invalid", c.W, c.H)
	}
	if c.QP < 1 || c.QP > 31 {
		return fmt.Errorf("codec: enhancement QP %d out of [1,31]", c.QP)
	}
	return nil
}

func (c EnhConfig) searchRange() int {
	if c.SearchRange > 0 {
		return c.SearchRange
	}
	return 4
}

// EnhEncoder codes enhancement-layer VOPs.
type EnhEncoder struct {
	cfg     EnhConfig
	space   *simmem.Space
	t       simmem.Tracer
	ph      PhaseRecorder
	blkAddr uint64
	tabs    kernelTables
	search  motion.Searcher
	pred    *video.Frame // MB-sized prediction buffer
	w       *bits.Writer
	st      *streamTracer
}

// NewEnhEncoder builds an enhancement encoder.
func NewEnhEncoder(cfg EnhConfig, space *simmem.Space, t simmem.Tracer, ph PhaseRecorder) (*EnhEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t == nil {
		t = simmem.Nop{}
	}
	if ph == nil {
		ph = NopPhases{}
	}
	return &EnhEncoder{
		cfg: cfg, space: space, t: t, ph: ph,
		blkAddr: space.Alloc(256, 64),
		tabs:    newKernelTables(space),
		search:  motion.Searcher{Range: cfg.searchRange()},
		pred:    video.NewFrame(space, 16, 16),
	}, nil
}

// EncodeSequence codes the enhancement VOPs predicting orig from base
// (the decoded base layer), returning the enhancement bitstream. Both
// slices must have equal length and dimensions.
func (e *EnhEncoder) EncodeSequence(orig, base []*video.Frame) ([]byte, error) {
	if len(orig) != len(base) {
		return nil, fmt.Errorf("codec: enhancement needs matching sequences (%d vs %d)", len(orig), len(base))
	}
	e.w = bits.NewWriter(1 << 14)
	e.st = newStreamTracer(e.t, e.space, 1<<20, simmem.Store)
	e.w.PutStartcode(bits.SCVideoObjectLayer)
	e.w.PutUE(uint32(e.cfg.W / 16))
	e.w.PutUE(uint32(e.cfg.H / 16))
	e.w.PutUE(uint32(e.cfg.QP))
	e.w.PutUE(uint32(len(orig)))
	e.st.advance(e.w.Len())
	for i := range orig {
		if err := e.encodeFrame(orig[i], base[i]); err != nil {
			return nil, err
		}
	}
	e.w.PutStartcode(bits.SCEndOfSequence)
	e.st.advance(e.w.Len())
	return e.w.Bytes(), nil
}

func (e *EnhEncoder) encodeFrame(orig, base *video.Frame) error {
	e.ph.PhaseBegin(PhaseVopEncode)
	defer e.ph.PhaseEnd(PhaseVopEncode)
	if orig.W != e.cfg.W || orig.H != e.cfg.H || base.W != e.cfg.W || base.H != e.cfg.H {
		return fmt.Errorf("codec: enhancement frame size mismatch")
	}
	e.w.PutStartcode(bits.SCVOP)
	// Shaped objects code their bounding box only (signalled).
	x0, y0, x1, y1 := video.BBox(orig.Alpha, e.cfg.W, e.cfg.H)
	e.w.PutUE(uint32(x0 / 16))
	e.w.PutUE(uint32(y0 / 16))
	e.w.PutUE(uint32((x1 + 15) / 16))
	e.w.PutUE(uint32((y1 + 15) / 16))
	e.st.advance(e.w.Len())
	quant := dct.NewQuantizer(e.cfg.QP)

	for mby := y0 / 16; mby < (y1+15)/16; mby++ {
		predMV := motion.MV{}
		for mbx := x0 / 16; mbx < (x1+15)/16; mbx++ {
			x, y := mbx*16, mby*16
			e.tabs.traceMBStruct(e.t)
			full, sad := e.search.Search(e.t, orig.Y, base.Y, nil, x, y)
			mv, _ := motion.RefineHalfPel(e.t, orig.Y, base.Y, x, y, full, sad)
			e.compensate(base, x, y, mv)
			EncodeMVDPair(e.w, mv, predMV)
			predMV = mv
			var flags [6]bool
			sub := bits.NewWriter(256)
			for i, b := range lumaBlocks(x, y) {
				flags[i] = e.residual(sub, quant, orig.Y, e.pred.Y, b[0], b[1], b[0]-x, b[1]-y)
			}
			flags[4] = e.residual(sub, quant, orig.Cb, e.pred.Cb, x/2, y/2, 0, 0)
			flags[5] = e.residual(sub, quant, orig.Cr, e.pred.Cr, x/2, y/2, 0, 0)
			for _, c := range flags {
				if c {
					e.w.PutBit(1)
				} else {
					e.w.PutBit(0)
				}
			}
			appendWriter(e.w, sub)
			e.st.advance(e.w.Len())
		}
	}
	return nil
}

func (e *EnhEncoder) compensate(base *video.Frame, x, y int, mv motion.MV) {
	motion.CompensateTo(e.t, e.pred.Y, base.Y, 0, 0, x, y, 16, mv)
	cx, cy := chromaMV(mv.X, mv.Y)
	cmv := motion.MV{X: cx, Y: cy}
	motion.CompensateTo(e.t, e.pred.Cb, base.Cb, 0, 0, x/2, y/2, 8, cmv)
	motion.CompensateTo(e.t, e.pred.Cr, base.Cr, 0, 0, x/2, y/2, 8, cmv)
}

// residual codes one 8×8 residual block into w; returns whether any
// coefficient survived quantization.
func (e *EnhEncoder) residual(w *bits.Writer, quant dct.Quantizer, cur, pred *video.Plane, bx, by, px, py int) bool {
	e.tabs.traceCalls(e.t, 5)
	var blk dct.Block
	var scan [64]int32
	gatherDiffAt(e.t, e.blkAddr, cur, pred, bx, by, px, py, &blk)
	dct.Forward(&blk)
	e.tabs.traceDCT(e.t, e.blkAddr)
	quant.QuantInter(&blk)
	traceBlock(e.t, e.blkAddr, dct.OpsQuant)
	coded := false
	for _, v := range blk {
		if v != 0 {
			coded = true
			break
		}
	}
	e.t.Ops(64)
	if coded {
		dct.Scan(&blk, &scan)
		traceBlock(e.t, e.blkAddr, 64*2)
		events := EncodeCoeffBlock(w, &scan)
		e.tabs.traceVLC(e.t, events)
	}
	return coded
}

// EnhDecoder decodes enhancement VOPs onto decoded base frames.
type EnhDecoder struct {
	space   *simmem.Space
	t       simmem.Tracer
	ph      PhaseRecorder
	blkAddr uint64
	tabs    kernelTables
	pred    *video.Frame

	r       *bits.Reader
	st      *streamTracer
	quant   dct.Quantizer
	w, h    int
	nFrames int
}

// NewEnhDecoder builds an enhancement decoder.
func NewEnhDecoder(space *simmem.Space, t simmem.Tracer, ph PhaseRecorder) *EnhDecoder {
	if t == nil {
		t = simmem.Nop{}
	}
	if ph == nil {
		ph = NopPhases{}
	}
	return &EnhDecoder{
		space: space, t: t, ph: ph,
		blkAddr: space.Alloc(256, 64),
		tabs:    newKernelTables(space),
		pred:    video.NewFrame(space, 16, 16),
	}
}

// DecodeSequence applies the enhancement stream to base (in place,
// upgrading the frames) and returns them.
func (d *EnhDecoder) DecodeSequence(stream []byte, base []*video.Frame) ([]*video.Frame, error) {
	if err := d.Begin(stream); err != nil {
		return nil, err
	}
	if d.nFrames != len(base) {
		return nil, fmt.Errorf("codec: enhancement frame count %d vs base %d", d.nFrames, len(base))
	}
	for _, f := range base {
		if err := d.ApplyNext(f); err != nil {
			return nil, err
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return base, nil
}

// Begin parses the enhancement stream header, preparing for per-frame
// ApplyNext calls (the streaming playback path).
func (d *EnhDecoder) Begin(stream []byte) error {
	d.r = bits.NewReader(stream)
	d.st = newStreamTracer(d.t, d.space, len(stream), simmem.Load)
	sc, err := d.r.NextStartcode()
	if err != nil || sc != bits.SCVideoObjectLayer {
		return fmt.Errorf("codec: bad enhancement header (%#x, %v)", sc, err)
	}
	mbw, err := d.r.UE()
	if err != nil {
		return err
	}
	mbh, err := d.r.UE()
	if err != nil {
		return err
	}
	qp, err := d.r.UE()
	if err != nil {
		return err
	}
	n, err := d.r.UE()
	if err != nil {
		return err
	}
	d.w, d.h = int(mbw)*16, int(mbh)*16
	d.quant = dct.NewQuantizer(int(qp))
	d.nFrames = int(n)
	d.st.advance(d.r.Pos())
	return nil
}

// NFrames returns the frame count announced by the header.
func (d *EnhDecoder) NFrames() int { return d.nFrames }

// ApplyNext decodes the next enhancement VOP onto f in place. The frame
// must still hold the base-layer reconstruction for the same instant.
func (d *EnhDecoder) ApplyNext(f *video.Frame) error {
	if f.W != d.w || f.H != d.h {
		return fmt.Errorf("codec: enhancement size %dx%d vs base %dx%d", d.w, d.h, f.W, f.H)
	}
	return d.decodeFrame(f)
}

// End verifies the end-of-sequence marker.
func (d *EnhDecoder) End() error {
	sc, err := d.r.NextStartcode()
	if err != nil || sc != bits.SCEndOfSequence {
		return fmt.Errorf("codec: enhancement missing EOS (%#x, %v)", sc, err)
	}
	return nil
}

func (d *EnhDecoder) decodeFrame(f *video.Frame) error {
	d.ph.PhaseBegin(PhaseVopDecode)
	defer d.ph.PhaseEnd(PhaseVopDecode)
	sc, err := d.r.NextStartcode()
	if err != nil || sc != bits.SCVOP {
		return fmt.Errorf("codec: enhancement VOP startcode missing (%#x, %v)", sc, err)
	}
	var coords [4]int
	for i := range coords {
		v, err := d.r.UE()
		if err != nil {
			return err
		}
		coords[i] = int(v) * 16
	}
	x0, y0, x1, y1 := coords[0], coords[1], coords[2], coords[3]
	if x1 > f.W {
		x1 = f.W
	}
	if y1 > f.H {
		y1 = f.H
	}
	d.st.advance(d.r.Pos())

	for mby := y0 / 16; mby < (y1+15)/16; mby++ {
		predMV := motion.MV{}
		for mbx := x0 / 16; mbx < (x1+15)/16; mbx++ {
			x, y := mbx*16, mby*16
			d.tabs.traceMBStruct(d.t)
			mv, err := DecodeMVDPair(d.r, predMV)
			if err != nil {
				return err
			}
			predMV = mv
			// Predict from the base reconstruction still held in f.
			motion.CompensateTo(d.t, d.pred.Y, f.Y, 0, 0, x, y, 16, mv)
			cx, cy := chromaMV(mv.X, mv.Y)
			cmv := motion.MV{X: cx, Y: cy}
			motion.CompensateTo(d.t, d.pred.Cb, f.Cb, 0, 0, x/2, y/2, 8, cmv)
			motion.CompensateTo(d.t, d.pred.Cr, f.Cr, 0, 0, x/2, y/2, 8, cmv)
			var flags [6]bool
			for i := range flags {
				b, err := d.r.Bit()
				if err != nil {
					return err
				}
				flags[i] = b == 1
			}
			apply := func(cp, pp *video.Plane, bx, by, px, py int, coded bool) error {
				d.tabs.traceCalls(d.t, 4)
				var blk dct.Block
				var scan [64]int32
				if coded {
					if err := DecodeCoeffBlock(d.r, &scan); err != nil {
						return err
					}
					d.tabs.traceVLC(d.t, countEvents(&scan))
					dct.Unscan(&scan, &blk)
					traceBlock(d.t, d.blkAddr, 64*2)
					d.quant.DequantInter(&blk)
					traceBlock(d.t, d.blkAddr, dct.OpsQuant)
					dct.Inverse(&blk)
					d.tabs.traceIDCT(d.t, d.blkAddr)
				}
				addBlockAt(d.t, d.blkAddr, pp, cp, bx, by, px, py, &blk)
				return nil
			}
			for i, b := range lumaBlocks(x, y) {
				if err := apply(f.Y, d.pred.Y, b[0], b[1], b[0]-x, b[1]-y, flags[i]); err != nil {
					return err
				}
			}
			if err := apply(f.Cb, d.pred.Cb, x/2, y/2, 0, 0, flags[4]); err != nil {
				return err
			}
			if err := apply(f.Cr, d.pred.Cr, x/2, y/2, 0, 0, flags[5]); err != nil {
				return err
			}
			d.st.advance(d.r.Pos())
		}
	}
	return nil
}

// gatherDiffAt, traceBlock and addBlockAt are the shared residual-path
// helpers of the enhancement coder.

func gatherDiffAt(t simmem.Tracer, blkAddr uint64, a, b *video.Plane, x, y, px, py int, blk *dct.Block) {
	for r := 0; r < 8; r++ {
		ao := (y+r)*a.Stride + x
		bo := (py+r)*b.Stride + px
		ar := a.Pix[ao : ao+8]
		br := b.Pix[bo : bo+8]
		for i := 0; i < 8; i++ {
			blk[r*8+i] = int32(ar[i]) - int32(br[i])
		}
	}
	simmem.AccessStrided(t, a.Addr+uint64(y*a.Stride+x), 8, a.Stride, 8, simmem.Load)
	simmem.AccessStrided(t, b.Addr+uint64(py*b.Stride+px), 8, b.Stride, 8, simmem.Load)
	simmem.AccessRunUnit(t, blkAddr, 256, 4, simmem.Store)
	t.Ops(8 * 14)
}

func traceBlock(t simmem.Tracer, blkAddr uint64, ops uint64) {
	simmem.AccessRunUnit(t, blkAddr, 256, 4, simmem.Load)
	simmem.AccessRunUnit(t, blkAddr, 256, 4, simmem.Store)
	t.Ops(ops)
}

// addBlockAt writes clamp(pred(px,py) + blk) into out at (x, y).
func addBlockAt(t simmem.Tracer, blkAddr uint64, pred, out *video.Plane, x, y, px, py int, blk *dct.Block) {
	for r := 0; r < 8; r++ {
		po := (py+r)*pred.Stride + px
		oo := (y+r)*out.Stride + x
		pr := pred.Pix[po : po+8]
		or := out.Pix[oo : oo+8]
		for i := 0; i < 8; i++ {
			or[i] = clampPix(int32(pr[i]) + blk[r*8+i])
		}
	}
	simmem.AccessStrided(t, pred.Addr+uint64(py*pred.Stride+px), 8, pred.Stride, 8, simmem.Load)
	simmem.AccessStrided(t, out.Addr+uint64(y*out.Stride+x), 8, out.Stride, 8, simmem.Store)
	simmem.AccessRunUnit(t, blkAddr, 256, 4, simmem.Load)
	t.Ops(8 * 12)
}
