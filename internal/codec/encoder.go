package codec

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/dct"
	"repro/internal/motion"
	"repro/internal/shape"
	"repro/internal/simmem"
	"repro/internal/video"
	"repro/internal/vop"
)

// Encoder encodes one video object layer. It owns the reconstruction
// ring (the decoded-picture buffer an encoder must maintain to predict
// from what the decoder will see) and all scratch storage, allocated in
// the simulated address space.
type Encoder struct {
	cfg   Config
	space *simmem.Space
	t     simmem.Tracer
	ph    PhaseRecorder

	search motion.Searcher
	quant  dct.Quantizer
	qp     int

	w  *bits.Writer
	st *streamTracer

	// Reconstruction ring: anchors the following VOPs predict from.
	ring     [3]*video.Frame
	ringDisp [3]int // display index held by each slot, -1 if empty

	pred     *video.Frame // macroblock-sized motion-compensated prediction buffer
	scratchF *video.Frame // B-VOP forward prediction MB buffer
	scratchB *video.Frame // B-VOP backward prediction MB buffer

	blkAddr uint64 // simulated address of the DCT scratch block
	tabs    kernelTables

	// padStager models the per-anchor padded/interpolated reference
	// image rebuild of the reference encoder (see staging.go).
	padStager *vopStager

	// Per-VOP statistics.
	VOPBits  []int
	VOPTypes []vop.Type
}

// NewEncoder builds an encoder for cfg, allocating its buffers in space
// and reporting memory traffic to t.
func NewEncoder(cfg Config, space *simmem.Space, t simmem.Tracer, ph PhaseRecorder) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t == nil {
		t = simmem.Nop{}
	}
	if ph == nil {
		ph = NopPhases{}
	}
	if cfg.FrameRate <= 0 {
		cfg.FrameRate = 30
	}
	e := &Encoder{
		cfg:   cfg,
		space: space,
		t:     t,
		ph:    ph,
		search: motion.Searcher{
			Range:            cfg.SearchRange,
			PrefetchInterval: cfg.PrefetchInterval,
		},
		quant:    dct.NewQuantizer(cfg.QP),
		qp:       cfg.QP,
		pred:     video.NewFrame(space, 16, 16),
		scratchF: video.NewFrame(space, 16, 16),
		scratchB: video.NewFrame(space, 16, 16),
		blkAddr:  space.Alloc(256, 64),
		tabs:     newKernelTables(space),
	}
	for i := range e.ring {
		e.ring[i] = video.NewFrame(space, cfg.W, cfg.H)
		e.ringDisp[i] = -1
	}
	frameBytes := cfg.W * cfg.H * 3 / 2
	e.padStager = newVOPStager(space, t, frameBytes, 8, 2)
	return e, nil
}

// EncodeSequence encodes display-order frames and returns the layer
// bitstream. Frames must match the configured dimensions; when Shape is
// set each frame must carry an alpha plane.
func (e *Encoder) EncodeSequence(frames []*video.Frame) ([]byte, error) {
	if err := e.Begin(len(frames)); err != nil {
		return nil, err
	}
	items, err := e.cfg.GOP.Schedule(len(frames))
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if err := e.EncodeItem(it, frames[it.Display]); err != nil {
			return nil, err
		}
	}
	return e.End()
}

// Begin starts a new bitstream for nFrames display frames. Use with
// EncodeItem/End for interleaved multi-object sessions; EncodeSequence
// wraps the three for the single-object case.
func (e *Encoder) Begin(nFrames int) error {
	e.w = bits.NewWriter(1 << 16)
	e.st = newStreamTracer(e.t, e.space, 1<<20, simmem.Store)
	e.VOPBits = e.VOPBits[:0]
	e.VOPTypes = e.VOPTypes[:0]
	for i := range e.ringDisp {
		e.ringDisp[i] = -1
	}
	e.qp = e.cfg.QP
	return e.writeHeader(nFrames)
}

// EncodeItem codes one scheduled VOP. Items must arrive in a valid
// coding order (references already coded).
func (e *Encoder) EncodeItem(it vop.Item, f *video.Frame) error {
	if f.W != e.cfg.W || f.H != e.cfg.H {
		return fmt.Errorf("codec: frame %d is %dx%d, config %dx%d",
			it.Display, f.W, f.H, e.cfg.W, e.cfg.H)
	}
	if e.cfg.Shape && f.Alpha == nil {
		return fmt.Errorf("codec: shape coding enabled but frame %d has no alpha", it.Display)
	}
	return e.encodeVOP(it, f)
}

// End terminates the stream and returns its bytes.
func (e *Encoder) End() ([]byte, error) {
	e.w.PutStartcode(bits.SCEndOfSequence)
	e.st.advance(e.w.Len())
	return e.w.Bytes(), nil
}

func (e *Encoder) writeHeader(nFrames int) error {
	w := e.w
	w.PutStartcode(bits.SCVideoObjectLayer)
	w.PutUE(uint32(e.cfg.W / 16))
	w.PutUE(uint32(e.cfg.H / 16))
	w.PutUE(uint32(e.cfg.GOP.N))
	w.PutUE(uint32(e.cfg.GOP.M))
	w.PutUE(uint32(e.cfg.QP))
	if e.cfg.Shape {
		w.PutBit(1)
	} else {
		w.PutBit(0)
	}
	w.PutUE(uint32(nFrames))
	e.st.advance(w.Len())
	return nil
}

// ringSlot returns the reconstruction frame holding display index d.
func (e *Encoder) ringSlot(d int) *video.Frame {
	for i, rd := range e.ringDisp {
		if rd == d {
			return e.ring[i]
		}
	}
	return nil
}

// ringClaim returns a slot for a new anchor at display d, evicting the
// oldest held anchor.
func (e *Encoder) ringClaim(d int) *video.Frame {
	oldest, oi := 1<<30, 0
	for i, rd := range e.ringDisp {
		if rd < 0 {
			oi = i
			break
		}
		if rd < oldest {
			oldest, oi = rd, i
		}
	}
	e.ringDisp[oi] = d
	return e.ring[oi]
}

// encodeVOP codes one VOP. The VopEncode phase covers exactly what the
// paper's instrumented VopCode() covers — shape, texture and motion
// coding of the plane; reference staging and rate control sit outside
// the phase, like the reference encoder's surrounding VOP loop.
func (e *Encoder) encodeVOP(it vop.Item, f *video.Frame) error {
	startBits := e.w.Len()
	w := e.w
	w.PutStartcode(bits.SCVOP)
	w.PutBits(uint32(it.Type), 2)
	w.PutUE(uint32(it.Display))
	w.PutUE(uint32(e.qp))
	e.st.advance(w.Len())

	quant := dct.NewQuantizer(e.qp)

	var fwd, bwd *video.Frame
	if it.Fwd >= 0 {
		if fwd = e.ringSlot(it.Fwd); fwd == nil {
			return fmt.Errorf("codec: forward reference %d not in ring", it.Fwd)
		}
	}
	if it.Bwd >= 0 {
		if bwd = e.ringSlot(it.Bwd); bwd == nil {
			return fmt.Errorf("codec: backward reference %d not in ring", it.Bwd)
		}
	}

	var recon *video.Frame
	if it.Type != vop.TypeB {
		recon = e.ringClaim(it.Display)
	}

	e.ph.PhaseBegin(PhaseVopEncode)
	if e.cfg.Shape {
		if err := e.writeShapeSegment(f.Alpha); err != nil {
			e.ph.PhaseEnd(PhaseVopEncode)
			return err
		}
	}
	ebx0, eby0, ebx1, eby1 := 0, 0, e.cfg.W, e.cfg.H
	if e.cfg.Shape {
		// Shaped VOPs are coded over their bounding box only.
		ebx0, eby0, ebx1, eby1 = video.BBox(f.Alpha, e.cfg.W, e.cfg.H)
	}
	for mby := eby0 / 16; mby < (eby1+15)/16; mby++ {
		// MV and intra-DC prediction reset per macroblock row.
		predF, predB := motion.MV{}, motion.MV{}
		dcPred := newDCPred()
		for mbx := ebx0 / 16; mbx < (ebx1+15)/16; mbx++ {
			x, y := mbx*16, mby*16
			if e.cfg.Shape && shape.Classify(f.Alpha, x, y) == shape.BABTransparent {
				// Fully transparent macroblocks carry no texture bits;
				// both sides derive this from the decoded alpha.
				continue
			}
			e.tabs.traceMBStruct(e.t)
			var err error
			switch it.Type {
			case vop.TypeI:
				err = e.encodeIntraMB(quant, f, recon, x, y, &dcPred)
			case vop.TypeP:
				predF, err = e.encodeInterMB(quant, f, fwd, recon, x, y, predF)
			case vop.TypeB:
				predF, predB, err = e.encodeBMB(quant, f, fwd, bwd, x, y, predF, predB)
			}
			if err != nil {
				e.ph.PhaseEnd(PhaseVopEncode)
				return err
			}
			e.st.advance(w.Len())
		}
	}
	e.ph.PhaseEnd(PhaseVopEncode)
	if recon != nil && !e.cfg.DisableStaging {
		// Rebuild the padded + interpolated reference images the next
		// VOPs' motion search and compensation read (reference-encoder
		// behaviour; see staging.go). Shaped VOPs stage their bounding
		// box only.
		e.padStager.stageRegion(recon, ebx0, eby0, ebx1, eby1)
	}
	bitsUsed := int(e.w.Len() - startBits)
	e.VOPBits = append(e.VOPBits, bitsUsed)
	e.VOPTypes = append(e.VOPTypes, it.Type)
	e.rateControl(bitsUsed)
	return nil
}

// writeShapeSegment codes the alpha plane as a length-prefixed segment
// so the decoder can hand exactly those bytes to the arithmetic decoder.
func (e *Encoder) writeShapeSegment(alpha *video.Plane) error {
	sub := bits.NewWriter(1024)
	if err := shape.EncodePlane(sub, e.t, alpha); err != nil {
		return err
	}
	payload := sub.Bytes()
	e.w.PutUE(uint32(len(payload)))
	e.w.AlignZero()
	for _, b := range payload {
		e.w.PutBits(uint32(b), 8)
	}
	e.st.advance(e.w.Len())
	return nil
}

// rateControl nudges QP toward the bit budget (a minimal TM5-flavoured
// reaction loop; the paper's runs target 38400 bit/s).
func (e *Encoder) rateControl(bitsUsed int) {
	if e.cfg.TargetBitrate <= 0 {
		return
	}
	target := e.cfg.TargetBitrate / e.cfg.FrameRate
	switch {
	case bitsUsed > target*5/4 && e.qp < 31:
		e.qp++
	case bitsUsed < target*3/4 && e.qp > 1:
		e.qp--
	}
}

// traceBlockOp accounts the scratch-block traffic and ALU work of one
// 8×8 transform-domain operation (DCT, quant, ...) at the timing model's
// granularity: the 256-byte coefficient block is read and written once.
func (e *Encoder) traceBlockOp(ops uint64) {
	simmem.AccessRunUnit(e.t, e.blkAddr, 256, 4, simmem.Load)
	simmem.AccessRunUnit(e.t, e.blkAddr, 256, 4, simmem.Store)
	e.t.Ops(ops)
}

// traceDCTOp accounts one forward or inverse transform, including the
// basis-table loads.
func (e *Encoder) traceDCTOp() {
	e.tabs.traceDCT(e.t, e.blkAddr)
}

// gatherBlock loads the 8×8 samples at (x, y) of p into blk, tracing the
// plane loads and scratch stores.
func (e *Encoder) gatherBlock(p *video.Plane, x, y int, blk *dct.Block) {
	for r := 0; r < 8; r++ {
		off := (y+r)*p.Stride + x
		row := p.Pix[off : off+8]
		for i := 0; i < 8; i++ {
			blk[r*8+i] = int32(row[i])
		}
	}
	simmem.AccessStrided(e.t, p.Addr+uint64(y*p.Stride+x), 8, p.Stride, 8, simmem.Load)
	simmem.AccessRunUnit(e.t, e.blkAddr, 256, 4, simmem.Store)
	e.t.Ops(8 * 10)
}

// gatherDiffBlock loads cur−pred into blk; (px, py) is the block origin
// inside the (macroblock-sized) prediction plane.
func (e *Encoder) gatherDiffBlock(cur, pred *video.Plane, x, y, px, py int, blk *dct.Block) {
	for r := 0; r < 8; r++ {
		co := (y+r)*cur.Stride + x
		po := (py+r)*pred.Stride + px
		cr := cur.Pix[co : co+8]
		pr := pred.Pix[po : po+8]
		for i := 0; i < 8; i++ {
			blk[r*8+i] = int32(cr[i]) - int32(pr[i])
		}
	}
	simmem.AccessStrided(e.t, cur.Addr+uint64(y*cur.Stride+x), 8, cur.Stride, 8, simmem.Load)
	simmem.AccessStrided(e.t, pred.Addr+uint64(py*pred.Stride+px), 8, pred.Stride, 8, simmem.Load)
	simmem.AccessRunUnit(e.t, e.blkAddr, 256, 4, simmem.Store)
	e.t.Ops(8 * 14)
}

// storeBlock writes clamp(blk) into recon at (x, y).
func (e *Encoder) storeBlock(recon *video.Plane, x, y int, blk *dct.Block) {
	for r := 0; r < 8; r++ {
		off := (y+r)*recon.Stride + x
		row := recon.Pix[off : off+8]
		for i := 0; i < 8; i++ {
			row[i] = clampPix(blk[r*8+i])
		}
	}
	simmem.AccessStrided(e.t, recon.Addr+uint64(y*recon.Stride+x), 8, recon.Stride, 8, simmem.Store)
	simmem.AccessRunUnit(e.t, e.blkAddr, 256, 4, simmem.Load)
	e.tabs.traceClip(e.t)
	e.t.Ops(8 * 10)
}

// addBlock writes clamp(pred + blk) into recon at (x, y); (px, py) is
// the block origin inside the prediction plane.
func (e *Encoder) addBlock(pred, recon *video.Plane, x, y, px, py int, blk *dct.Block) {
	for r := 0; r < 8; r++ {
		po := (py+r)*pred.Stride + px
		ro := (y+r)*recon.Stride + x
		pr := pred.Pix[po : po+8]
		rr := recon.Pix[ro : ro+8]
		for i := 0; i < 8; i++ {
			rr[i] = clampPix(int32(pr[i]) + blk[r*8+i])
		}
	}
	simmem.AccessStrided(e.t, pred.Addr+uint64(py*pred.Stride+px), 8, pred.Stride, 8, simmem.Load)
	simmem.AccessStrided(e.t, recon.Addr+uint64(y*recon.Stride+x), 8, recon.Stride, 8, simmem.Store)
	simmem.AccessRunUnit(e.t, e.blkAddr, 256, 4, simmem.Load)
	e.tabs.traceClip(e.t)
	e.t.Ops(8 * 12)
}

// lumaBlocks returns the four 8×8 luma block origins of the macroblock
// at (x, y).
func lumaBlocks(x, y int) [4][2]int {
	return [4][2]int{{x, y}, {x + 8, y}, {x, y + 8}, {x + 8, y + 8}}
}

// encodeIntraMB codes one intra macroblock: 4 luma + 2 chroma blocks,
// forward DCT, intra quantization with DC prediction (the DC level is
// coded differentially against the previous block of the same plane in
// the macroblock row, as the standard's simplified DC gradient rule
// does), zigzag and run-level VLC, followed by reconstruction into
// recon.
func (e *Encoder) encodeIntraMB(quant dct.Quantizer, f, recon *video.Frame, x, y int, dc *dcPred) error {
	e.w.PutBits(uint32(mbIntra), 3)
	var blk dct.Block
	var scan [64]int32
	code := func(p, rp *video.Plane, bx, by int, pred *int32) {
		e.tabs.traceCalls(e.t, 5)
		e.gatherBlock(p, bx, by, &blk)
		dct.Forward(&blk)
		e.traceDCTOp()
		quant.QuantIntra(&blk)
		e.traceBlockOp(dct.OpsQuant)
		// Differential DC against the row predictor.
		EncodeDCD(e.w, blk[0]-*pred)
		*pred = blk[0]
		dcLevel := blk[0]
		blk[0] = 0
		dct.Scan(&blk, &scan)
		e.traceBlockOp(64 * 2)
		events := EncodeCoeffBlock(e.w, &scan)
		e.tabs.traceVLC(e.t, events)
		// Reconstruct exactly as the decoder will.
		blk[0] = dcLevel
		quant.DequantIntra(&blk)
		e.traceBlockOp(dct.OpsQuant)
		dct.Inverse(&blk)
		e.traceDCTOp()
		e.storeBlock(rp, bx, by, &blk)
	}
	for _, b := range lumaBlocks(x, y) {
		code(f.Y, recon.Y, b[0], b[1], &dc.y)
	}
	code(f.Cb, recon.Cb, x/2, y/2, &dc.cb)
	code(f.Cr, recon.Cr, x/2, y/2, &dc.cr)
	return nil
}

// residualBlock transforms and codes one residual block against pred,
// reconstructing into recon when recon != nil. (px, py) is the block's
// origin inside the macroblock-sized prediction plane. Returns whether
// the block had any nonzero quantized coefficients.
func (e *Encoder) residualBlock(quant dct.Quantizer, cur, pred, recon *video.Plane, bx, by, px, py int) bool {
	var blk dct.Block
	var scan [64]int32
	e.tabs.traceCalls(e.t, 5)
	e.gatherDiffBlock(cur, pred, bx, by, px, py, &blk)
	dct.Forward(&blk)
	e.traceDCTOp()
	quant.QuantInter(&blk)
	e.traceBlockOp(dct.OpsQuant)
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
		e.traceBlockOp(64 * 2)
		events := EncodeCoeffBlock(e.w, &scan)
		e.tabs.traceVLC(e.t, events)
	}
	if recon != nil {
		if coded {
			quant.DequantInter(&blk)
			e.traceBlockOp(dct.OpsQuant)
			dct.Inverse(&blk)
			e.traceDCTOp()
			e.addBlock(pred, recon, bx, by, px, py, &blk)
		} else {
			// Reconstruction is the prediction itself.
			var zero dct.Block
			e.addBlock(pred, recon, bx, by, px, py, &zero)
		}
	}
	return coded
}

// compensateMB produces the full prediction macroblock (luma + chroma)
// in the MB-sized e.pred buffer from ref displaced by mv.
func (e *Encoder) compensateMB(ref *video.Frame, x, y int, mv motion.MV) {
	motion.CompensateTo(e.t, e.pred.Y, ref.Y, 0, 0, x, y, 16, mv)
	cx, cy := chromaMV(mv.X, mv.Y)
	cmv := motion.MV{X: cx, Y: cy}
	motion.CompensateTo(e.t, e.pred.Cb, ref.Cb, 0, 0, x/2, y/2, 8, cmv)
	motion.CompensateTo(e.t, e.pred.Cr, ref.Cr, 0, 0, x/2, y/2, 8, cmv)
}

// encodeInterMB codes one P-VOP macroblock: motion search, prediction,
// residual coding and reconstruction. predMV is the left-neighbour MV
// predictor; the (possibly updated) predictor is returned.
func (e *Encoder) encodeInterMB(quant dct.Quantizer, f, ref, recon *video.Frame, x, y int, predMV motion.MV) (motion.MV, error) {
	var alpha *video.Plane
	if e.cfg.Shape {
		alpha = f.Alpha
	}
	full, sad := e.search.SearchWith(e.cfg.SearchAlg, e.t, f.Y, ref.Y, alpha, x, y)
	mv, _ := motion.RefineHalfPel(e.t, f.Y, ref.Y, x, y, full, sad)

	e.compensateMB(ref, x, y, mv)

	// Residual blocks are coded into a side buffer first so the
	// macroblock can collapse to a skip when the zero vector predicts
	// perfectly (bitstream order is mode, MVD, coded flags, blocks).
	var codedFlags [6]bool
	anyCoded := false
	sub := bits.NewWriter(512)
	savedW := e.w
	e.w = sub
	for i, b := range lumaBlocks(x, y) {
		codedFlags[i] = e.residualBlock(quant, f.Y, e.pred.Y, recon.Y, b[0], b[1], b[0]-x, b[1]-y)
		anyCoded = anyCoded || codedFlags[i]
	}
	codedFlags[4] = e.residualBlock(quant, f.Cb, e.pred.Cb, recon.Cb, x/2, y/2, 0, 0)
	codedFlags[5] = e.residualBlock(quant, f.Cr, e.pred.Cr, recon.Cr, x/2, y/2, 0, 0)
	anyCoded = anyCoded || codedFlags[4] || codedFlags[5]
	e.w = savedW

	if !anyCoded && mv == (motion.MV{}) {
		e.w.PutBits(uint32(mbSkip), 3)
		return motion.MV{}, nil // skip resets the MV predictor
	}
	e.w.PutBits(uint32(mbInterFwd), 3)
	EncodeMVDPair(e.w, mv, predMV)
	for _, c := range codedFlags {
		if c {
			e.w.PutBit(1)
		} else {
			e.w.PutBit(0)
		}
	}
	appendWriter(e.w, sub)
	return mv, nil
}

// encodeBMB codes one B-VOP macroblock, choosing among forward,
// backward and interpolated prediction by SAD.
func (e *Encoder) encodeBMB(quant dct.Quantizer, f, fwd, bwd *video.Frame, x, y int, predF, predB motion.MV) (motion.MV, motion.MV, error) {
	var alpha *video.Plane
	if e.cfg.Shape {
		alpha = f.Alpha
	}
	fFull, fSAD := e.search.SearchWith(e.cfg.SearchAlg, e.t, f.Y, fwd.Y, alpha, x, y)
	fMV, fSAD := motion.RefineHalfPel(e.t, f.Y, fwd.Y, x, y, fFull, fSAD)
	bFull, bSAD := e.search.SearchWith(e.cfg.SearchAlg, e.t, f.Y, bwd.Y, alpha, x, y)
	bMV, bSAD := motion.RefineHalfPel(e.t, f.Y, bwd.Y, x, y, bFull, bSAD)

	// Interpolated cost: build the averaged prediction and measure SAD.
	motion.CompensateAvgTo(e.t, e.pred.Y, fwd.Y, bwd.Y, 0, 0, x, y, 16, fMV, bMV, e.scratchF.Y, e.scratchB.Y)
	iSAD := motion.SAD16(e.t, f.Y, e.pred.Y, x, y, 0, 0, 1<<30)

	mode := mbInterInterp
	switch {
	case fSAD <= bSAD && fSAD <= iSAD:
		mode = mbInterFwd
	case bSAD < fSAD && bSAD <= iSAD:
		mode = mbInterBwd
	}

	// Build the chosen prediction (luma already correct for interp).
	switch mode {
	case mbInterFwd:
		e.compensateMB(fwd, x, y, fMV)
	case mbInterBwd:
		e.compensateMB(bwd, x, y, bMV)
	case mbInterInterp:
		fcx, fcy := chromaMV(fMV.X, fMV.Y)
		bcx, bcy := chromaMV(bMV.X, bMV.Y)
		motion.CompensateAvgTo(e.t, e.pred.Cb, fwd.Cb, bwd.Cb, 0, 0, x/2, y/2, 8,
			motion.MV{X: fcx, Y: fcy}, motion.MV{X: bcx, Y: bcy}, e.scratchF.Cb, e.scratchB.Cb)
		motion.CompensateAvgTo(e.t, e.pred.Cr, fwd.Cr, bwd.Cr, 0, 0, x/2, y/2, 8,
			motion.MV{X: fcx, Y: fcy}, motion.MV{X: bcx, Y: bcy}, e.scratchF.Cr, e.scratchB.Cr)
	}

	e.w.PutBits(uint32(mode), 3)
	if mode == mbInterFwd || mode == mbInterInterp {
		EncodeMVDPair(e.w, fMV, predF)
		predF = fMV
	}
	if mode == mbInterBwd || mode == mbInterInterp {
		EncodeMVDPair(e.w, bMV, predB)
		predB = bMV
	}

	var codedFlags [6]bool
	sub := bits.NewWriter(512)
	savedW := e.w
	e.w = sub
	for i, b := range lumaBlocks(x, y) {
		codedFlags[i] = e.residualBlock(quant, f.Y, e.pred.Y, nil, b[0], b[1], b[0]-x, b[1]-y)
	}
	codedFlags[4] = e.residualBlock(quant, f.Cb, e.pred.Cb, nil, x/2, y/2, 0, 0)
	codedFlags[5] = e.residualBlock(quant, f.Cr, e.pred.Cr, nil, x/2, y/2, 0, 0)
	e.w = savedW
	for _, c := range codedFlags {
		if c {
			e.w.PutBit(1)
		} else {
			e.w.PutBit(0)
		}
	}
	appendWriter(e.w, sub)
	return predF, predB, nil
}

// appendWriter copies the bits of src onto dst. src is byte-padded; the
// trailing pad inside a macroblock would desynchronise the decoder, so
// the exact bit length is transferred.
func appendWriter(dst *bits.Writer, src *bits.Writer) {
	n := src.Len()
	data := src.Bytes()
	var i uint64
	for ; i+8 <= n; i += 8 {
		dst.PutBits(uint32(data[i/8]), 8)
	}
	for ; i < n; i++ {
		b := (data[i/8] >> (7 - i%8)) & 1
		dst.PutBit(uint32(b))
	}
}
