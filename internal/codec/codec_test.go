package codec

import (
	"testing"

	"repro/internal/simmem"
	"repro/internal/video"
	"repro/internal/vop"
)

// encodeDecode runs a full roundtrip for cfg over n synthetic frames and
// returns originals, decoded frames and the bitstream.
func encodeDecode(t testing.TB, cfg Config, n int) ([]*video.Frame, []*video.Frame, []byte) {
	t.Helper()
	sp := simmem.NewSpace(0)
	synth := video.NewSynth(cfg.W, cfg.H, 11)
	var frames []*video.Frame
	if cfg.Shape {
		frames = synth.ObjectSequence(sp, 0, n)
	} else {
		frames = synth.Sequence(sp, n)
	}
	enc, err := NewEncoder(cfg, sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(simmem.NewSpace(0), nil, nil)
	got, err := dec.DecodeSequence(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d frames want %d", len(got), n)
	}
	return frames, got, stream
}

func TestConfigValidate(t *testing.T) {
	if DefaultConfig(64, 48).Validate() != nil {
		t.Fatal("default config invalid")
	}
	bad := []Config{
		{W: 60, H: 48, GOP: vop.DefaultGOP(), QP: 8, SearchRange: 8},
		{W: 64, H: 48, GOP: vop.GOP{N: 5, M: 2}, QP: 8, SearchRange: 8},
		{W: 64, H: 48, GOP: vop.DefaultGOP(), QP: 0, SearchRange: 8},
		{W: 64, H: 48, GOP: vop.DefaultGOP(), QP: 8, SearchRange: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRoundTripIOnly(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	cfg.GOP = vop.GOP{N: 1, M: 1} // all intra
	orig, got, _ := encodeDecode(t, cfg, 3)
	for i := range orig {
		if p := video.PSNR(orig[i], got[i]); p < 30 {
			t.Errorf("I-frame %d PSNR %.1f dB too low", i, p)
		}
	}
}

func TestRoundTripIPP(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	cfg.GOP = vop.GOP{N: 12, M: 1} // I P P P ...
	orig, got, _ := encodeDecode(t, cfg, 6)
	for i := range orig {
		if p := video.PSNR(orig[i], got[i]); p < 28 {
			t.Errorf("frame %d PSNR %.1f dB too low", i, p)
		}
	}
}

func TestRoundTripIBBP(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	orig, got, _ := encodeDecode(t, cfg, 8)
	for i := range orig {
		if got[i].TimeIndex != i {
			t.Fatalf("frame %d has TimeIndex %d (reorder broken)", i, got[i].TimeIndex)
		}
		if p := video.PSNR(orig[i], got[i]); p < 26 {
			t.Errorf("frame %d PSNR %.1f dB too low", i, p)
		}
	}
}

func TestRoundTripLargerQP(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	cfg.QP = 20
	orig, got, streamHi := encodeDecode(t, cfg, 4)
	for i := range orig {
		if p := video.PSNR(orig[i], got[i]); p < 18 {
			t.Errorf("frame %d PSNR %.1f dB too low for QP 20", i, p)
		}
	}
	cfg.QP = 4
	_, _, streamLo := encodeDecode(t, cfg, 4)
	if len(streamLo) <= len(streamHi) {
		t.Errorf("finer QP should cost more bits: %d vs %d", len(streamLo), len(streamHi))
	}
}

func TestRoundTripShape(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	cfg.Shape = true
	orig, got, _ := encodeDecode(t, cfg, 5)
	for i := range orig {
		if got[i].Alpha == nil {
			t.Fatalf("frame %d missing decoded alpha", i)
		}
		// Shape coding is lossless.
		for j := range orig[i].Alpha.Pix {
			if orig[i].Alpha.Pix[j] != got[i].Alpha.Pix[j] {
				t.Fatalf("frame %d alpha mismatch at %d", i, j)
			}
		}
		// Texture quality measured inside the object support only.
		var sse, n float64
		for y := 0; y < cfg.H; y++ {
			for x := 0; x < cfg.W; x++ {
				if orig[i].Alpha.At(x, y) == 0 {
					continue
				}
				d := float64(int(orig[i].Y.At(x, y)) - int(got[i].Y.At(x, y)))
				sse += d * d
				n++
			}
		}
		if n > 0 && sse/n > 150 {
			t.Errorf("frame %d object MSE %.1f too high", i, sse/n)
		}
	}
}

func TestBitstreamHasStartcodes(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	_, _, stream := encodeDecode(t, cfg, 4)
	// Header + 4 VOPs + EOS = at least 6 startcodes.
	count := 0
	for i := 0; i+3 < len(stream); i++ {
		if stream[i] == 0 && stream[i+1] == 0 && stream[i+2] == 1 {
			count++
		}
	}
	if count < 6 {
		t.Fatalf("found %d startcodes, want >= 6", count)
	}
}

func TestDecoderRejectsTruncated(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	_, _, stream := encodeDecode(t, cfg, 4)
	dec := NewDecoder(simmem.NewSpace(0), nil, nil)
	if _, err := dec.DecodeSequence(stream[:len(stream)/2]); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
}

func TestDecoderRejectsGarbageHeader(t *testing.T) {
	dec := NewDecoder(simmem.NewSpace(0), nil, nil)
	if _, err := dec.DecodeSequence([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("garbage stream decoded")
	}
	// Valid startcode, wrong suffix.
	if _, err := dec.DecodeSequence([]byte{0, 0, 1, 0xB6, 0, 0}); err == nil {
		t.Fatal("wrong startcode accepted")
	}
}

func TestEncoderValidatesFrames(t *testing.T) {
	sp := simmem.NewSpace(0)
	cfg := DefaultConfig(64, 48)
	enc, err := NewEncoder(cfg, sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := video.NewFrame(sp, 32, 32)
	if _, err := enc.EncodeSequence([]*video.Frame{wrong}); err == nil {
		t.Fatal("wrong-size frame accepted")
	}
	cfg.Shape = true
	enc2, err := NewEncoder(cfg, sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	noAlpha := video.NewFrame(sp, 64, 48)
	if _, err := enc2.EncodeSequence([]*video.Frame{noAlpha}); err == nil {
		t.Fatal("missing alpha accepted with Shape=true")
	}
}

func TestTracedEncodeProducesTraffic(t *testing.T) {
	sp := simmem.NewSpace(0)
	cfg := DefaultConfig(64, 48)
	var ct simmem.Count
	synth := video.NewSynth(64, 48, 5)
	frames := synth.Sequence(sp, 4)
	enc, err := NewEncoder(cfg, sp, &ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeSequence(frames); err != nil {
		t.Fatal(err)
	}
	if ct.Loads == 0 || ct.Stores == 0 || ct.OpCount == 0 {
		t.Fatalf("traced encode produced no traffic: %+v", ct)
	}
	if ct.Prefetches == 0 {
		t.Fatal("no software prefetches with PrefetchInterval set")
	}
	// Loads should dominate stores heavily (motion estimation reads).
	if ct.Loads < ct.Stores*2 {
		t.Errorf("unexpected load/store balance: %d / %d", ct.Loads, ct.Stores)
	}
}

func TestPhaseRecorderCalled(t *testing.T) {
	sp := simmem.NewSpace(0)
	cfg := DefaultConfig(64, 48)
	rec := &countingPhases{}
	synth := video.NewSynth(64, 48, 5)
	frames := synth.Sequence(sp, 4)
	enc, err := NewEncoder(cfg, sp, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	if rec.begins[PhaseVopEncode] != 4 || rec.ends[PhaseVopEncode] != 4 {
		t.Fatalf("encode phases: %+v", rec)
	}
	dec := NewDecoder(simmem.NewSpace(0), nil, rec)
	if _, err := dec.DecodeSequence(stream); err != nil {
		t.Fatal(err)
	}
	if rec.begins[PhaseVopDecode] != 4 || rec.ends[PhaseVopDecode] != 4 {
		t.Fatalf("decode phases: %+v", rec)
	}
}

type countingPhases struct {
	begins, ends map[string]int
}

func (c *countingPhases) PhaseBegin(n string) {
	if c.begins == nil {
		c.begins = map[string]int{}
	}
	c.begins[n]++
}

func (c *countingPhases) PhaseEnd(n string) {
	if c.ends == nil {
		c.ends = map[string]int{}
	}
	c.ends[n]++
}

func TestVOPStatsRecorded(t *testing.T) {
	sp := simmem.NewSpace(0)
	cfg := DefaultConfig(64, 48)
	synth := video.NewSynth(64, 48, 5)
	frames := synth.Sequence(sp, 6)
	enc, _ := NewEncoder(cfg, sp, nil, nil)
	if _, err := enc.EncodeSequence(frames); err != nil {
		t.Fatal(err)
	}
	if len(enc.VOPBits) != 6 || len(enc.VOPTypes) != 6 {
		t.Fatalf("VOP stats missing: %d/%d", len(enc.VOPBits), len(enc.VOPTypes))
	}
	if enc.VOPTypes[0] != vop.TypeI {
		t.Fatal("first VOP not intra")
	}
	// I frames should usually cost more bits than B frames.
	if enc.VOPBits[0] == 0 {
		t.Fatal("zero-bit VOP")
	}
}

func TestRateControlAdjustsQP(t *testing.T) {
	sp := simmem.NewSpace(0)
	cfg := DefaultConfig(64, 48)
	cfg.TargetBitrate = 2000 // tiny: QP must rise
	cfg.QP = 4
	synth := video.NewSynth(64, 48, 5)
	frames := synth.Sequence(sp, 8)
	enc, _ := NewEncoder(cfg, sp, nil, nil)
	if _, err := enc.EncodeSequence(frames); err != nil {
		t.Fatal(err)
	}
	if enc.qp <= 4 {
		t.Fatalf("rate control did not raise QP (still %d)", enc.qp)
	}
}

func TestDecoderConfigMatchesEncoder(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	cfg.Shape = true
	sp := simmem.NewSpace(0)
	synth := video.NewSynth(64, 48, 5)
	frames := synth.ObjectSequence(sp, 0, 3)
	enc, _ := NewEncoder(cfg, sp, nil, nil)
	stream, err := enc.EncodeSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(simmem.NewSpace(0), nil, nil)
	if _, err := dec.DecodeSequence(stream); err != nil {
		t.Fatal(err)
	}
	got := dec.Config()
	if got.W != 64 || got.H != 48 || !got.Shape || got.GOP != cfg.GOP {
		t.Fatalf("decoder config %+v", got)
	}
}

// TestDecoderSurvivesBitFlips flips bits throughout a valid stream and
// requires the decoder to fail cleanly (error or success, never a panic
// or runaway allocation). This is the error-resilience floor a decoder
// exposed to network streams needs.
func TestDecoderSurvivesBitFlips(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	_, _, stream := encodeDecode(t, cfg, 4)
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), stream...)
		// Deterministic pseudo-random positions.
		pos := (trial*7919 + 13) % (len(corrupted) * 8)
		corrupted[pos/8] ^= 1 << (pos % 8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d (bit %d): decoder panicked: %v", trial, pos, r)
				}
			}()
			dec := NewDecoder(simmem.NewSpace(0), nil, nil)
			_, _ = dec.DecodeSequence(corrupted)
		}()
	}
}

// TestDecoderSurvivesTruncationEverywhere truncates the stream at many
// byte boundaries; every prefix must decode or error cleanly.
func TestDecoderSurvivesTruncationEverywhere(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	cfg.Shape = true
	_, _, stream := encodeDecode(t, cfg, 3)
	step := len(stream)/64 + 1
	for cut := 0; cut < len(stream); cut += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: decoder panicked: %v", cut, r)
				}
			}()
			dec := NewDecoder(simmem.NewSpace(0), nil, nil)
			_, _ = dec.DecodeSequence(stream[:cut])
		}()
	}
}

func TestConfigRejectsHugeDimensions(t *testing.T) {
	cfg := DefaultConfig(MaxDimension+16, 48)
	if cfg.Validate() == nil {
		t.Fatal("oversize width accepted")
	}
}

// TestDeterministicBitstream guards reproducibility: the whole pipeline
// is seed-deterministic, so two encodes of the same synthetic input
// must produce identical bytes.
func TestDeterministicBitstream(t *testing.T) {
	make1 := func() []byte {
		sp := simmem.NewSpace(0)
		frames := video.NewSynth(64, 48, 99).Sequence(sp, 5)
		enc, err := NewEncoder(DefaultConfig(64, 48), sp, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := enc.EncodeSequence(frames)
		if err != nil {
			t.Fatal(err)
		}
		return stream
	}
	a, b := make1(), make1()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams differ at byte %d", i)
		}
	}
}

// TestEncoderReusableAcrossSequences checks that Begin resets all
// per-sequence state (rings, rate control, stats).
func TestEncoderReusableAcrossSequences(t *testing.T) {
	sp := simmem.NewSpace(0)
	frames := video.NewSynth(64, 48, 7).Sequence(sp, 4)
	enc, err := NewEncoder(DefaultConfig(64, 48), sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := enc.EncodeSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := enc.EncodeSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(s1), len(s2))
	}
	dec := NewDecoder(simmem.NewSpace(0), nil, nil)
	if _, err := dec.DecodeSequence(s2); err != nil {
		t.Fatalf("second-use stream undecodable: %v", err)
	}
}
