package codec

import (
	"testing"

	"repro/internal/simmem"
)

// FuzzDecodeSequence feeds arbitrary bytes to the decoder, as mp4dec
// does with a file from anywhere: every input up to 64 KiB must decode
// or fail with an error, never panic. The seeds are the rectangular
// stream of TestDecoderSurvivesBitFlips and the shaped stream of
// TestDecoderSurvivesTruncationEverywhere, whole, cut in half and with
// one bit flipped.
func FuzzDecodeSequence(f *testing.F) {
	rect := DefaultConfig(64, 48)
	_, _, rectStream := encodeDecode(f, rect, 4)
	shaped := DefaultConfig(64, 48)
	shaped.Shape = true
	_, _, shapedStream := encodeDecode(f, shaped, 3)
	for _, s := range [][]byte{rectStream, shapedStream} {
		f.Add(s)
		f.Add(s[:len(s)/2])
		flipped := append([]byte(nil), s...)
		flipped[len(s)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 64<<10 {
			return
		}
		_, _ = NewDecoder(simmem.NewSpace(0), nil, nil).DecodeSequence(stream)
	})
}
