package harness

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/motion"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// captureHashPins commits the content hash of the encode and decode
// captures of one tiny workload per codec path. Every reference the
// codec makes on those paths is in these traces, so a codec change that
// moves, adds or drops a single one fails here even where the paper
// machines' counters happen not to move. Two frames code an I-VOP and a
// P-VOP; six frames (coding order I P B B P P under the default GOP)
// add the B-VOPs that every sweep capture at the default six frames
// codes.
var captureHashPins = []struct {
	name     string
	wl       Workload
	alg      motion.Algorithm
	enc, dec string
}{
	{
		// One rectangular VO: full search, half-pel refinement, forward
		// and inverse DCT, motion compensation.
		name: "1 VO",
		wl:   Workload{W: 176, H: 144, Frames: 2, Seed: 3},
		enc:  "e36fadff4bd61d645f3431776c4f4328e457ff17a97bd80395bf88c4e04458d8",
		dec:  "c10a48fd3d182d84c122c63bffbaed094300661a3e5991462e1c2ce69c953f0b",
	},
	{
		// Shaped VOs (seed 1): the alpha-masked SAD and shape coding.
		name: "3 VOs",
		wl:   Workload{W: 176, H: 144, Frames: 2, Objects: 3},
		enc:  "1011f8fad6539d7b15dd1868de84facd5522e47e581271496e10c1cc4aeffa91",
		dec:  "38b7d7dcd364e288d8fd029782dff976e3f67bf66b39a8b15476d9efa3edae55",
	},
	{
		// Two layers: the embedded base decode and the enhancement
		// layer's unmasked search, half-pel refinement and DCT.
		name: "3 VOs x 2 layers",
		wl:   Workload{W: 176, H: 144, Frames: 2, Objects: 3, Layers: 2},
		enc:  "258b6f2b68e254c9557df2804c069af1d7a9ac73d611d1b7ade14b0513db47b6",
		dec:  "1aa5eaca957d81bafa78f88153e834a3ba4e70a42698dd62e6b669e94079ca1c",
	},
	{
		// The diamond search, which no paper workload selects.
		name: "1 VO diamond",
		wl:   Workload{W: 176, H: 144, Frames: 2, Seed: 3},
		alg:  motion.DiamondSearch,
		enc:  "10624bfaeb44234091f397113d3e96067ff951d967ee7f26911d6e07dd1dcb95",
		dec:  "c3c60718bd7818f5e68acc49e0b58413d682e47a375ba7371f033be3ba816448",
	},
	{
		// B-VOPs of one VO: forward, backward and interpolated
		// prediction chosen by SAD, and the P-VOPs that follow them.
		name: "1 VO B-VOPs",
		wl:   Workload{W: 176, H: 144, Frames: 6},
		enc:  "2bcf3e7cd37fb436225cb01cbd5ef3cb3a9eb7b59102a383688cffb6cd8b90c0",
		dec:  "856802d32ad9e1cd23a05526d488e2bd6d7bcc1410abb934a898b70945b8f4c5",
	},
	{
		// B-VOPs of shaped VOs in both layers.
		name: "3 VOs x 2 layers B-VOPs",
		wl:   Workload{W: 176, H: 144, Frames: 6, Objects: 3, Layers: 2},
		enc:  "0205bb80d6652f380c43a7b36e47ed0c8d2208b0781450cb2fc4cc1609d1be4e",
		dec:  "417a7852316677e36b7874f13e22015111042ba5fa698c0d0e9672f0a73448dc",
	},
	{
		// The capture every service and fleet sweep memoizes: CIF at the
		// default six frames, seed 1 (renderSweep's workload).
		name: "CIF sweep capture",
		wl:   Workload{W: 352, H: 288, Frames: 6},
		enc:  "56dccf4e0d65d46e83ffae8d6135f0b81aedc82f8bac5796fa4a89459aa1d95a",
		dec:  "d819180411637e3418fd2655aeece6dc8c554ad7df95bc7c8174e01f056d5695",
	},
}

// TestCaptureHashPins records the encode and decode traces of each
// pinned workload and compares their content hashes with the committed
// ones. A codec change that moves a reference changes what every
// simulated number is computed from, so it must bump CodeVersion, as a
// change to the simulator does, and record the new hashes here.
func TestCaptureHashPins(t *testing.T) {
	for _, p := range captureHashPins {
		t.Run(p.name, func(t *testing.T) {
			wl := p.wl.normalize()
			space := simmem.NewSpace(0)
			cfg := wl.sessionConfig()
			cfg.Object.SearchAlg = p.alg
			rec := trace.NewRecorder()
			ss, err := codec.EncodeSession(cfg, space, rec, rec, wl.frames(space))
			if err != nil {
				t.Fatal(err)
			}
			c := &Capture{Workload: wl, Enc: rec.Finish(), SS: ss}
			if err := c.RecordDecodeIn(simmem.NewSpace(0)); err != nil {
				t.Fatal(err)
			}
			for _, h := range []struct {
				dir       string
				got, want string
			}{{"encode", c.Enc.Hash().String(), p.enc}, {"decode", c.Dec.Hash().String(), p.dec}} {
				if h.got != h.want {
					t.Errorf("%s capture hash changed:\n got %s\nwant %s\n"+
						"a codec change that moves a reference must bump CodeVersion (now %s) and record the new hashes here",
						h.dir, h.got, h.want, CodeVersion)
				}
			}
		})
	}
}
