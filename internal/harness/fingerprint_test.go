package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/simmem"
)

// semanticsFingerprint pins CodeVersion to the simulator output it
// names. A change that moves any counter of the fingerprint workload
// must bump CodeVersion (so persisted memo entries miss instead of
// serving stale stats) and then record the new pair here.
const semanticsFingerprint = "sim-v1 d9bc255d2c56692fca220813a93c1fc1067a279ff0b9d37b800baf7a4b1743a3"

// writeStats appends one labelled whole-run Stats and its phases, in
// name order, to the fingerprint stream.
func writeStats(w io.Writer, label string, whole cache.Stats, phases map[string]cache.Stats) {
	fmt.Fprintf(w, "%s %+v\n", label, whole)
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s/%s %+v\n", label, name, phases[name])
	}
}

// TestSemanticsFingerprint records a pinned small workload, replays it
// on the three paper machines and on a policy row (the paper's L1 under
// every replacement policy, 1 MB L2), hashes every whole-run and
// per-phase cache.Stats, and asserts (CodeVersion, hash) equals the
// committed pair. A replay-engine change that keeps the numbers passes;
// one that moves them fails until CodeVersion is bumped. The L1 filter
// passes must also take the repeat shortcut, so it stays covered.
func TestSemanticsFingerprint(t *testing.T) {
	c, err := RecordEncodeIn(simmem.NewSpace(0), Workload{W: 176, H: 144, Frames: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, m := range perf.PaperMachines() {
		r := ReplayOn(m, c.Enc, c.SS.TotalBytes())
		phases := map[string]cache.Stats{}
		for name, pm := range r.Phases {
			phases[name] = pm.Raw
		}
		writeStats(h, m.Label(), r.Whole.Raw, phases)
	}
	// The filter passes below must exercise the L1's repeat shortcut
	// (cache.Cache.RepeatLines), which no Stats field records.
	repeats := obs.Default().Counter("trace_filter_repeat_lines_total")
	before := repeats.Value()
	for _, p := range []cache.Policy{cache.PolicyLRU, cache.PolicyPLRU, cache.PolicyFIFO, cache.PolicyRandom, cache.PolicyVictim} {
		l1 := perf.O2R12K1MB().L1
		l1.Policy = p
		rr := FilterGeometryL1(context.Background(), c.Enc, l1).ReplayMany([]cache.Config{GeometryL2For(l1, 1<<20)}, 1)
		writeStats(h, "policy "+string(p), rr[0].Whole, rr[0].Phases)
	}
	if repeats.Value() == before {
		t.Error("the L1 filter passes never took the repeat shortcut")
	}
	if got := CodeVersion + " " + hex.EncodeToString(h.Sum(nil)); got != semanticsFingerprint {
		t.Fatalf("simulator fingerprint changed:\n got %s\nwant %s\n"+
			"if the change to the simulated counters is intended, bump CodeVersion and record the new pair",
			got, semanticsFingerprint)
	}
}
