package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/simmem"
)

// boundaryHash is the M4L2 content hash of boundaryL2Trace, recorded
// when the stream was still one flat slice: chunking moves no wire byte.
const boundaryHash = "749e4731ac2df800ce03774618e141f5c15d679c6ee47c10fcb176c78152dff3"

// boundaryEvents is an L2-bound stream two and a half chunks long, with
// writeback installs, over 4096 lines of 32 B.
func boundaryEvents() []uint64 {
	const n = 2*fusedBlockEvents + fusedBlockEvents/2
	events := make([]uint64, n)
	x := uint64(7)
	for i := range events {
		x = x*6364136223846793005 + 1442695040888963407
		events[i] = (x >> 33) % 4096 * 32 << 1
		if x>>63 == 1 {
			events[i] |= 1
		}
	}
	return events
}

// boundaryL2Trace holds boundaryEvents with phase marks at the first
// position, on each chunk boundary and one event either side of it
// (two marks share a position), and after the last event.
func boundaryL2Trace() *L2Trace {
	const c = fusedBlockEvents
	events := boundaryEvents()
	lt := &L2Trace{
		L1:     l1Config(),
		base:   cache.Stats{Loads: 1 << 20, Stores: 1 << 18, L1Misses: 1 << 17, Ops: 1 << 22},
		names:  []string{"frame", "edge"},
		hcache: &hashCache{},
	}
	lt.setEvents(events)
	for _, m := range []struct {
		pos   int
		name  uint32
		begin bool
	}{
		{0, 0, true}, {c - 1, 1, true}, {c, 1, false}, {c, 1, true}, {c + 1, 1, false},
		{c + 1, 0, false}, {c + 1, 0, true}, {2*c - 1, 1, true}, {2 * c, 1, false},
		{2*c + 1, 1, true}, {len(events), 1, false}, {len(events), 0, false},
	} {
		pos := uint64(m.pos)
		lt.marks = append(lt.marks, l2Mark{pos: m.pos, name: m.name, begin: m.begin,
			base: cache.Stats{Loads: 3 * pos, Stores: pos, L1Misses: pos, Ops: 10 * pos}})
	}
	return lt
}

// replayPerEvent is the reference L2 replay: the flat stream one event
// at a time, the marks at a position applied before the event there and
// the marks past the last event after it.
func replayPerEvent(lt *L2Trace, events []uint64, l2 cache.Config) (cache.Stats, map[string]cache.Stats) {
	c := cache.New(l2)
	var acc, misses, wbs uint64
	at := func(m *l2Mark) cache.Stats {
		s := m.base
		s.L2Accesses, s.L2Misses, s.L2Writebacks = acc, misses, wbs
		return s
	}
	starts, phases := map[string]cache.Stats{}, map[string]cache.Stats{}
	mi := 0
	marksAt := func(pos int) {
		for ; mi < len(lt.marks) && lt.marks[mi].pos == pos; mi++ {
			m := &lt.marks[mi]
			name := lt.names[m.name]
			if m.begin {
				starts[name] = at(m)
			} else if s, ok := starts[name]; ok {
				delete(starts, name)
				phases[name] = phases[name].Add(at(m).Sub(s))
			}
		}
	}
	for pos, ev := range events {
		marksAt(pos)
		acc++
		r := c.Access(ev>>1, ev&1 != 0)
		if !r.Hit && ev&1 == 0 {
			misses++
		}
		if !r.Hit && r.EvictedDirty {
			wbs++
		}
	}
	marksAt(len(events))
	whole := lt.base
	whole.L2Accesses, whole.L2Misses, whole.L2Writebacks = acc, misses, wbs
	return whole, phases
}

// requireReplay fails unless whole and phases equal the reference's.
func requireReplay(t *testing.T, what string, whole, wantWhole cache.Stats, phases, wantPhases map[string]cache.Stats) {
	t.Helper()
	if whole != wantWhole {
		t.Fatalf("%s: whole = %+v, want %+v", what, whole, wantWhole)
	}
	if len(phases) != len(wantPhases) {
		t.Fatalf("%s: phases %v, want %v", what, phases, wantPhases)
	}
	for name, want := range wantPhases {
		if got := phases[name]; got != want {
			t.Fatalf("%s: phase %s = %+v, want %+v", what, name, got, want)
		}
	}
}

// TestL2TraceChunkBoundaries: a stream of more than two chunks, with
// marks on and next to the chunk boundaries, encodes to the bytes it
// had as one flat slice, survives an M4L2 round trip, and replays
// through Replay and ReplayMany (1 and 4 workers) to the Stats and
// phases of the per-event reference.
func TestL2TraceChunkBoundaries(t *testing.T) {
	lt := boundaryL2Trace()
	events := boundaryEvents()
	if got := lt.Hash().String(); got != boundaryHash {
		t.Fatalf("hash %s, want %s", got, boundaryHash)
	}
	data := encodeL2Trace(t, lt)
	dec, err := ReadL2Trace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Events() != len(events) || len(dec.chunks) != 3 || dec.Hash() != lt.Hash() {
		t.Fatalf("decoded %d events in %d chunks, hash %s; want %d in 3, %s",
			dec.Events(), len(dec.chunks), dec.Hash(), len(events), lt.Hash())
	}
	for k, chunk := range dec.chunks {
		lo := k * fusedBlockEvents
		if !slices.Equal(chunk, events[lo:min(lo+fusedBlockEvents, len(events))]) {
			t.Fatalf("decoded chunk %d differs from the stream", k)
		}
	}
	if len(dec.marks) != len(lt.marks) {
		t.Fatalf("decoded %d marks, want %d", len(dec.marks), len(lt.marks))
	}
	for i := range lt.marks {
		if dec.marks[i] != lt.marks[i] {
			t.Fatalf("decoded mark %d = %+v, want %+v", i, dec.marks[i], lt.marks[i])
		}
	}
	if re := encodeL2Trace(t, dec); !bytes.Equal(re, data) {
		t.Fatal("re-encode of the decoded trace differs")
	}

	cfgs := []cache.Config{
		{SizeBytes: 16 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Policy: cache.PolicyFIFO},
		{SizeBytes: 32 << 10, LineBytes: 32, Ways: 4, Policy: cache.PolicyRandom, Seed: 3},
		{SizeBytes: 16 << 10, LineBytes: 32, Ways: 2, Policy: cache.PolicyVictim},
	}
	fused := map[int][]L2ReplayResult{1: lt.ReplayMany(cfgs, 1), 4: lt.ReplayMany(cfgs, 4)}
	for i, cfg := range cfgs {
		wantWhole, wantPhases := replayPerEvent(lt, events, cfg)
		whole, phases := lt.Replay(cfg)
		requireReplay(t, "Replay", whole, wantWhole, phases, wantPhases)
		whole, phases = dec.Replay(cfg)
		requireReplay(t, "Replay of the decoded trace", whole, wantWhole, phases, wantPhases)
		for workers, rr := range fused {
			requireReplay(t, fmt.Sprintf("ReplayMany on %d workers", workers), rr[i].Whole, wantWhole, rr[i].Phases, wantPhases)
		}
	}
}

// TestL2FilterChunkLayout: a filter pass stores its stream in chunks of
// exactly fusedBlockEvents capacity, every one but the last full, and
// marks its phases at global stream positions; SizeBytes is the
// chunks' capacity plus the marks.
func TestL2FilterChunkLayout(t *testing.T) {
	const c = fusedBlockEvents
	f := NewL2Filter(l1Config())
	n := 2*c + 3
	edges := map[int]bool{c - 1: true, c: true, c + 1: true, 2 * c: true}
	for i := 0; i < n; i++ {
		if edges[i] {
			f.PhaseBegin("edge")
		}
		f.Access(uint64(i)*32, 4, simmem.Load) // a cold line: one demand fill
		if edges[i] {
			f.PhaseEnd("edge")
		}
	}
	lt := f.Trace()
	if lt.Events() != n || len(lt.chunks) != 3 {
		t.Fatalf("%d events in %d chunks, want %d in 3", lt.Events(), len(lt.chunks), n)
	}
	for k, chunk := range lt.chunks {
		if cap(chunk) != c || k < 2 && len(chunk) != c {
			t.Fatalf("chunk %d holds %d of %d events, want a full chunk of %d", k, len(chunk), cap(chunk), c)
		}
		for i, ev := range chunk {
			if want := uint64(k*c+i) * 32 << 1; ev != want {
				t.Fatalf("event %d = %#x, want %#x", k*c+i, ev, want)
			}
		}
	}
	if want := 3*c*8 + cap(lt.marks)*int(l2MarkBytes); lt.SizeBytes() != want {
		t.Fatalf("SizeBytes %d, want %d", lt.SizeBytes(), want)
	}
	if len(lt.marks) != 8 {
		t.Fatalf("%d marks, want 8", len(lt.marks))
	}
	for i, m := range lt.marks {
		pos := []int{c - 1, c, c + 1, 2 * c}[i/2] + i%2
		if m.pos != pos || m.begin != (i%2 == 0) {
			t.Fatalf("mark %d at %d (begin %v), want %d (begin %v)", i, m.pos, m.begin, pos, i%2 == 0)
		}
	}
	var events []uint64
	for _, chunk := range lt.chunks {
		events = append(events, chunk...)
	}
	l2 := cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 2}
	wantWhole, wantPhases := replayPerEvent(lt, events, l2)
	whole, phases := lt.Replay(l2)
	requireReplay(t, "Replay", whole, wantWhole, phases, wantPhases)
}

// hostileL2Header is the start of an M4L2 body: a valid 32 KB 2-way L1
// header naming policy pol, then zero counters.
func hostileL2Header(pol string) []byte {
	b := append([]byte{}, l2Magic[:]...)
	b = binary.AppendUvarint(b, L2WireVersion)
	b = append(b, 0) // L1 name
	b = binary.AppendUvarint(b, 32<<10)
	b = append(b, 32, 2) // line size, ways
	b = append(b, byte(len(pol)))
	b = append(b, pol...)
	b = append(b, 0) // seed
	return append(b, make([]byte, 12)...)
}

// hostileL2Body is a 38-byte M4L2 body with a valid 32 KB 2-way LRU L1
// header, zero counters and names, an event count of 2^40 and then
// three events before it ends.
func hostileL2Body() []byte {
	b := append(hostileL2Header("lru"), 0) // names
	b = binary.AppendUvarint(b, 1<<40)
	return append(b, 2, 2, 2)
}

// hostileNameTableBody is a 28-byte M4L2 body with a valid 32 KB 2-way
// L1 header of the default policy, zero counters, and then a name count
// of 2^20 and no name.
func hostileNameTableBody() []byte {
	return binary.AppendUvarint(hostileL2Header(""), maxWireNames)
}

// requireCheapRejection fails unless decoding body fails as malformed
// after allocating at most one chunk, the reader's buffer and a few
// small headers.
func requireCheapRejection(t *testing.T, what string, body []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadL2Trace(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("%s decoded with %v, want ErrBadFormat", what, err)
	}
	const slack = 8 << 10 // the digest, the trace header and the error
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(fusedBlockEvents*8+wireBufSize+slack); alloc > limit {
		t.Fatalf("decoding %s allocated %d bytes, more than one chunk and the reader's buffer (%d)", what, alloc, limit)
	}
}

// TestReadL2TraceHostileEventCount: an event count the body does not
// back costs the decoder one chunk, not the count's claim: the body
// fails as malformed after allocating at most one chunk, the reader's
// buffer and a few small headers.
func TestReadL2TraceHostileEventCount(t *testing.T) {
	body := hostileL2Body()
	if len(body) != 38 {
		t.Fatalf("hostile body is %d bytes, want 38", len(body))
	}
	requireCheapRejection(t, "a 2^40-event claim", body)
}

// TestReadL2TraceHostileNameCount: a name count the body does not back
// costs the decoder no table of that count, under the same bound as an
// unbacked event count.
func TestReadL2TraceHostileNameCount(t *testing.T) {
	body := hostileNameTableBody()
	if len(body) != 28 {
		t.Fatalf("hostile body is %d bytes, want 28", len(body))
	}
	requireCheapRejection(t, "a 2^20-name claim", body)
}
