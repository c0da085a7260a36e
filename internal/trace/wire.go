// Portable trace files. A captured Trace or L2Trace can be written to
// any io.Writer and read back on any machine, so a workload is encoded
// once and every simulation — local or on a remote worker — is a replay
// of the same bytes (internal/dist ships traces to worker processes in
// exactly this format).
//
// The format is versioned and fully validated on the way in: corrupt,
// truncated or wrong-version input yields an error, never a panic — the
// decode side is safe to expose to network input (and is fuzzed, see
// wire_fuzz_test.go).
//
// Layout (all integers are unsigned varints unless noted; addresses are
// zigzag varint deltas against the previous address, which keeps the
// mostly-sequential reference streams of the codec to a few bytes per
// record):
//
//	Trace   file: "M4TR" version
//	              phase-name table: count, then per name: length, bytes
//	              record count
//	              records: op byte, then per op class:
//	                access:  addrDelta(zigzag) size
//	                run:     addrDelta(zigzag) rowBytes unit rows [stride if rows>1]
//	                ops:     count
//	                phase:   name index
//
//	L2Trace file: "M4L2" version
//	              L1 geometry: name length+bytes, size, line, ways,
//	                [version >= 2: policy length+bytes, seed]
//	              base Stats (12 counters)
//	              phase-name table (as above)
//	              event count, then per event: zigzag delta of the
//	                packed (addr<<1|writeback) word
//	              mark count, then per mark: position delta, name index,
//	                begin byte, 12 counter deltas against the previous mark
//
// Versioning rule: readers accept exactly the versions they know;
// anything else is an error (no silent best-effort decoding). Additive
// changes bump the version and readers grow a case for the old one —
// version 2 added the L1 replacement policy and random-victim seed to
// the M4L2 header (a version-1 file decodes as LRU, which is what
// every version-1 writer simulated).
package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"

	"repro/internal/cache"
)

// The formats are versioned independently so a change to one does not
// orphan readers of the other: version 2 touched only the M4L2 header
// (L1 policy + seed), so M4TR files keep writing version 1 and stay
// readable by every deployed pre-policy binary. M4L2 readers accept
// version 1 too, decoded with the LRU defaults its writers simulated.
const (
	TraceWireVersion = 1 // M4TR
	L2WireVersion    = 2 // M4L2; v2 added the L1 policy and seed
)

var (
	traceMagic = [4]byte{'M', '4', 'T', 'R'}
	l2Magic    = [4]byte{'M', '4', 'L', '2'}

	// hashMagic opens the optional content-hash trailer appended after
	// the body of either format: magic + 32 raw SHA-256 bytes of the
	// body. The trailer is outside the hashed region and outside the
	// versioned body, so both wire versions are unchanged; readers
	// accept streams that end at the body (written before the trailer
	// existed) and verify the digest when present.
	hashMagic = [4]byte{'M', '4', 'H', 'S'}
)

// hashTrailerLen is the on-wire size of the M4HS trailer.
const hashTrailerLen = 4 + sha256.Size

// ErrBadFormat tags every decode failure: wrong magic, unknown version,
// truncation, or a structurally invalid field. errors.Is(err,
// ErrBadFormat) holds for all of them (I/O errors from the underlying
// reader pass through unwrapped).
var ErrBadFormat = errors.New("malformed trace data")

func badf(format string, args ...any) error {
	return fmt.Errorf("trace: %s: %w", fmt.Sprintf(format, args...), ErrBadFormat)
}

// Decode-side sanity caps: larger values in a header mean a corrupt or
// hostile file, not a real capture. The address bound matters for
// safety, not just plausibility: replay walks cache lines with
// `for a := first; a <= last; a += lineBytes`, so an address near the
// top of the 64-bit space would wrap the loop counter and spin
// forever. Capping decoded addresses at 2^56 keeps every replay span
// (addr + stride*rows + length, each field individually bounded) far
// below 2^64. The simulated address space never leaves the low
// terabytes, so no legitimate capture is affected.
const (
	maxWireNames   = 1 << 20
	maxWireNameLen = 1 << 16
	maxWireAddr    = 1 << 56
)

// ---- encoding helpers ----

// wireBufSize is the buffer both wire directions stage bytes in; the
// body digest is fed one buffer span at a time.
const wireBufSize = 64 << 10

// wireWriter wraps the destination with buffering, varint helpers and
// write-count tracking for the io.WriterTo contract. The buffer drains
// through a SHA-256 digest until the trailer starts, so the content
// hash falls out of encoding for free, hashed in buffer-sized spans.
type wireWriter struct {
	bw  *bufio.Writer
	hw  *hashWriter
	n   int64
	err error
	tmp [binary.MaxVarintLen64]byte
}

// hashWriter passes writes through to w, feeding them to h while
// hashing is set.
type hashWriter struct {
	w       io.Writer
	h       hash.Hash
	hashing bool
}

func (hw *hashWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	if hw.hashing {
		hw.h.Write(p[:n])
	}
	return n, err
}

func newWireWriter(w io.Writer) *wireWriter {
	hw := &hashWriter{w: w, h: sha256.New(), hashing: true}
	return &wireWriter{bw: bufio.NewWriterSize(hw, wireBufSize), hw: hw}
}

func (w *wireWriter) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.bw.Write(p)
	w.n += int64(n)
	w.err = err
}

// trailer drains the body through the digest, appends the M4HS
// content-hash trailer and flushes, returning the body hash alongside
// the io.WriterTo results.
func (w *wireWriter) trailer() (Hash, int64, error) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	var sum Hash
	w.hw.h.Sum(sum[:0])
	w.hw.hashing = false
	w.write(hashMagic[:])
	w.write(sum[:])
	n, err := w.flush()
	return sum, n, err
}

func (w *wireWriter) byte(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.bw.WriteByte(b)
	if w.err == nil {
		w.n++
	}
}

func (w *wireWriter) uvarint(v uint64) {
	w.write(w.tmp[:binary.PutUvarint(w.tmp[:], v)])
}

// svarint writes v zigzag-encoded.
func (w *wireWriter) svarint(v int64) {
	w.uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

func (w *wireWriter) string(s string) {
	w.uvarint(uint64(len(s)))
	w.write([]byte(s))
}

func (w *wireWriter) flush() (int64, error) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.n, w.err
}

// ---- decoding helpers ----

// wireReader wraps the source with buffering and validated varint
// reads. Truncation surfaces as an ErrBadFormat-tagged error. Consumed
// body bytes go through a SHA-256 digest one buffer span at a time (on
// each refill, and the rest at the trailer), so the decoder knows the
// content hash, and can verify the M4HS trailer, without a second pass.
type wireReader struct {
	src    io.Reader
	buf    []byte
	pos    int // next unread byte of buf
	hashed int // buf[hashed:pos] is consumed body not yet in h
	h      hash.Hash
	n      int64 // bytes consumed before buf
	err    error // sticky source error, returned once buf drains
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{src: r, buf: make([]byte, 0, wireBufSize), h: sha256.New()}
}

// consumed returns the number of bytes decoded so far.
func (r *wireReader) consumed() int64 { return r.n + int64(r.pos) }

// fill hashes the consumed span of an exhausted buffer and refills it
// from the source.
func (r *wireReader) fill() error {
	if r.err != nil {
		return r.err
	}
	r.h.Write(r.buf[r.hashed:r.pos])
	r.n += int64(r.pos)
	r.buf, r.pos, r.hashed = r.buf[:0], 0, 0
	for range 100 {
		m, err := r.src.Read(r.buf[:cap(r.buf)])
		r.buf = r.buf[:m]
		r.err = err
		if m > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	r.err = io.ErrNoProgress
	return r.err
}

func (r *wireReader) ReadByte() (byte, error) {
	if r.pos == len(r.buf) {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// read fills p with io.ReadFull's EOF semantics.
func (r *wireReader) read(p []byte) error {
	for got := 0; got < len(p); {
		if r.pos == len(r.buf) {
			if err := r.fill(); err != nil {
				if err == io.EOF && got > 0 {
					return io.ErrUnexpectedEOF
				}
				return err
			}
		}
		k := copy(p[got:], r.buf[r.pos:])
		r.pos += k
		got += k
	}
	return nil
}

func (r *wireReader) full(p []byte) error {
	err := r.read(p)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return badf("truncated input")
	}
	return err
}

// verifyTrailer consumes the optional M4HS trailer after a fully
// decoded body and returns the content hash. A stream ending cleanly
// at the body is a legacy hash-less encoding: accepted, with the
// computed body digest as its hash. A present trailer must match the
// computed digest exactly; anything else — wrong magic, truncation, a
// stored digest that disagrees with the bytes actually read — is a
// format error.
func (r *wireReader) verifyTrailer() (Hash, error) {
	r.h.Write(r.buf[r.hashed:r.pos])
	r.hashed = r.pos
	var sum Hash
	r.h.Sum(sum[:0])
	// sum is final: trailer bytes a refill may still feed the digest
	// cannot change it.
	var magic [4]byte
	err := r.read(magic[:])
	if err == io.EOF {
		return sum, nil // pre-trailer stream
	}
	if err == io.ErrUnexpectedEOF {
		return Hash{}, badf("truncated hash trailer")
	}
	if err != nil {
		return Hash{}, err
	}
	if magic != hashMagic {
		return Hash{}, badf("bad hash trailer magic %q", magic)
	}
	var stored Hash
	err = r.read(stored[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return Hash{}, badf("truncated hash trailer")
	}
	if err != nil {
		return Hash{}, err
	}
	if stored != sum {
		return Hash{}, badf("content hash mismatch: trailer says %s, body is %s", stored, sum)
	}
	return sum, nil
}

func (r *wireReader) uvarint(what string) (uint64, error) {
	if v, k := binary.Uvarint(r.buf[r.pos:]); k > 0 {
		r.pos += k
		return v, nil
	}
	// Slow path: a varint split across refills, truncation or overflow.
	v, err := binary.ReadUvarint(r)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, badf("truncated %s", what)
	}
	if err != nil {
		// binary.ReadUvarint reports overlong encodings via errors.New;
		// tag them as format errors, pass real I/O errors through.
		if err.Error() == "binary: varint overflows a 64-bit integer" {
			return 0, badf("%s: %v", what, err)
		}
		return 0, err
	}
	return v, nil
}

func (r *wireReader) svarint(what string) (int64, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

func (r *wireReader) uint32Field(what string) (uint32, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(^uint32(0)) {
		return 0, badf("%s %d overflows 32 bits", what, v)
	}
	return uint32(v), nil
}

func (r *wireReader) header(magic [4]byte, kind string, maxVersion uint64) (int, error) {
	var got [4]byte
	if err := r.full(got[:]); err != nil {
		return 0, err
	}
	if got != magic {
		return 0, badf("not a %s file (magic %q)", kind, got)
	}
	v, err := r.uvarint("version")
	if err != nil {
		return 0, err
	}
	if v < 1 || v > maxVersion {
		return 0, badf("unsupported %s version %d (reader speaks 1..%d)", kind, v, maxVersion)
	}
	return int(v), nil
}

func (r *wireReader) nameTable() ([]string, error) {
	n, err := r.uvarint("name count")
	if err != nil {
		return nil, err
	}
	if n > maxWireNames {
		return nil, badf("name count %d exceeds limit", n)
	}
	names := make([]string, n)
	for i := range names {
		l, err := r.uvarint("name length")
		if err != nil {
			return nil, err
		}
		if l > maxWireNameLen {
			return nil, badf("name length %d exceeds limit", l)
		}
		buf := make([]byte, l)
		if err := r.full(buf); err != nil {
			return nil, err
		}
		names[i] = string(buf)
	}
	return names, nil
}

func writeNameTable(w *wireWriter, names []string) {
	w.uvarint(uint64(len(names)))
	for _, n := range names {
		w.string(n)
	}
}

// ---- Trace ----

var _ io.WriterTo = (*Trace)(nil)
var _ io.ReaderFrom = (*Trace)(nil)

// WriteTo encodes the trace in the portable wire format, including the
// M4HS content-hash trailer.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	ww := newWireWriter(w)
	t.encodeBody(ww)
	sum, n, err := ww.trailer()
	if err == nil {
		t.hcache.set(sum)
	}
	return n, err
}

// Hash returns the trace's canonical content hash: the SHA-256 of its
// wire-format body. The value is computed as a side effect of WriteTo
// or decoding and cached; a trace that has done neither is encoded to
// a discarded stream. Only call once the trace is complete.
func (t *Trace) Hash() Hash {
	if h, ok := t.hcache.get(); ok {
		return h
	}
	ww := newWireWriter(io.Discard)
	t.encodeBody(ww)
	sum, _, _ := ww.trailer()
	t.hcache.set(sum)
	return sum
}

func (t *Trace) encodeBody(ww *wireWriter) {
	ww.write(traceMagic[:])
	ww.uvarint(TraceWireVersion)
	writeNameTable(ww, t.phaseNames)
	ww.uvarint(uint64(t.records))
	prevAddr := uint64(0)
	for _, ch := range t.chunks {
		for i := range ch {
			op, addr, n, stride, unit, rows := t.expand(ch[i])
			ww.byte(op)
			switch op {
			case opAccessLoad, opAccessStore, opAccessPrefetch:
				ww.svarint(int64(addr - prevAddr))
				prevAddr = addr
				ww.uvarint(uint64(n))
			case opRunLoad, opRunStore, opRunPrefetch:
				ww.svarint(int64(addr - prevAddr))
				prevAddr = addr
				ww.uvarint(uint64(n))
				ww.uvarint(uint64(unit))
				ww.uvarint(uint64(rows))
				if rows > 1 {
					ww.uvarint(uint64(stride))
				}
			default: // opOps, opPhaseBegin, opPhaseEnd: payload is a count/index
				ww.uvarint(addr)
			}
		}
	}
}

// ReadFrom decodes a wire-format trace, replacing t's contents. On
// error t is left empty, never partially filled.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	wr := newWireReader(r)
	dec, err := readTrace(wr)
	if err != nil {
		*t = Trace{}
		return wr.consumed(), err
	}
	*t = *dec
	return wr.consumed(), nil
}

// ReadTrace decodes a wire-format trace from r.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	_, err := t.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func readTrace(r *wireReader) (*Trace, error) {
	if _, err := r.header(traceMagic, "trace", TraceWireVersion); err != nil {
		return nil, err
	}
	names, err := r.nameTable()
	if err != nil {
		return nil, err
	}
	count, err := r.uvarint("record count")
	if err != nil {
		return nil, err
	}
	t := &Trace{phaseNames: names}
	// Route decoded records through the Recorder's appendRecord so the
	// wire path packs (and wide-spills) identically to live capture.
	app := &Recorder{t: t}
	prevAddr := uint64(0)
	for i := uint64(0); i < count; i++ {
		op, err := r.ReadByte()
		if err != nil {
			return nil, badf("truncated at record %d", i)
		}
		switch op {
		case opAccessLoad, opAccessStore, opAccessPrefetch:
			d, err := r.svarint("address delta")
			if err != nil {
				return nil, err
			}
			prevAddr += uint64(d)
			if prevAddr > maxWireAddr {
				return nil, badf("address %#x exceeds the %#x bound", prevAddr, uint64(maxWireAddr))
			}
			n, err := r.uint32Field("access size")
			if err != nil {
				return nil, err
			}
			app.appendRecord(op, prevAddr, n, 0, 0, 0)
		case opRunLoad, opRunStore, opRunPrefetch:
			d, err := r.svarint("address delta")
			if err != nil {
				return nil, err
			}
			prevAddr += uint64(d)
			if prevAddr > maxWireAddr {
				return nil, badf("address %#x exceeds the %#x bound", prevAddr, uint64(maxWireAddr))
			}
			n, err := r.uint32Field("run length")
			if err != nil {
				return nil, err
			}
			unit, err := r.uint32Field("run unit")
			if err != nil {
				return nil, err
			}
			rows, err := r.uvarint("run rows")
			if err != nil {
				return nil, err
			}
			if rows == 0 || rows > uint64(^uint16(0)) {
				return nil, badf("run rows %d out of range", rows)
			}
			var stride uint32
			if rows > 1 {
				if stride, err = r.uint32Field("run stride"); err != nil {
					return nil, err
				}
			}
			app.appendRecord(op, prevAddr, n, stride, unit, uint16(rows))
		case opOps:
			cnt, err := r.uvarint("ops count")
			if err != nil {
				return nil, err
			}
			app.appendRecord(op, cnt, 0, 0, 0, 0)
		case opPhaseBegin, opPhaseEnd:
			idx, err := r.uvarint("phase index")
			if err != nil {
				return nil, err
			}
			if idx >= uint64(len(names)) {
				return nil, badf("phase index %d out of range (table has %d)", idx, len(names))
			}
			app.appendRecord(op, idx, 0, 0, 0, 0)
		default:
			return nil, badf("unknown record op %d", op)
		}
	}
	sum, err := r.verifyTrailer()
	if err != nil {
		return nil, err
	}
	t.hcache = &hashCache{}
	t.hcache.set(sum)
	return t, nil
}

// ---- L2Trace ----

var _ io.WriterTo = (*L2Trace)(nil)
var _ io.ReaderFrom = (*L2Trace)(nil)

// statsFields flattens the counter block in wire order.
func statsFields(s *cache.Stats) [12]*uint64 {
	return [12]*uint64{
		&s.Loads, &s.Stores, &s.LoadBytes, &s.StoreBytes, &s.Ops,
		&s.L1Misses, &s.L1Writebacks, &s.L2Accesses, &s.L2Misses,
		&s.L2Writebacks, &s.Prefetches, &s.PrefetchL1Hits,
	}
}

func writeStatsDelta(w *wireWriter, s, prev cache.Stats) {
	sf, pf := statsFields(&s), statsFields(&prev)
	for i := range sf {
		// Counters are monotonic, so deltas are non-negative and small;
		// wraparound subtraction keeps even a non-monotonic (hand-built)
		// Stats lossless.
		w.uvarint(*sf[i] - *pf[i])
	}
}

func readStatsDelta(r *wireReader, prev cache.Stats) (cache.Stats, error) {
	s := prev
	sf := statsFields(&s)
	for i := range sf {
		d, err := r.uvarint("counter")
		if err != nil {
			return cache.Stats{}, err
		}
		*sf[i] += d
	}
	return s, nil
}

// WriteTo encodes the L1-filtered trace in the portable wire format,
// including the M4HS content-hash trailer.
func (t *L2Trace) WriteTo(w io.Writer) (int64, error) {
	ww := newWireWriter(w)
	t.encodeBody(ww)
	sum, n, err := ww.trailer()
	if err == nil {
		t.hcache.set(sum)
	}
	return n, err
}

// Hash returns the filtered trace's canonical content hash (see
// Trace.Hash). Because the wire encoding carries no capture chunking,
// the hash depends only on the L1 geometry and the L2-bound event
// stream — identical streams hash identically however they were
// captured.
func (t *L2Trace) Hash() Hash {
	if h, ok := t.hcache.get(); ok {
		return h
	}
	ww := newWireWriter(io.Discard)
	t.encodeBody(ww)
	sum, _, _ := ww.trailer()
	t.hcache.set(sum)
	return sum
}

func (t *L2Trace) encodeBody(ww *wireWriter) {
	ww.write(l2Magic[:])
	ww.uvarint(L2WireVersion)
	ww.string(t.L1.Name)
	ww.uvarint(uint64(t.L1.SizeBytes))
	ww.uvarint(uint64(t.L1.LineBytes))
	ww.uvarint(uint64(t.L1.Ways))
	ww.string(string(t.L1.Policy))
	ww.uvarint(t.L1.Seed)
	writeStatsDelta(ww, t.base, cache.Stats{})
	writeNameTable(ww, t.names)
	ww.uvarint(uint64(len(t.events)))
	prev := uint64(0)
	for _, ev := range t.events {
		ww.svarint(int64(ev - prev))
		prev = ev
	}
	ww.uvarint(uint64(len(t.marks)))
	prevPos, prevStats := 0, cache.Stats{}
	for i := range t.marks {
		m := &t.marks[i]
		ww.uvarint(uint64(m.pos - prevPos))
		prevPos = m.pos
		ww.uvarint(uint64(m.name))
		if m.begin {
			ww.byte(1)
		} else {
			ww.byte(0)
		}
		writeStatsDelta(ww, m.base, prevStats)
		prevStats = m.base
	}
}

// ReadFrom decodes a wire-format L2 trace, replacing t's contents. On
// error t is left empty, never partially filled.
func (t *L2Trace) ReadFrom(r io.Reader) (int64, error) {
	wr := newWireReader(r)
	dec, err := readL2Trace(wr)
	if err != nil {
		*t = L2Trace{}
		return wr.consumed(), err
	}
	*t = *dec
	return wr.consumed(), nil
}

// ReadL2Trace decodes a wire-format L1-filtered trace from r.
func ReadL2Trace(r io.Reader) (*L2Trace, error) {
	t := &L2Trace{}
	_, err := t.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func readL2Trace(r *wireReader) (*L2Trace, error) {
	ver, err := r.header(l2Magic, "l2trace", L2WireVersion)
	if err != nil {
		return nil, err
	}
	nameLen, err := r.uvarint("L1 name length")
	if err != nil {
		return nil, err
	}
	if nameLen > maxWireNameLen {
		return nil, badf("L1 name length %d exceeds limit", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if err := r.full(nameBuf); err != nil {
		return nil, err
	}
	t := &L2Trace{L1: cache.Config{Name: string(nameBuf)}}
	for _, f := range []struct {
		dst  *int
		what string
	}{
		{&t.L1.SizeBytes, "L1 size"},
		{&t.L1.LineBytes, "L1 line size"},
		{&t.L1.Ways, "L1 ways"},
	} {
		v, err := r.uvarint(f.what)
		if err != nil {
			return nil, err
		}
		if v > uint64(^uint32(0)) {
			return nil, badf("%s %d out of range", f.what, v)
		}
		*f.dst = int(v)
	}
	if ver >= 2 {
		// Version 2 header: replacement policy + random-victim seed. A
		// version-1 file leaves both zero — the LRU default its writer
		// simulated under.
		polLen, err := r.uvarint("L1 policy length")
		if err != nil {
			return nil, err
		}
		if polLen > maxWireNameLen {
			return nil, badf("L1 policy length %d exceeds limit", polLen)
		}
		polBuf := make([]byte, polLen)
		if err := r.full(polBuf); err != nil {
			return nil, err
		}
		t.L1.Policy = cache.Policy(polBuf)
		if t.L1.Seed, err = r.uvarint("L1 seed"); err != nil {
			return nil, err
		}
	}
	if err := t.L1.Validate(); err != nil {
		return nil, badf("L1 geometry: %v", err)
	}
	if t.base, err = readStatsDelta(r, cache.Stats{}); err != nil {
		return nil, err
	}
	if t.names, err = r.nameTable(); err != nil {
		return nil, err
	}
	nEvents, err := r.uvarint("event count")
	if err != nil {
		return nil, err
	}
	// The count is untrusted input: pre-size at most 1<<20 events and let
	// a longer stream grow as it proves itself.
	t.events = make([]uint64, 0, min(nEvents, 1<<20))
	prev := uint64(0)
	for i := uint64(0); i < nEvents; i++ {
		d, err := r.svarint("event delta")
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		if prev>>1 > maxWireAddr {
			return nil, badf("event address %#x exceeds the %#x bound", prev>>1, uint64(maxWireAddr))
		}
		t.events = append(t.events, prev)
	}
	nMarks, err := r.uvarint("mark count")
	if err != nil {
		return nil, err
	}
	prevPos, prevStats := uint64(0), cache.Stats{}
	for i := uint64(0); i < nMarks; i++ {
		d, err := r.uvarint("mark position delta")
		if err != nil {
			return nil, err
		}
		prevPos += d
		if prevPos > nEvents {
			return nil, badf("mark position %d beyond %d events", prevPos, nEvents)
		}
		nameIdx, err := r.uvarint("mark name index")
		if err != nil {
			return nil, err
		}
		if nameIdx >= uint64(len(t.names)) {
			return nil, badf("mark name index %d out of range (table has %d)", nameIdx, len(t.names))
		}
		beginByte, err := r.ReadByte()
		if err != nil {
			return nil, badf("truncated at mark %d", i)
		}
		if beginByte > 1 {
			return nil, badf("mark begin flag %d invalid", beginByte)
		}
		base, err := readStatsDelta(r, prevStats)
		if err != nil {
			return nil, err
		}
		prevStats = base
		t.marks = append(t.marks, l2Mark{
			pos:   int(prevPos),
			name:  uint32(nameIdx),
			begin: beginByte == 1,
			base:  base,
		})
	}
	sum, err := r.verifyTrailer()
	if err != nil {
		return nil, err
	}
	t.hcache = &hashCache{}
	t.hcache.set(sum)
	return t, nil
}
