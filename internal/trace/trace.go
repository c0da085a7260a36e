// Package trace implements capture and replay of the simulated
// memory-reference stream: the classic trace-driven-simulation split
// between generating a workload's references (expensive — it runs the
// instrumented codec) and simulating a memory hierarchy against them
// (cheap, and repeatable against any number of hierarchies).
//
// A Recorder implements simmem.Tracer (plus the strided extension and
// the codec's phase-recorder shape) and appends fixed-width records into
// chunked buffers. Replaying the resulting Trace through a
// cache.Hierarchy reproduces counter-identical Stats to attaching the
// hierarchy to the live codec run — the paper's whole methodology
// re-keyed so the MPEG-4 encode happens once per workload and every
// machine or cache geometry is a replay.
//
// Two exactness-preserving compressions keep traces compact:
//
//   - Block kernels report 2-D strided blocks as one event (see
//     simmem.StridedTracer); one record stores what would otherwise be
//     one record per row.
//   - Ops (non-memory instruction) counts are order-independent between
//     phase markers — no Tracer's state depends on where within a phase
//     they land — so the Recorder accumulates them and emits a single
//     record before each phase boundary and at the end of the trace.
//
// Everything else is stored verbatim, in order: replay issues exactly
// the memory events of the live run, in the live order.
package trace

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/obs"
	"repro/internal/simmem"
)

// Replay-throughput metrics. The replay loops are the hottest code in
// the repository, so instrumentation is strictly per *call*: two
// time.Now reads and a handful of atomics per replay of millions of
// records. The *_per_sec gauges hold the last completed replay's
// throughput — the live number a dashboard wants mid-sweep; the
// counter/histogram pairs give the cumulative rate (records_total /
// seconds sum).
var (
	mReplays         = obs.Default().Counter("trace_replay_total")
	mReplayRecords   = obs.Default().Counter("trace_replay_records_total")
	mReplaySeconds   = obs.Default().Histogram("trace_replay_seconds", nil)
	mReplayRate      = obs.Default().Gauge("trace_replay_records_per_sec")
	mL2Replays       = obs.Default().Counter("trace_replay_l2_total")
	mL2ReplayEvents  = obs.Default().Counter("trace_replay_l2_events_total")
	mL2ReplaySeconds = obs.Default().Histogram("trace_replay_l2_seconds", nil)
	mL2ReplayRate    = obs.Default().Gauge("trace_replay_l2_events_per_sec")
)

// noteReplay records one finished full-trace replay of n records.
func noteReplay(start time.Time, n int) {
	elapsed := time.Since(start).Seconds()
	mReplaySeconds.Observe(elapsed)
	mReplays.Inc()
	mReplayRecords.Add(uint64(n))
	if elapsed > 0 {
		mReplayRate.Set(int64(float64(n) / elapsed))
	}
}

// noteL2Replay records one finished L2-trace replay of n events.
func noteL2Replay(start time.Time, n int) {
	elapsed := time.Since(start).Seconds()
	mL2ReplaySeconds.Observe(elapsed)
	mL2Replays.Inc()
	mL2ReplayEvents.Add(uint64(n))
	if elapsed > 0 {
		mL2ReplayRate.Set(int64(float64(n) / elapsed))
	}
}

// Record opcodes. Loads/stores/prefetches appear both as single
// accesses (opAccess*) and as strided runs (opRun*, rows == 1 for flat
// runs).
const (
	opAccessLoad = iota
	opAccessStore
	opAccessPrefetch
	opRunLoad
	opRunStore
	opRunPrefetch
	opOps        // payload holds the accumulated count
	opPhaseBegin // payload holds the phase-name index
	opPhaseEnd
	opWide // payload indexes the wide-record side table
)

// record is one fixed-width trace record, packed into 16 bytes:
//
//	lo  bits 0-55  base address / ops count / phase index / wide index
//	    bits 56-59 opcode
//	    bits 60-63 log2 of the run access unit
//	hi  access ops: bits 0-31 access size
//	    run ops:    bits 0-23 row bytes, 24-39 rows, 40-63 stride
//
// Values outside these ranges are legal through the Tracer interface
// and the wire format (the codec never produces them); they spill
// verbatim into the trace's wide-record table via opWide, so the
// stored stream stays exact for any input.
type record struct {
	lo, hi uint64
}

const (
	recPayloadBits = 56
	recPayloadMask = 1<<recPayloadBits - 1
	recRunMaxN     = 1<<24 - 1
	recRunMaxStr   = 1<<24 - 1
	recMaxUnit     = 1 << 15
)

func (r record) op() uint8         { return uint8(r.lo>>recPayloadBits) & 0xF }
func (r record) payload() uint64   { return r.lo & recPayloadMask }
func (r record) unit() uint32      { return uint32(1) << (r.lo >> 60) }
func (r record) accessN() uint32   { return uint32(r.hi) }
func (r record) runN() uint32      { return uint32(r.hi) & recRunMaxN }
func (r record) runRows() uint16   { return uint16(r.hi >> 24) }
func (r record) runStride() uint32 { return uint32(r.hi >> 40) }

// wideRecord stores one record whose fields exceed the packed layout,
// verbatim.
type wideRecord struct {
	addr   uint64
	n      uint32
	stride uint32
	unit   uint32
	rows   uint16
	op     uint8
}

// recordBytes is the in-memory footprint of one packed record; the
// rare wide spill costs wideRecordBytes more.
const (
	recordBytes     = 16
	wideRecordBytes = 24
)

// unitLog returns log2(unit) for the power-of-two units the packed
// form stores; -1 sends the record to the wide table.
func unitLog(unit uint32) int {
	if unit == 0 || unit&(unit-1) != 0 || unit > recMaxUnit {
		return -1
	}
	return bits.TrailingZeros32(unit)
}

// chunkRecords is the record capacity of one buffer chunk (512 KB).
// Chunked growth keeps append cost flat and avoids the transient 2×
// footprint of reallocating one giant slice.
const chunkRecords = 1 << 15

// Trace is a captured reference stream.
type Trace struct {
	chunks     [][]record
	wide       []wideRecord
	phaseNames []string
	records    int
	hcache     *hashCache // memoized content hash; nil disables caching
}

// Records returns the number of stored records.
func (t *Trace) Records() int { return t.records }

// SizeBytes returns the approximate in-memory footprint of the trace.
func (t *Trace) SizeBytes() int {
	size := cap(t.wide) * wideRecordBytes
	for _, c := range t.chunks {
		size += cap(c) * recordBytes
	}
	for _, n := range t.phaseNames {
		size += len(n)
	}
	return size
}

// expand unpacks a record to its full field set, following the wide
// table for spilled records. The slow counterpart of the inline decode
// in Replay, used by the wire encoder.
func (t *Trace) expand(r record) (op uint8, addr uint64, n, stride, unit uint32, rows uint16) {
	op = r.op()
	switch op {
	case opWide:
		w := &t.wide[r.payload()]
		return w.op, w.addr, w.n, w.stride, w.unit, w.rows
	case opAccessLoad, opAccessStore, opAccessPrefetch:
		return op, r.payload(), r.accessN(), 0, 0, 0
	case opRunLoad, opRunStore, opRunPrefetch:
		return op, r.payload(), r.runN(), r.runStride(), r.unit(), r.runRows()
	default:
		return op, r.payload(), 0, 0, 0, 0
	}
}

// String summarises the trace for reports.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{%d records, %.1f MB}", t.records, float64(t.SizeBytes())/(1<<20))
}

// PhaseSink receives the replayed phase markers. codec.PhaseRecorder
// and cache.Hierarchy satisfy it.
type PhaseSink interface {
	PhaseBegin(name string)
	PhaseEnd(name string)
}

// Replay feeds the captured stream through tr, with phase markers
// delivered to ph (nil ph discards them). The tracer observes exactly
// the events of the recorded run in recorded order, so a
// cache.Hierarchy ends in a state and Stats identical to live tracing —
// for any geometry, not just the one the trace was recorded against.
func (t *Trace) Replay(tr simmem.Tracer, ph PhaseSink) {
	defer noteReplay(time.Now(), t.records)
	st, strided := tr.(simmem.StridedTracer)
	for _, ch := range t.chunks {
		for i := range ch {
			r := ch[i]
			op, addr, n, stride, unit, rows := r.op(), r.payload(), uint32(0), uint32(0), uint32(0), uint16(0)
			if op == opWide {
				w := &t.wide[addr]
				op, addr, n, stride, unit, rows = w.op, w.addr, w.n, w.stride, w.unit, w.rows
			} else if op >= opRunLoad && op <= opRunPrefetch {
				n, stride, unit, rows = r.runN(), r.runStride(), r.unit(), r.runRows()
			} else {
				n = r.accessN()
			}
			switch op {
			case opRunLoad, opRunStore, opRunPrefetch:
				kind := simmem.Kind(op - opRunLoad)
				if rows == 1 {
					tr.Run(addr, int(n), unit, kind)
				} else if strided {
					st.RunStrided(addr, int(n), int(stride), int(rows), unit, kind)
				} else {
					for row := uint16(0); row < rows; row++ {
						tr.Run(addr, int(n), unit, kind)
						addr += uint64(stride)
					}
				}
			case opAccessLoad, opAccessStore, opAccessPrefetch:
				tr.Access(addr, n, simmem.Kind(op-opAccessLoad))
			case opOps:
				tr.Ops(addr)
			case opPhaseBegin:
				if ph != nil {
					ph.PhaseBegin(t.phaseNames[addr])
				}
			case opPhaseEnd:
				if ph != nil {
					ph.PhaseEnd(t.phaseNames[addr])
				}
			}
		}
	}
}

// Recorder captures a reference stream. It implements simmem.Tracer,
// simmem.StridedTracer and the codec's PhaseRecorder, so one Recorder
// stands in for both the tracer and the phase recorder of a codec run.
type Recorder struct {
	t        *Trace
	cur      []record
	pendOps  uint64
	phaseIdx map[string]uint32
}

var (
	_ simmem.Tracer        = (*Recorder)(nil)
	_ simmem.StridedTracer = (*Recorder)(nil)
	_ PhaseSink            = (*Recorder)(nil)
)

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{t: &Trace{hcache: &hashCache{}}, phaseIdx: map[string]uint32{}}
}

func (r *Recorder) append(rec record) {
	if len(r.cur) == cap(r.cur) {
		r.cur = make([]record, 0, chunkRecords)
		r.t.chunks = append(r.t.chunks, r.cur)
	}
	r.cur = append(r.cur, rec)
	r.t.chunks[len(r.t.chunks)-1] = r.cur
	r.t.records++
}

// appendRecord packs one record, spilling to the wide table when a
// field exceeds the packed layout. The wire decoder routes through the
// same method, so in-memory and decoded traces normalize identically.
func (r *Recorder) appendRecord(op uint8, addr uint64, n, stride, unit uint32, rows uint16) {
	switch op {
	case opAccessLoad, opAccessStore, opAccessPrefetch:
		if addr <= recPayloadMask {
			r.append(record{lo: addr | uint64(op)<<recPayloadBits, hi: uint64(n)})
			return
		}
	case opRunLoad, opRunStore, opRunPrefetch:
		if ul := unitLog(unit); ul >= 0 && addr <= recPayloadMask && n <= recRunMaxN && stride <= recRunMaxStr {
			r.append(record{
				lo: addr | uint64(op)<<recPayloadBits | uint64(ul)<<60,
				hi: uint64(n) | uint64(rows)<<24 | uint64(stride)<<40,
			})
			return
		}
	default: // opOps, opPhaseBegin, opPhaseEnd
		if addr <= recPayloadMask {
			r.append(record{lo: addr | uint64(op)<<recPayloadBits})
			return
		}
	}
	r.append(record{lo: uint64(len(r.t.wide)) | uint64(opWide)<<recPayloadBits})
	r.t.wide = append(r.t.wide, wideRecord{op: op, addr: addr, n: n, stride: stride, unit: unit, rows: rows})
}

// Access implements simmem.Tracer.
func (r *Recorder) Access(addr uint64, size uint32, kind simmem.Kind) {
	r.appendRecord(opAccessLoad+uint8(kind), addr, size, 0, 0, 0)
}

// Run implements simmem.Tracer.
func (r *Recorder) Run(addr uint64, n int, unit uint32, kind simmem.Kind) {
	if n <= 0 {
		return
	}
	r.appendRecord(opRunLoad+uint8(kind), addr, uint32(n), 0, unit, 1)
}

// RunStrided implements simmem.StridedTracer. Blocks taller than the
// record's row field or with strides outside uint32 (never produced by
// the codec, but legal through the interface) are split or decomposed
// so the stored stream stays exact.
func (r *Recorder) RunStrided(addr uint64, rowBytes, stride, rows int, unit uint32, kind simmem.Kind) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	if stride < 0 || int64(stride) > int64(^uint32(0)) {
		for row := 0; row < rows; row++ {
			r.Run(addr, rowBytes, unit, kind)
			addr += uint64(stride)
		}
		return
	}
	op := opRunLoad + uint8(kind)
	for rows > 0 {
		c := rows
		if c > int(^uint16(0)) {
			c = int(^uint16(0))
		}
		r.appendRecord(op, addr, uint32(rowBytes), uint32(stride), unit, uint16(c))
		addr += uint64(stride) * uint64(c)
		rows -= c
	}
}

// Ops implements simmem.Tracer. Counts accumulate and flush at phase
// boundaries and at Finish — their position between those points
// cannot affect any tracer (they are pure counter additions), and
// coalescing them removes about a quarter of all records.
func (r *Recorder) Ops(n uint64) { r.pendOps += n }

func (r *Recorder) flushOps() {
	if r.pendOps != 0 {
		r.appendRecord(opOps, r.pendOps, 0, 0, 0, 0)
		r.pendOps = 0
	}
}

func (r *Recorder) phase(name string) uint64 {
	if i, ok := r.phaseIdx[name]; ok {
		return uint64(i)
	}
	i := uint32(len(r.t.phaseNames))
	r.t.phaseNames = append(r.t.phaseNames, name)
	r.phaseIdx[name] = i
	return uint64(i)
}

// PhaseBegin implements the codec's PhaseRecorder.
func (r *Recorder) PhaseBegin(name string) {
	r.flushOps()
	r.appendRecord(opPhaseBegin, r.phase(name), 0, 0, 0, 0)
}

// PhaseEnd implements the codec's PhaseRecorder.
func (r *Recorder) PhaseEnd(name string) {
	r.flushOps()
	r.appendRecord(opPhaseEnd, r.phase(name), 0, 0, 0, 0)
}

// Finish flushes pending state and returns the captured trace. The
// Recorder may continue to append afterwards (Finish just snapshots the
// flush point), but the usual lifecycle is record, Finish, drop the
// Recorder.
func (r *Recorder) Finish() *Trace {
	r.flushOps()
	return r.t
}
