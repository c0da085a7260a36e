package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/simmem"
	"repro/internal/trace"
)

// A geometry or policy sweep replays one encode capture of its
// workload through every cache configuration. Two things keep that
// capture cheap across experiments and studies:
//
//   - within a Study, every sweep of one workload replays the same
//     capture: the Study keeps it in the workload's row of the table
//     measure.go keeps its paper-machine runs in, made once and kept
//     until no sweep is left to replay it;
//   - across studies, a sweep cell's memo key names the capture by its
//     provenance, which is known before anything is encoded, so a sweep
//     whose cells are all memoized never captures at all.

// provenanceTag opens every provenance preimage. Trace wire bodies,
// whose SHA-256 is the other capture identity (Trace.Hash), open with
// their magic ("M4TR"), so no provenance preimage is a wire body and
// the two kinds of key cannot collide.
const provenanceTag = "repro capture provenance\x00"

// CaptureProvenance identifies the encode capture of wl by how it is
// made rather than by its bytes: the SHA-256 of a domain tag,
// CodeVersion, every field of the normalized Workload and the
// direction ("encode"). Sweeps that capture for themselves key their
// memo cells by it (GeometryMemoKey), so they can consult the memo
// before they capture; a trace already in hand keeps its content hash.
//
// The identity holds only for captures made in a fresh
// simmem.NewSpace(0): the address space decides every reference.
// Study.EncodeTrace, through which every sweep keyed by provenance
// captures, makes each capture in one, as every other non-test
// RecordEncodeCtx caller does. It also holds only while CodeVersion
// covers the codec: a codec change that moves a reference must bump
// CodeVersion. TestCaptureHashPins enforces that on the paths it pins
// (I-, P- and B-VOP coding of one rectangular VO and of shaped VOs in
// two layers, and the diamond search); a change elsewhere in the codec
// would move no pin, and only the bump keeps it from serving stale
// cells.
func CaptureProvenance(wl Workload) trace.Hash {
	return captureProvenance(CodeVersion, wl)
}

// captureProvenance is CaptureProvenance under an explicit code
// version.
func captureProvenance(version string, wl Workload) trace.Hash {
	spec, err := json.Marshal(wl.normalize())
	if err != nil {
		panic(err) // Workload is plain numbers; Marshal cannot fail
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s%q\n%s\n%q", provenanceTag, version, spec, "encode")
	var id trace.Hash
	h.Sum(id[:0])
	return id
}

// EncodeTrace returns the study's encode capture of wl, recording it in
// a fresh simmem.NewSpace(0) on the first request; concurrent requests
// for one workload wait for that capture rather than make their own. A
// failed capture stores nothing, so the next request retries it. The
// capture is accounted to s and kept until ReleaseCaptures. Callers
// that want a capture of their own call RecordEncodeCtx.
func (s *Study) EncodeTrace(wl Workload) (*trace.Trace, error) {
	wl = wl.normalize()
	m := s.measurement(wl)
	m.capMu.Lock()
	defer m.capMu.Unlock()
	if m.capture == nil {
		c, err := recordEncode(s, simmem.NewSpace(0), wl)
		if err != nil {
			return nil, err
		}
		m.capture = c.Enc
	}
	return m.capture, nil
}

// ReleaseCaptures drops the study's encode captures, so that they do
// not outlive the sweeps that replay them: RunExperiments calls it once
// the last experiment of its list that replays a capture
// (ExperimentSpec.ReplaysCapture) has rendered. A later EncodeTrace
// captures again.
func (s *Study) ReleaseCaptures() {
	s.measured.mu.Lock()
	rows := make([]*measurement, 0, len(s.measured.entries))
	for _, m := range s.measured.entries {
		rows = append(rows, m)
	}
	s.measured.mu.Unlock()
	for _, m := range rows {
		m.capMu.Lock()
		m.capture = nil
		m.capMu.Unlock()
	}
}
