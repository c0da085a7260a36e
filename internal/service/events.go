package service

// The study event log and its SSE stream. Every job keeps an
// append-only, densely-numbered event log; GET /v1/studies/{id}/events
// serves it as text/event-stream. Because the log is buffered on the
// job, the stream is decoupled from execution: a slow or disconnected
// consumer never stalls the study, and a reconnecting client resumes
// exactly where it left off via Last-Event-ID.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/harness"
)

// Event types, in StudyEvent.Type. Every stream ends with exactly one
// terminal event: EventDone for a study that rendered everything, or
// EventError for one that failed or was cancelled.
const (
	EventShard      = "shard"      // one fleet sweep row's points
	EventExperiment = "experiment" // one experiment's rendered output
	EventDone       = "done"       // terminal: study done
	EventError      = "error"      // terminal: study failed/cancelled
)

// StudyEvent is one entry of a study's ordered event log — the unit of
// the SSE stream. Seq starts at 1 and is dense, and doubles as the SSE
// event id, so a reconnect with Last-Event-ID: N replays exactly the
// events with Seq > N.
type StudyEvent struct {
	Seq  int       `json:"seq"`
	Type string    `json:"type"`
	Time time.Time `json:"time"`
	// Experiment and ExperimentIndex attribute shard/experiment events
	// to their experiment (index into StudySpec.Experiments).
	Experiment      string `json:"experiment,omitempty"`
	ExperimentIndex int    `json:"experiment_index,omitempty"`
	// Shard carries a fleet shard's results (EventShard only).
	Shard *ShardProgress `json:"shard,omitempty"`
	// Output is the experiment's rendered text (EventExperiment only).
	Output string `json:"output,omitempty"`
	// State and Error describe the terminal event: State is the job's
	// final state; Error its diagnostic for EventError.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// ShardProgress is one completed row of a fleet sweep: its index,
// which worker served it (dist.MemoWorker for a row the memo served
// whole), the stream position, and the whole row's sweep points.
// Appending Points across an experiment's shard events reproduces its
// full point list exactly.
type ShardProgress struct {
	Index  int                     `json:"index"`
	Worker string                  `json:"worker"`
	Done   int                     `json:"done"`
	Total  int                     `json:"total"`
	Points []harness.GeometryPoint `json:"points"`
}

func terminalEvent(typ string) bool { return typ == EventDone || typ == EventError }

// appendEventLocked (j.mu held) stamps and appends one event. After a
// terminal event the log is sealed — late emissions (a racing cancel
// plus a failure, say) are dropped so every stream ends with exactly
// one terminal event.
func (j *job) appendEventLocked(ev StudyEvent) {
	if j.eventsDone {
		return
	}
	ev.Seq = len(j.events) + 1
	ev.Time = time.Now()
	if terminalEvent(ev.Type) {
		j.eventsDone = true
	}
	j.events = append(j.events, ev)
	j.notifyLocked()
}

func (j *job) appendEvent(ev StudyEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(ev)
}

// sinkFor returns the EventSink for experiment i: every progress
// event is stamped with the experiment's identity and
// appended to the job's log.
func (j *job) sinkFor(i int, label string) EventSink {
	return func(ev StudyEvent) {
		ev.Experiment = label
		ev.ExperimentIndex = i
		j.appendEvent(ev)
	}
}

// writeSSE frames one event. The JSON body is one line (encoding/json
// escapes newlines), so a single data: field carries it.
func writeSSE(w io.Writer, ev StudyEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// handleEvents streams a study's event log as Server-Sent Events:
// per-shard fleet results and per-experiment outputs as they complete,
// heartbeat comments while idle, and a terminal done/error event after
// which the stream closes. Resume with the standard Last-Event-ID
// header (or ?last_event_id=, for curl convenience): only events with
// Seq greater than it are (re)sent. Disconnecting cancels nothing
// server-side — the study runs on and the poll API stays authoritative.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	cursor := 0
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id")
	}
	if lastID != "" {
		n, err := strconv.Atoi(lastID)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad Last-Event-ID %q", lastID)
			return
		}
		cursor = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	mStreamSubs.Inc()
	defer mStreamSubs.Dec()

	heartbeat := time.NewTicker(s.heartbeat())
	defer heartbeat.Stop()
	for {
		j.mu.Lock()
		var pending []StudyEvent
		if cursor < len(j.events) {
			pending = append(pending, j.events[cursor:]...)
		}
		updated := j.updated
		j.mu.Unlock()

		for _, ev := range pending {
			if err := writeSSE(w, ev); err != nil {
				return
			}
			cursor = ev.Seq
		}
		if len(pending) > 0 {
			flusher.Flush()
			if terminalEvent(pending[len(pending)-1].Type) {
				return
			}
		}
		select {
		case <-updated:
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
