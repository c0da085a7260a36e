package main

// The service-backed mode of mp4study: -service POSTs the batch
// manifest to a running mp4served instead of simulating locally, then
// either polls the study to completion or (-follow) consumes the
// study's Server-Sent Events stream — per-shard fleet progress to
// stderr as it happens, experiment outputs to stdout in manifest
// order. The printed bytes are identical to the local run of the same
// manifest: the service renders through the same harness.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// serviceClient talks to one mp4served instance.
type serviceClient struct {
	base      string // no trailing slash
	authToken string
	client    *http.Client
}

func (c *serviceClient) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.authToken)
	}
	return req, nil
}

// apiError decodes the service's JSON error envelope for diagnostics.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
}

// submit POSTs the study spec, honouring the service's backpressure
// contract: a 429 with Retry-After is waited out and retried, bounded.
func (c *serviceClient) submit(ctx context.Context, spec service.StudySpec) (service.StudyStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.StudyStatus{}, err
	}
	for attempt := 0; ; attempt++ {
		req, err := c.newRequest(ctx, http.MethodPost, "/v1/studies", bytes.NewReader(body))
		if err != nil {
			return service.StudyStatus{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(req)
		if err != nil {
			return service.StudyStatus{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 10 {
			delay := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if n, err := strconv.Atoi(s); err == nil && n > 0 {
					delay = time.Duration(n) * time.Second
				}
			}
			resp.Body.Close()
			statusf("service busy (429), retrying in %v\n", delay)
			select {
			case <-time.After(delay):
				continue
			case <-ctx.Done():
				return service.StudyStatus{}, ctx.Err()
			}
		}
		if resp.StatusCode != http.StatusAccepted {
			return service.StudyStatus{}, fmt.Errorf("submit: %w", apiError(resp))
		}
		var st service.StudyStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		return st, err
	}
}

func (c *serviceClient) status(ctx context.Context, id string) (service.StudyStatus, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/studies/"+id, nil)
	if err != nil {
		return service.StudyStatus{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return service.StudyStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return service.StudyStatus{}, fmt.Errorf("status %s: %w", id, apiError(resp))
	}
	var st service.StudyStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	return st, err
}

func (c *serviceClient) result(ctx context.Context, id string) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/studies/"+id+"/result", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("result %s: %w", id, apiError(resp))
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(out), err
}

// runServiceStudy is the -service entry point: build the StudySpec
// from the manifest (flags override, same precedence as local
// manifest mode), submit, then follow or poll.
func runServiceStudy(ctx context.Context, base, manifestPath string, frames int, priority, authToken string, follow bool) error {
	spec, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	if frames != 0 {
		spec.Frames = frames
	}
	if priority != "" {
		spec.Priority = priority
	}

	c := &serviceClient{
		base:      strings.TrimRight(base, "/"),
		authToken: authToken,
		client:    &http.Client{}, // no client timeout: SSE streams are long-lived
	}
	st, err := c.submit(ctx, spec)
	if err != nil {
		return err
	}
	statusf("study %s submitted (%d experiments, priority %s)\n",
		st.ID, st.Total, orDefault(st.Priority, service.PriorityBatch))

	if follow {
		return c.follow(ctx, st.ID, st.Total)
	}
	for {
		st, err = c.status(ctx, st.ID)
		if err != nil {
			return err
		}
		switch st.State {
		case service.StateDone:
			out, err := c.result(ctx, st.ID)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		case service.StateFailed, service.StateCancelled:
			return fmt.Errorf("study %s %s: %s", st.ID, st.State, orDefault(st.Error, "no diagnostic"))
		}
		select {
		case <-time.After(250 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// follow consumes the study's SSE stream: shard progress to stderr,
// experiment outputs to stdout in manifest order (buffered until the
// contiguous prefix is complete), finished by the stream's terminal
// event. Dropped connections resume via Last-Event-ID, so nothing is
// lost or duplicated across reconnects.
func (c *serviceClient) follow(ctx context.Context, id string, total int) error {
	outputs := make([]string, total)
	got := make([]bool, total)
	printed := 0
	lastID := 0
	failures := 0
	for {
		terminal, err := c.streamEvents(ctx, id, &lastID, func(ev service.StudyEvent) error {
			switch ev.Type {
			case service.EventShard:
				if ev.Shard != nil {
					statusf("[%s] shard %d: %d/%d from %s (%d points)\n",
						ev.Experiment, ev.Shard.Index, ev.Shard.Done, ev.Shard.Total,
						ev.Shard.Worker, len(ev.Shard.Points))
				}
			case service.EventExperiment:
				if ev.ExperimentIndex >= 0 && ev.ExperimentIndex < total && !got[ev.ExperimentIndex] {
					got[ev.ExperimentIndex] = true
					outputs[ev.ExperimentIndex] = ev.Output
					for printed < total && got[printed] {
						fmt.Print(outputs[printed])
						outputs[printed] = ""
						printed++
					}
				}
			case service.EventError:
				return fmt.Errorf("study %s %s: %s", id, orDefault(ev.State, "failed"), orDefault(ev.Error, "no diagnostic"))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if terminal {
			return nil
		}
		// Stream dropped without a terminal event: reconnect and resume.
		failures++
		if failures > 10 {
			return fmt.Errorf("study %s: event stream dropped %d times, giving up (resume with Last-Event-ID: %d)", id, failures, lastID)
		}
		statusf("event stream dropped, resuming from event %d\n", lastID)
		select {
		case <-time.After(500 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// streamEvents opens one SSE connection from *lastID and dispatches
// decoded events to fn. Returns terminal=true once a done/error event
// was seen (the server closes the stream right after it). A dropped
// connection returns (false, nil) so the caller can resume.
func (c *serviceClient) streamEvents(ctx context.Context, id string, lastID *int, fn func(service.StudyEvent) error) (terminal bool, err error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/studies/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, nil // connection-level failure: reconnectable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events %s: %w", id, apiError(resp))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024) // experiment outputs ride in one data: line
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue // heartbeat or id/event-only frame
			}
			var ev service.StudyEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return false, fmt.Errorf("events %s: bad frame: %w", id, err)
			}
			data = nil
			if ev.Seq > *lastID {
				*lastID = ev.Seq
				if err := fn(ev); err != nil {
					return true, err
				}
				if ev.Type == service.EventDone || ev.Type == service.EventError {
					return true, nil
				}
			}
		case strings.HasPrefix(line, ":"):
			// comment (heartbeat) — ignored
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		default:
			// id:/event: fields — Seq and Type ride in the JSON too
		}
	}
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	return false, nil // EOF without terminal event: reconnectable
}
