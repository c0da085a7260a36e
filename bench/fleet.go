package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/service"
)

// fleetWorkers is the worker count of the in-process fleet.
const fleetWorkers = 2

// fleet is an in-process deployment shaped like mp4served -workers in
// front of two mp4worker processes: a study service in fleet mode and
// two dist workers, each behind its own loopback HTTP server, so every
// upload, replay call and event crosses real HTTP.
type fleet struct {
	svc     *service.Server
	front   *httptest.Server
	workers []*httptest.Server
	client  *http.Client
}

// newFleet starts a fleet and returns once it is ready: when the
// service's health check reports every worker alive, as an operator
// starting mp4served would wait for before submitting.
func newFleet(ctx context.Context) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{}}}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		ts := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{}).Handler())
		f.workers = append(f.workers, ts)
		urls = append(urls, ts.URL)
	}
	f.svc = service.New(service.Config{Fleet: &service.FleetConfig{Workers: urls}})
	f.front = httptest.NewServer(f.svc.Handler())
	if err := f.ready(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// ready polls the service's health check until it reports every worker
// alive.
func (f *fleet) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		var health struct {
			Fleet struct {
				Alive []string `json:"alive"`
			} `json:"fleet"`
		}
		if err := f.call(ctx, http.MethodGet, "/v1/healthz", nil, http.StatusOK, &health); err != nil {
			return fmt.Errorf("fleet health check: %w", err)
		}
		if len(health.Fleet.Alive) == fleetWorkers {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet not ready: %d of %d workers alive", len(health.Fleet.Alive), fleetWorkers)
		case <-time.After(time.Millisecond):
		}
	}
}

// close drains the service and stops every server of the fleet.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fleet shutdown: %v\n", err)
	}
	f.front.Close()
	for _, w := range f.workers {
		w.Close()
	}
	f.client.CloseIdleConnections()
}

// study is what one submission returned to its client.
type study struct {
	id     string
	output string
	cells  int       // sweep cells delivered in shard events
	submit float64   // POST round trip, seconds
	first  float64   // seconds from the POST to the first event
	doneAt time.Time // when the done event arrived
}

// runStudy submits spec, follows its event stream to the terminal
// event and reads the result, the way mp4study -service -follow does.
// A terminal event other than done is an error.
func (f *fleet) runStudy(ctx context.Context, spec []byte, t *tracer) (study, error) {
	var st study
	start := time.Now()
	end := t.begin("service.submit")
	var status service.StudyStatus
	err := f.call(ctx, http.MethodPost, "/v1/studies", spec, http.StatusAccepted, &status)
	end()
	if err != nil {
		return st, err
	}
	st.id = status.ID
	st.submit = time.Since(start).Seconds()

	end = t.begin("service.events")
	err = f.follow(ctx, st.id, func(typ string, data []byte) error {
		if st.first == 0 {
			st.first = time.Since(start).Seconds()
		}
		switch typ {
		case service.EventShard:
			var ev service.StudyEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("shard event: %w", err)
			}
			if ev.Shard != nil {
				st.cells += len(ev.Shard.Points)
			}
		case service.EventDone:
			st.doneAt = time.Now()
		case service.EventError:
			return fmt.Errorf("study %s ended in error: %s", st.id, data)
		}
		return nil
	})
	end()
	if err != nil {
		return st, err
	}
	if st.doneAt.IsZero() {
		return st, fmt.Errorf("study %s: event stream ended without a done event", st.id)
	}

	end = t.begin("service.result")
	defer end()
	body, err := f.get(ctx, "/v1/studies/"+st.id+"/result")
	st.output = string(body)
	return st, err
}

// status polls one study.
func (f *fleet) status(ctx context.Context, id string) (service.StudyStatus, error) {
	var st service.StudyStatus
	err := f.call(ctx, http.MethodGet, "/v1/studies/"+id, nil, http.StatusOK, &st)
	return st, err
}

// follow reads a study's SSE stream, handing each event's type and
// data to fn until the terminal event.
func (f *fleet) follow(ctx context.Context, id string, fn func(typ string, data []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.front.URL+"/v1/studies/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	typ := ""
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("event stream: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := fn(typ, []byte(strings.TrimPrefix(line, "data: "))); err != nil {
				return err
			}
			if typ == service.EventDone || typ == service.EventError {
				return nil
			}
		}
	}
}

// call sends one JSON request to the service and decodes the reply.
func (f *fleet) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	return doJSON(ctx, f.client, method, f.front.URL+path, "application/json", body, want, out)
}

func (f *fleet) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.front.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// doJSON sends body to url and decodes a JSON reply with status want
// into out (out may be nil).
func doJSON(ctx context.Context, c *http.Client, method, url, contentType string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}
