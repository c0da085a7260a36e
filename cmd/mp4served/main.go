// Command mp4served is the study service — the single front door to
// the paper's experiment harness. Clients POST study specs (the same
// JSON schema as mp4study's batch manifests), poll job status, stream
// per-shard progress over Server-Sent Events, and fetch results as
// experiments complete. Each study runs with its own capture/replay
// strategy and trace-usage accounting, so concurrent clients never
// interfere.
//
// Every experiment renders the same way: by default on an in-process
// farm; with -workers pointed at mp4worker URLs, the rows of the
// geometry/policy sweeps replay on the fleet (a dist.Coordinator as
// the render's row replayer, one SSE shard event per row) with the
// coordinator's full self-healing machinery (retries, breakers,
// probe-based re-admission, optional -fallback-local). Output is
// byte-identical either way.
//
// Usage:
//
//	mp4served                                 # listen on :8374, local farm
//	mp4served -addr 127.0.0.1:0               # ephemeral port (printed on stdout)
//	mp4served -workers 8                      # farm worker count (default GOMAXPROCS)
//	mp4served -workers http://a:8375,http://b:8375   # fleet mode
//	mp4served -fallback-local                 # rescue undeliverable shards in-process
//	mp4served -auth-token secret              # require Authorization: Bearer secret
//	mp4served -memo-dir /var/mp4memo          # persist the shared result memo
//	mp4served -no-memo                        # disable result memoization
//	mp4served -max-studies 4                  # concurrent studies (default 2)
//	mp4served -session-max-active 4           # per-session active-study quota (<= 0: default 16)
//	mp4served -session-rate 2                 # per-session submissions/second
//	mp4served -log-level debug                # structured-log threshold (default info)
//	mp4served -pprof                          # mount net/http/pprof at /debug/pprof/
//
// All studies share one server-wide result memo (unless -no-memo):
// resubmitting a study, or submitting one whose sweep overlaps an
// earlier study's grid, replays only cells no study has simulated
// before — byte-identical output, and in fleet mode zero shards
// dispatched for memo-covered cells. A study whose sweep cells are all
// memoized runs no codec: cells are keyed by how their capture would be
// made, so nothing is encoded to look them up. -memo-dir persists the
// memo across restarts; /v1/healthz reports its hit rate.
//
// Observability: GET /v1/metrics serves the process metrics registry
// (Prometheus text, or JSON with Accept: application/json), GET
// /v1/version the build identity, GET /v1/healthz queue depths,
// session counts, memo hit rate and (in fleet mode) worker liveness.
// See README "Study service".
//
// Example session:
//
//	$ curl -s localhost:8374/v1/studies -d '{"experiments":[{"table":2},{"sweep":"ratio"}]}'
//	{"id": "study-0001", "state": "queued", ...}
//	$ curl -sN localhost:8374/v1/studies/study-0001/events
//	id: 1
//	event: experiment
//	data: {"seq":1,"type":"experiment",...}
//	$ curl -s localhost:8374/v1/studies/study-0001/result
//	Table 2. ...
//
// On SIGINT/SIGTERM the server drains: submissions are rejected,
// running studies get -drain-timeout to finish, then are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// parseWorkers interprets the -workers flag: an integer is the local
// farm size; a comma-separated list of http(s) URLs is a worker fleet.
func parseWorkers(s string) (farm int, fleet []string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 {
			return 0, nil, fmt.Errorf("-workers %d: farm size cannot be negative", n)
		}
		return n, nil, nil
	}
	for _, raw := range strings.Split(s, ",") {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return 0, nil, fmt.Errorf("-workers %q: %q is neither an integer nor an http(s) URL", s, u)
		}
		fleet = append(fleet, u)
	}
	if len(fleet) == 0 {
		return 0, nil, fmt.Errorf("-workers %q: no worker URLs", s)
	}
	return 0, fleet, nil
}

func main() {
	addr := flag.String("addr", ":8374", "listen address")
	workers := flag.String("workers", "", "farm worker count (0 = GOMAXPROCS) or comma-separated mp4worker URLs for fleet mode")
	fallbackLocal := flag.Bool("fallback-local", false, "fleet mode: replay undeliverable shards in-process instead of failing the study")
	maxStudies := flag.Int("max-studies", 2, "studies simulating concurrently")
	maxQueued := flag.Int("max-queued", 64, "accepted-but-unfinished studies before 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running studies")
	authToken := flag.String("auth-token", "", "require Authorization: Bearer <token> (healthz/metrics/version stay open)")
	sessionMax := flag.Int("session-max-active", 16, "per-session active-study quota (<= 0 means the default, 16)")
	sessionRate := flag.Float64("session-rate", 0, "per-session study submissions per second (0 = unlimited)")
	sessionBurst := flag.Int("session-burst", 0, "per-session submission burst (0 = derived from -session-rate)")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "SSE heartbeat interval on /v1/studies/{id}/events")
	memoDir := flag.String("memo-dir", "", "persist the shared result memo to this directory (resubmitted studies replay only unseen cells)")
	noMemo := flag.Bool("no-memo", false, "disable result memoization (default: in-memory memo shared by all studies)")
	srvFlags := obs.RegisterServerFlags(flag.CommandLine)
	flag.Parse()

	if err := srvFlags.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "mp4served:", err)
		os.Exit(2)
	}
	farmN, fleetURLs, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mp4served:", err)
		os.Exit(2)
	}

	cfg := service.Config{
		Workers:          farmN,
		MaxConcurrent:    *maxStudies,
		MaxQueued:        *maxQueued,
		AuthToken:        *authToken,
		SessionMaxActive: *sessionMax,
		SessionRate:      *sessionRate,
		SessionBurst:     *sessionBurst,
		Heartbeat:        *heartbeat,
		MemoDir:          *memoDir,
		DisableMemo:      *noMemo,
	}
	if *noMemo && *memoDir != "" {
		fmt.Fprintln(os.Stderr, "mp4served: -no-memo and -memo-dir are mutually exclusive")
		os.Exit(2)
	}
	if len(fleetURLs) > 0 {
		cfg.Fleet = &service.FleetConfig{
			Workers:       fleetURLs,
			FallbackLocal: *fallbackLocal,
		}
	}
	svc := service.New(cfg)
	httpSrv := &http.Server{Handler: srvFlags.Wrap(svc.Handler())}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mp4served:", err)
		os.Exit(1)
	}
	if len(fleetURLs) > 0 {
		fmt.Printf("mp4served fronting %d workers: %s\n", len(fleetURLs), strings.Join(fleetURLs, ", "))
	}
	fmt.Printf("mp4served listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mp4served: %v, draining (budget %v)\n", sig, *drainTimeout)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mp4served:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mp4served: studies cancelled:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "mp4served:", err)
	}
}
