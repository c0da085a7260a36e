// Command mp4worker is a distributed-sweep worker: it accepts
// serialized reference traces (the portable wire format of
// internal/trace — full M4TR captures or the ~40× smaller L1-filtered
// M4L2 traces, selected by upload Content-Type) and replays (L1, L2)
// cache-configuration shards against them on a local experiment farm.
// A dist.Coordinator (see internal/dist, examples/distributed, and
// `mp4study -sweep geometry|policy -workers ...`) encodes a workload
// once and fans the simulation grid across any number of these
// processes, re-planning shards onto the surviving workers when one
// fails. Shards may name a replacement policy inside their L1 config
// (cache.Config.Policy — the L2 inherits it); unknown policy names,
// like any invalid geometry, are rejected with a 400, and shards whose
// L1 (policy included) mismatches an uploaded M4L2 trace's embedded L1
// are refused rather than silently mis-simulated.
//
// Usage:
//
//	mp4worker                     # listen on :8375
//	mp4worker -addr 127.0.0.1:0   # ephemeral port (printed on stdout)
//	mp4worker -workers 8          # farm worker count (default GOMAXPROCS)
//	mp4worker -max-traces 4       # resident uploaded traces
//	mp4worker -store-max-bytes 256000000   # bound the store's wire bytes (LRU)
//	mp4worker -log-level debug    # structured-log threshold (default info)
//	mp4worker -metrics=false      # disable span/timer instrumentation
//	mp4worker -pprof              # mount net/http/pprof at /debug/pprof/
//
// Observability: GET /v1/metrics serves the process metrics registry
// (Prometheus text, or JSON with Accept: application/json), GET
// /v1/version the build identity. See README "Observability".
//
// The listen address is printed as "mp4worker listening on <addr>" so
// orchestration scripts can scrape ephemeral ports.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8375", "listen address")
	workers := flag.Int("workers", 0, "farm worker count (0 = GOMAXPROCS)")
	maxTraces := flag.Int("max-traces", 8, "resident uploaded traces")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "bound the trace store's total wire bytes; crossing it evicts least-recently-used traces (0 = unbounded)")
	replayWorkers := flag.Int("replay-workers", 0, "goroutines one fused multi-config L2 replay splits its configs across (0 = GOMAXPROCS); single replays always run serially")
	srvFlags := obs.RegisterServerFlags(flag.CommandLine)
	flag.Parse()
	trace.SetReplayWorkers(*replayWorkers)

	if err := srvFlags.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "mp4worker:", err)
		os.Exit(2)
	}

	w := dist.NewWorker(dist.WorkerConfig{Workers: *workers, MaxTraces: *maxTraces, MaxStoreBytes: *storeMaxBytes})
	httpSrv := &http.Server{Handler: srvFlags.Wrap(w.Handler())}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mp4worker:", err)
		os.Exit(1)
	}
	fmt.Printf("mp4worker listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigc:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mp4worker:", err)
		os.Exit(1)
	}
}
