// Command mp4worker is a distributed-sweep worker: it accepts
// L1-filtered M4L2 traces (the portable wire format of internal/trace,
// uploaded as Content-Type application/x-m4l2) and replays (L1, L2)
// cache-configuration shards against them on a local experiment farm.
// A dist.Coordinator (see internal/dist, examples/distributed, and
// `mp4study -sweep geometry|policy -workers ...`) encodes a workload
// once and fans the simulation grid across any number of these
// processes, one L1 row per batch, putting a failed worker's batch back
// on the queue for the others. Shards may name a replacement policy
// inside their L1 config (cache.Config.Policy — the L2 inherits it);
// unknown policy names, like any invalid geometry, are rejected with a
// 400, and shards whose L1 (policy included) mismatches the uploaded
// trace's embedded L1 are refused rather than silently mis-simulated.
//
// Usage:
//
//	mp4worker                     # listen on :8375
//	mp4worker -addr 127.0.0.1:0   # ephemeral port (printed on stdout)
//	mp4worker -workers 8          # farm worker count (default GOMAXPROCS)
//	mp4worker -max-traces 4       # bound resident uploaded traces (LRU)
//	mp4worker -store-max-bytes 256000000   # bound the store's wire bytes (LRU)
//	mp4worker -log-level debug    # structured-log threshold (default info)
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
)

func main() {
	addr := flag.String("addr", ":8375", "listen address")
	workers := flag.Int("workers", 0, "farm worker count (0 = GOMAXPROCS)")
	maxTraces := flag.Int("max-traces", 8, "bound resident uploaded traces; an upload beyond it evicts least-recently-used traces")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "bound the trace store's total wire bytes; crossing it evicts least-recently-used traces (0 = unbounded)")
	srvFlags := obs.RegisterServerFlags(flag.CommandLine)
	flag.Parse()

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
