// Example distributed: the "simulate one workload on many machines"
// methodology stretched across worker processes.
//
// The demo boots two dist workers on loopback HTTP servers (stand-ins
// for `mp4worker` processes on other hosts), then has a coordinator
// encode a CIF workload ONCE, filter the captured reference stream
// down to each L1 row's L2-bound trace, ship those small M4L2
// payloads to the workers, and spread the 18-configuration
// cache-geometry grid across them one L1 row at a time (a failed
// worker's row would go back on the queue for the other). The merged
// result is compared against the same sweep computed locally — the two
// are identical, because a replay of the same bytes is the same
// simulation wherever it runs.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/harness"
)

func main() {
	// Two workers, as two independent HTTP servers. On real hardware
	// these are `mp4worker -addr :8375` on separate machines.
	var urls []string
	for i := 0; i < 2; i++ {
		w := dist.NewWorker(dist.WorkerConfig{})
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
		fmt.Printf("worker %d: %s\n", i+1, srv.URL)
	}

	coord := &dist.Coordinator{Workers: urls, Client: &http.Client{Timeout: 5 * time.Minute}}
	wl := harness.Workload{W: 352, H: 288, Frames: 2}

	start := time.Now()
	distPoints, stats, err := coord.GeometrySweepWithStats(context.Background(), wl, nil, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distributed sweep:", err)
		os.Exit(1)
	}
	distTime := time.Since(start)
	fmt.Printf("shipped %d L1-filtered traces, %.2f MB total on the wire\n",
		stats.Uploads, float64(stats.UploadBytes)/(1<<20))

	start = time.Now()
	localPoints, err := harness.RunGeometrySweep(wl, nil, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "local sweep:", err)
		os.Exit(1)
	}
	localTime := time.Since(start)

	fmt.Println()
	fmt.Print(harness.FormatGeometrySweep(
		fmt.Sprintf("distributed cache geometry sweep (%d configs across %d workers)",
			len(distPoints), len(urls)), distPoints))

	identical := len(distPoints) == len(localPoints)
	for i := 0; identical && i < len(distPoints); i++ {
		identical = distPoints[i] == localPoints[i]
	}
	fmt.Printf("\ndistributed == local: %v (dist %v, local %v; one encode each)\n",
		identical, distTime.Round(time.Millisecond), localTime.Round(time.Millisecond))
	if !identical {
		os.Exit(1)
	}
}
