// Farm demo: sweep quantizer × resolution × machine model concurrently
// on the experiment-execution engine.
//
//	go run ./examples/farm            # GOMAXPROCS workers
//	go run ./examples/farm -parallel 2
//
// Every (QP, resolution, machine) cell is one farm Job: a traced encode
// of the same synthetic clip in an isolated simulated address space.
// Job completions stream to stderr via the pool's progress callback;
// the result table prints in sweep order (never completion order), and
// a final "fleet" row per machine sums the raw counters of all its runs
// (cache.Stats.Add) and recomputes the metrics over the sum with
// perf.Compute — the combined-workload view a sharded sweep reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/perf"
)

// cell is one point of the sweep.
type cell struct {
	qp      int
	res     [2]int
	machine perf.Machine
}

// measurement is the traced outcome of one cell.
type measurement struct {
	cell    cell
	metrics perf.Metrics
	bytes   int
}

func main() {
	parallel := flag.Int("parallel", 0, "farm worker count (0 = GOMAXPROCS)")
	frames := flag.Int("frames", 3, "frames per encode")
	flag.Parse()

	qps := []int{4, 8, 16}
	resolutions := [][2]int{{176, 144}, {352, 288}}
	machines := perf.PaperMachines()

	var cells []cell
	for _, qp := range qps {
		for _, res := range resolutions {
			for _, m := range machines {
				cells = append(cells, cell{qp: qp, res: res, machine: m})
			}
		}
	}

	pool := farm.New(farm.Config{
		Workers: *parallel,
		Progress: func(ev farm.Event) {
			status := "done"
			if ev.Err != nil {
				status = "FAIL: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%2d/%d] %-28s %s\n", ev.Done, ev.Total, ev.Label, status)
		},
	})

	start := time.Now()
	jobs := make([]farm.Job[measurement], len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = farm.Job[measurement]{
			Label: fmt.Sprintf("qp%d/%dx%d/%s", c.qp, c.res[0], c.res[1], c.machine.Label()),
			Run: func(ctx context.Context, env farm.Env) (measurement, error) {
				wl := harness.Workload{W: c.res[0], H: c.res[1], Frames: *frames, QP: c.qp}
				results, ss, err := harness.RunEncodeIn(env.Space, []perf.Machine{c.machine}, wl)
				if err != nil {
					return measurement{}, err
				}
				return measurement{cell: c, metrics: results[0].Whole, bytes: ss.TotalBytes()}, nil
			},
		}
	}
	results, err := farm.Run(context.Background(), pool, jobs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("QP × resolution × machine encode sweep (%d cells, %d workers, %v)\n",
		len(results), pool.Workers(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %4s %9s %-9s %9s %9s %10s %12s %10s\n",
		"qp", "size", "machine", "L1miss%", "L2miss%", "DRAM%", "L2DRAM MB/s", "bytes")
	for _, r := range results {
		fmt.Printf("  %4d %4dx%-4d %-9s %8.3f%% %8.2f%% %9.2f%% %12.1f %10d\n",
			r.cell.qp, r.cell.res[0], r.cell.res[1], r.cell.machine.Label(),
			r.metrics.L1MissRate*100, r.metrics.L2MissRate*100,
			r.metrics.DRAMTimeFrac*100, r.metrics.L2DRAMMBps, r.bytes)
	}

	// Fleet view: fold every run measured on one machine model into a
	// single combined-workload metric set.
	fmt.Println("\nfleet aggregate per machine (all QPs and sizes combined):")
	for _, m := range machines {
		var sum cache.Stats
		runs := 0
		for _, r := range results {
			if r.cell.machine.Name == m.Name {
				sum = sum.Add(r.metrics.Raw)
				runs++
			}
		}
		agg := perf.Compute(m, sum)
		fmt.Printf("  %-9s %d runs: L1miss %.3f%%  L2miss %.2f%%  %s\n",
			m.Label(), runs, agg.L1MissRate*100, agg.L2MissRate*100, agg.Breakdown())
	}
}
