// Command bench is the repository's benchmark: it drives the study
// pipeline from outside, through the public APIs of harness, trace,
// memo, farm, dist and service, on four workloads, checks every output
// and prints each metric by name and unit. See README.md.
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh --workload fleet-cold --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh compare A.json... -- B.json...
//
// A run measures one workload. It prints its metrics, then as its last
// line one JSON object with the keys correct, attempted, failed and
// metrics.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones and writes the run's spans to bench/out/spans-<workload>.json.
// Each run also stores its full record, every sample and the host
// included, in bench/out/run-<workload>-seed<N>-trace<T>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "the workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "how long a run times operations")
	traceRun := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *traceRun != 0 && *traceRun != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	obs.SetLogLevel(slog.LevelError)
	o := runOptions{seed: *seed, seconds: *seconds, trace: *traceRun == 1, outDir: outDir}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	rec, err := run(context.Background(), w, o)
	if err != nil {
		fatal(err)
	}
	if err := writeRecord(o.outDir, rec); err != nil {
		fatal(err)
	}
	printRecord(os.Stdout, rec)
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printRecord writes a run's metrics, one per line.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed %d: %d ops, %d failed, correct %v (%s, %d CPUs, %s, commit %s)\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Correct,
		rec.Host.CPU, rec.Host.NProc, rec.Host.Go, rec.Host.Commit)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, set := range []metricSet{rec.Metrics, rec.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// outDir is where runs store their records and spans, relative to the
// root of the checkout, where bench/run.sh runs the program.
const outDir = "bench/out"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
