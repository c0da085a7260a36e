// Package repro's top-level benchmarks regenerate every measurement
// artifact of the paper — one benchmark per table and figure. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment (workload generation,
// trace-driven simulation on the SGI machine models, metric derivation)
// per iteration and reports the headline metrics via b.ReportMetric, so
// regressions in either performance or modelled behaviour are visible.
// Use -v to print the regenerated tables themselves; cmd/mp4study prints
// them with full control over sequence length.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/simmem"
	"repro/internal/trace"
)

// benchPool is the shared experiment-farm pool the benchmarks run on:
// GOMAXPROCS workers, the default for CPU-bound trace simulation.
var benchPool = farm.Default()

// benchFrames keeps benchmark runtime manageable; all reported metrics
// are rates, insensitive to sequence length (see README.md and
// TestRunLengthInvariance).
const benchFrames = 6

func benchTable(b *testing.B, num int) {
	spec, err := harness.TableSpecByNum(num)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tab, results, err := harness.RunTablePool(context.Background(), benchPool, spec, benchFrames)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
			// Headline metrics from the first column (720x576, R12K 1MB).
			m := results[0].Whole
			b.ReportMetric(m.L1MissRate*100, "L1miss%")
			b.ReportMetric(m.L2MissRate*100, "L2miss%")
			b.ReportMetric(m.DRAMTimeFrac*100, "DRAMstall%")
			b.ReportMetric(m.L2DRAMMBps, "L2DRAM_MB/s")
		}
	}
}

// BenchmarkTable1Platforms renders the platform-highlights table.
func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := harness.Table1()
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

// BenchmarkTable2Encode1VO1L — video encoding, one VO, one layer.
func BenchmarkTable2Encode1VO1L(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3Decode1VO1L — video decoding, one VO, one layer.
func BenchmarkTable3Decode1VO1L(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4Encode3VO1L — encoding, three VOs, one layer each.
func BenchmarkTable4Encode3VO1L(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable5Decode3VO1L — decoding, three VOs, one layer each.
func BenchmarkTable5Decode3VO1L(b *testing.B) { benchTable(b, 5) }

// BenchmarkTable6Encode3VO2L — encoding, three VOs, two layers each.
func BenchmarkTable6Encode3VO2L(b *testing.B) { benchTable(b, 6) }

// BenchmarkTable7Decode3VO2L — decoding, three VOs, two layers each.
func BenchmarkTable7Decode3VO2L(b *testing.B) { benchTable(b, 7) }

// BenchmarkTable8Burstiness — per-phase (VopEncode/VopDecode) counters
// against the whole program on the R12K/8MB machine.
func BenchmarkTable8Burstiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Table8Pool(context.Background(), benchPool, benchFrames)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFigure2SizeSweep — memory statistics for growing image size
// (decoding, 1MB L2): the paper's counterintuitive flat-to-improving
// curves.
func BenchmarkFigure2SizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure2Pool(context.Background(), benchPool, benchFrames)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				b.Log("\n" + seriesString(s))
			}
			first, last := series[0].Y[0], series[0].Y[len(series[0].Y)-1]
			b.ReportMetric(first, "L2miss%smallest")
			b.ReportMetric(last, "L2miss%largest")
		}
	}
}

// BenchmarkFigure3L1Sweep — L1 miss rates for varying numbers of objects
// and layers (R10K/2MB).
func BenchmarkFigure3L1Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := harness.RunObjectSweepPool(context.Background(), benchPool, benchFrames)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range harness.Figure3Series(points) {
				b.Log("\n" + seriesString(s))
			}
		}
	}
}

// BenchmarkFigure4L2Sweep — L2 miss rates for the same sweep.
func BenchmarkFigure4L2Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := harness.RunObjectSweepPool(context.Background(), benchPool, benchFrames)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range harness.Figure4Series(points) {
				b.Log("\n" + seriesString(s))
			}
		}
	}
}

// BenchmarkEncodeThroughput measures raw (untraced) encoder speed at PAL
// size — the codec without the simulation harness.
func BenchmarkEncodeThroughput(b *testing.B) {
	wl := harness.Workload{W: 720, H: 576, Frames: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.RunEncode([]perf.Machine{}, wl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaySweep is the record/replay payoff benchmark: an
// 18-configuration cache-geometry sweep (3 L1s × 6 L2 sizes) of one
// encode workload, run two ways. The "reencode" baseline re-runs the
// instrumented codec with an attached hierarchy for every configuration
// — the O(configs × encode) shape of classic harness sweeps. The
// "replay" variant encodes ONCE into a trace and simulates every
// configuration by replay (full-trace replay per L1, L1-filtered L2
// replay per L2 size). Both produce identical metrics (asserted by
// TestGeometrySweepMatchesLive); the speedup column of BENCH_pr2.json
// is their ns/op ratio.
func BenchmarkReplaySweep(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	nConfigs := len(harness.GeometryL1Configs()) * len(harness.GeometryL2Sizes())
	b.Run("reencode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			points, err := harness.RunGeometrySweepLive(context.Background(), benchPool, wl, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(points) != nConfigs {
				b.Fatalf("got %d points", len(points))
			}
		}
		b.ReportMetric(float64(nConfigs), "configs")
	})
	b.Run("replay", func(b *testing.B) {
		var points []harness.GeometryPoint
		for i := 0; i < b.N; i++ {
			var err error
			points, err = harness.RunGeometrySweepPool(context.Background(), benchPool, wl, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(points) != nConfigs {
				b.Fatalf("got %d points", len(points))
			}
		}
		b.ReportMetric(float64(nConfigs), "configs")
		b.Log("\n" + harness.FormatGeometrySweep("cache geometry sweep", points))
	})
}

// BenchmarkObsOverhead proves the obs instrumentation is free where it
// matters: the same 18-configuration replay sweep as
// BenchmarkReplaySweep/replay, run with instrumentation on (the
// default) and off (obs.SetEnabled(false)). The replay-loop hooks are
// per *call* — two time.Now reads and a handful of atomics per replay
// of millions of records — so both variants must sit within noise of
// each other and of BenchmarkReplaySweep/replay in BENCH_pr5.json
// (the acceptance bound is 2%).
func BenchmarkObsOverhead(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	nConfigs := len(harness.GeometryL1Configs()) * len(harness.GeometryL2Sizes())
	sweep := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			points, err := harness.RunGeometrySweepPool(context.Background(), benchPool, wl, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(points) != nConfigs {
				b.Fatalf("got %d points", len(points))
			}
		}
		b.ReportMetric(float64(nConfigs), "configs")
	}
	b.Run("instrumented", func(b *testing.B) {
		before := obs.Default().Counter("trace_replay_l2_total").Value()
		sweep(b)
		if obs.Default().Counter("trace_replay_l2_total").Value() == before {
			b.Fatal("instrumented run recorded no replay metrics")
		}
	})
	b.Run("uninstrumented", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		sweep(b)
	})
}

// BenchmarkRecordEncode isolates the capture cost: encoding with a
// trace recorder attached versus the untraced encoder is the overhead a
// workload pays once to become replayable everywhere.
func BenchmarkRecordEncode(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := harness.RecordEncodeIn(simmem.NewSpace(0), wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(c.Enc.Records()), "records")
			b.ReportMetric(float64(c.Enc.SizeBytes())/(1<<20), "traceMB")
		}
	}
}

// BenchmarkReplayOnly measures a single machine simulation served from
// an existing capture — the marginal cost of "one more machine" in a
// sweep: one full-trace hierarchy replay on one core.
func BenchmarkReplayOnly(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	c, err := harness.RecordEncodeIn(simmem.NewSpace(0), wl)
	if err != nil {
		b.Fatal(err)
	}
	m := perf.O2R12K1MB()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := harness.ReplayOn(m, c.Enc, c.SS.TotalBytes())
			if res.Whole.Raw.References() == 0 {
				b.Fatal("empty replay")
			}
		}
	})
}

// BenchmarkMemoizedSweep quantifies the result memo: the full
// geometry-sweep grid replayed from one capture with no memo (the
// baseline), with a cold memo (every cell missed, replayed and
// recorded — the write overhead), and with a warm memo (every cell
// served from memoized stats, zero replays — the incremental-study
// payoff). All three produce byte-identical points; only the work
// differs.
func BenchmarkMemoizedSweep(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	capture, err := harness.RecordEncodeIn(simmem.NewSpace(0), wl)
	if err != nil {
		b.Fatal(err)
	}
	nConfigs := len(harness.GeometryL1Configs()) * len(harness.GeometryL2Sizes())
	sweep := func(b *testing.B, ctx context.Context) {
		points, err := harness.RunGeometrySweepFromTrace(ctx, benchPool, capture.Enc, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != nConfigs {
			b.Fatalf("got %d points", len(points))
		}
	}
	b.Run("no-memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, context.Background())
		}
		b.ReportMetric(float64(nConfigs), "configs")
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
			if err != nil {
				b.Fatal(err)
			}
			study := harness.NewStudy(true)
			study.SetMemo(mc)
			sweep(b, harness.WithStudy(context.Background(), study))
		}
		b.ReportMetric(float64(nConfigs), "configs")
	})
	b.Run("warm", func(b *testing.B) {
		mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
		if err != nil {
			b.Fatal(err)
		}
		study := harness.NewStudy(true)
		study.SetMemo(mc)
		ctx := harness.WithStudy(context.Background(), study)
		sweep(b, ctx) // prime: every cell memoized
		study.ResetUsage()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, ctx)
		}
		b.StopTimer()
		u := study.Usage()
		if u.MemoMisses != 0 || u.Replays != 0 {
			b.Fatalf("warm sweep replayed: %+v", u)
		}
		b.ReportMetric(float64(nConfigs), "configs")
		b.ReportMetric(100, "memoHit%")
	})
}

// BenchmarkTraceWire measures the portable trace format: encode and
// decode throughput of a real CIF capture (MB/s over wire bytes — the
// shipping cost of "encode once, simulate anywhere"), plus the
// wire-vs-memory compression ratio.
func BenchmarkTraceWire(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	capture, err := harness.RecordEncodeIn(simmem.NewSpace(0), wl)
	if err != nil {
		b.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := capture.Enc.WriteTo(&wire); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(wire.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := capture.Enc.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(capture.Enc.SizeBytes())/float64(wire.Len()), "compression_x")
		b.ReportMetric(float64(wire.Len())/(1<<20), "wireMB")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(wire.Len()))
		for i := 0; i < b.N; i++ {
			dec, err := trace.ReadTrace(bytes.NewReader(wire.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if dec.Records() != capture.Enc.Records() {
				b.Fatal("decode dropped records")
			}
		}
	})
}

// BenchmarkDistributedSweep compares the 18-configuration geometry
// sweep run locally against the same sweep sharded across two dist
// workers (in-process HTTP servers here; the protocol and serialization
// costs are real, the network is loopback). Both variants run one
// encode; the distributed one adds per-L1 filtering, M4L2
// serialization, upload and shard round-trips — the overhead a real
// fleet pays for the fan-out — with the full self-healing scheduler
// (breakers, background health prober) running. The fleet is healthy,
// so the fault path must never fire: any retry or dead worker fails
// the benchmark.
func BenchmarkDistributedSweep(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	nConfigs := len(harness.GeometryL1Configs()) * len(harness.GeometryL2Sizes())
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			points, err := harness.RunGeometrySweepPool(context.Background(), benchPool, wl, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(points) != nConfigs {
				b.Fatalf("got %d points", len(points))
			}
		}
		b.ReportMetric(float64(nConfigs), "configs")
	})
	b.Run("distributed-2workers", func(b *testing.B) {
		var urls []string
		for i := 0; i < 2; i++ {
			srv := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{}).Handler())
			defer srv.Close()
			urls = append(urls, srv.URL)
		}
		coord := &dist.Coordinator{Workers: urls}
		var stats dist.SweepStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pts, st, err := coord.GeometrySweepWithStats(context.Background(), wl, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) != nConfigs {
				b.Fatalf("got %d points", len(pts))
			}
			if st.Retries != 0 || st.DeadWorkers != 0 {
				b.Fatalf("healthy fleet hit the fault path: %+v", st)
			}
			stats = st
		}
		b.ReportMetric(float64(nConfigs), "configs")
		b.ReportMetric(float64(stats.UploadBytes)/(1<<20), "uploadMB")
		b.ReportMetric(float64(stats.Uploads), "uploads")
	})
}

// BenchmarkPolicySweep measures the replacement-policy axis: one
// capture, each policy's full row (L1 filter replay + 6 L2-size
// replays) per iteration. The lru sub-benchmark is the fast-path
// regression guard — it exercises exactly the pre-policy replay path,
// so its ns/op is directly comparable to BenchmarkReplaySweep/replay
// in BENCH_pr2.json (divided by that benchmark's three L1 rows). The
// reported l2miss% of the 1MB point shows the axis measuring real
// policy deltas from identical input bytes.
func BenchmarkPolicySweep(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	capture, err := harness.RecordEncodeIn(simmem.NewSpace(0), wl)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []cache.Policy{cache.PolicyLRU, cache.PolicyPLRU, cache.PolicyFIFO, cache.PolicyRandom, cache.PolicyVictim} {
		b.Run(string(p), func(b *testing.B) {
			l1s := harness.PolicyAxisConfigs([]cache.Policy{p})
			var points []harness.GeometryPoint
			for i := 0; i < b.N; i++ {
				points, err = harness.RunGeometrySweepFromTrace(context.Background(), benchPool, capture.Enc, l1s, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(points)), "configs")
			for _, pt := range points {
				if pt.L2.SizeBytes == 1<<20 {
					b.ReportMetric(pt.Encode.L2MissRate*100, "l2miss%@1MB")
				}
			}
		})
	}
}

func seriesString(s perf.Series) string {
	var sb strings.Builder
	s.Write(&sb)
	return sb.String()
}

// BenchmarkFutureWorkRatioSweep runs the experiment the paper's
// conclusion proposes: scale the processor-to-memory speed ratio until
// MPEG-4 finally becomes memory bound, and report the crossover.
func BenchmarkFutureWorkRatioSweep(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	for i := 0; i < b.N; i++ {
		points, err := harness.RunRatioSweepPool(context.Background(), benchPool, wl, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range harness.RatioSweepSeries(points) {
				b.Log("\n" + seriesString(s))
			}
			b.ReportMetric(harness.MemoryBoundCrossover(points), "crossover_x")
			b.ReportMetric(points[0].DecodeDRAM*100, "baselineDRAM%")
		}
	}
}

// BenchmarkAblationSearchAlgorithm compares exhaustive and diamond
// motion search: the locality the paper attributes to overlapping
// candidate windows comes with a large reference count.
func BenchmarkAblationSearchAlgorithm(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	for i := 0; i < b.N; i++ {
		results, err := harness.RunSearchAblationPool(context.Background(), benchPool, wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.FormatAblation("motion search ablation (encode, R12K 1MB)", results))
		}
	}
}

// BenchmarkAblationPrefetch sweeps the modelled compiler-prefetch
// cadence (the paper: conservative prefetching is mostly wasted).
func BenchmarkAblationPrefetch(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	for i := 0; i < b.N; i++ {
		results, err := harness.RunPrefetchAblationPool(context.Background(), benchPool, wl, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.FormatAblation("prefetch cadence ablation (encode, R12K 1MB)", results))
		}
	}
}

// BenchmarkAblationStaging isolates the MoMuSys-style per-VOP staging
// traffic — the design choice dominating L2-level behaviour (README.md,
// `-sweep staging`).
func BenchmarkAblationStaging(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames}
	for i := 0; i < b.N; i++ {
		results, err := harness.RunStagingAblationPool(context.Background(), benchPool, wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.FormatAblation("per-VOP staging ablation (encode, R12K 1MB)", results))
		}
	}
}

// BenchmarkAblationPageColoring shows the allocator-coloring pathology:
// page-aligned planes make the masked-SAD kernel thrash the 2-way L1.
func BenchmarkAblationPageColoring(b *testing.B) {
	wl := harness.Workload{W: 352, H: 288, Frames: benchFrames, Objects: 2}
	for i := 0; i < b.N; i++ {
		results, err := harness.RunColoringAblationPool(context.Background(), benchPool, wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.FormatAblation("page coloring ablation (encode, R12K 1MB)", results))
		}
	}
}

// BenchmarkFarmStudyScaling regenerates Tables 2–7 — twelve independent
// trace-driven simulations — through the experiment farm at increasing
// worker counts. The speedup from workers=1 to workers=N is the
// headline payoff of the farm; results are byte-identical at every
// point (asserted by the farm's determinism tests).
func BenchmarkFarmStudyScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := farm.New(farm.Config{Workers: workers})
			for i := 0; i < b.N; i++ {
				tabs, err := harness.RunTables(context.Background(), p, harness.TableSpecs(), benchFrames)
				if err != nil {
					b.Fatal(err)
				}
				if len(tabs) != 6 {
					b.Fatalf("got %d tables", len(tabs))
				}
			}
		})
	}
}
