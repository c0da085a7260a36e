package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/trace"
)

// CodeVersion names the simulator semantics memoized results depend
// on: the codec's reference stream (memo keys name a sweep's capture by
// its provenance, see CaptureProvenance), the cache models, the replay
// machinery, and perf.Compute. Bump it whenever any of those change
// observable output — every memo entry recorded under the old version
// then misses instead of replaying stale results.
const CodeVersion = "sim-v1"

// Sweep metrics: every geometry/policy sweep — local, trace-file or
// fleet — runs through the one planner (geometrySweep), which counts
// each of its rows and points once, memo-served or replayed. With the
// harness_geometry_sweep span (see obs.Span) they give points/sec; the
// shard replays a dist worker serves count only in its worker_*
// metrics.
var (
	mSweepPoints = obs.Default().Counter("harness_sweep_points_total")
	mSweepRows   = obs.Default().Counter("harness_sweep_rows_total")
)

// The cache-geometry sweep is the purest form of the record/replay
// methodology: one encode produces one trace, and every (L1, L2)
// geometry is simulated from it — the classic trace-driven study the
// paper's own figures perform by machine shopping, generalised to
// machines SGI never built. Per L1 the full trace replays once through
// an L1 filter; the surviving L2-bound stream (orders of magnitude
// shorter) then replays once per L2 size.

// GeometryPoint is one simulated configuration of the sweep.
type GeometryPoint struct {
	Label  string
	L1     cache.Config
	L2     cache.Config
	Encode perf.Metrics
}

// GeometryL1Configs returns the default L1 axis: the paper's 32 KB
// 2-way data cache plus a half-size and a double-associativity
// variant.
func GeometryL1Configs() []cache.Config {
	base := perf.O2R12K1MB().L1
	half := base
	half.SizeBytes = base.SizeBytes / 2
	assoc := base
	assoc.Ways = base.Ways * 2
	return []cache.Config{base, half, assoc}
}

// GeometryL2Sizes returns the default L2 axis, bracketing the paper's
// 1/2/8 MB machines.
func GeometryL2Sizes() []int {
	return []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
}

// geometryMachine builds the timing model for one configuration: the
// O2's clocks and penalties with the caches swapped. The sweep's
// policy axis is hierarchy-wide: the L2 inherits the L1 entry's
// replacement policy (with the victim wrapper mapped back to LRU — it
// is an L1 structure), so one axis entry names one consistently
// configured machine.
func geometryMachine(l1 cache.Config, l2Size int) perf.Machine {
	m := perf.O2R12K1MB()
	m.Name = fmt.Sprintf("geom L1:%dK/%dw L2:%dM", l1.SizeBytes>>10, l1.Ways, l2Size>>20)
	m.L1 = l1
	m.L2.SizeBytes = l2Size
	m.L2.Policy = l1.Policy.ForL2()
	m.L2.Seed = l1.Seed
	return m
}

// GeometryL2For returns the exact L2 configuration the sweep
// simulates for one (L1 entry, L2 size) pair — the O2's L2 with the
// size swapped in and the L1's replacement policy inherited. It is the
// single source of the inheritance rule, shared by the sweep itself
// (via geometryMachine) and every ingress validator (ExperimentSpec,
// the dist coordinator and worker), so validation cannot drift from
// execution.
func GeometryL2For(l1 cache.Config, l2Size int) cache.Config {
	return geometryMachine(l1, l2Size).L2
}

// GeometryMemoKey is the memo identity of one sweep cell: the
// capture's identity plus the exact (L1, L2) pair the cell simulates.
// A sweep that captures its workload itself names the capture by
// CaptureProvenance, which it knows before capturing; a sweep of a
// trace already in hand (a trace file, a worker's upload) names it by
// its content hash, Trace.Hash. Shared by the local sweep and the dist
// coordinator so both populate and consult the same entries.
func GeometryMemoKey(capture trace.Hash, l1 cache.Config, l2Size int) memo.Key {
	return memo.Key{
		TraceHash: capture.String(),
		L1:        l1,
		L2:        GeometryL2For(l1, l2Size),
	}
}

// GeometryPointFromStats reconstructs one sweep point from memoized
// whole-run stats — field-for-field identical to simulating the cell,
// because perf.Compute is deterministic in (machine, stats).
func GeometryPointFromStats(l1 cache.Config, l2Size int, whole cache.Stats) GeometryPoint {
	m := geometryMachine(l1, l2Size)
	return GeometryPoint{
		Label:  geometryLabel(l1, l2Size),
		L1:     l1,
		L2:     m.L2,
		Encode: perf.Compute(m, whole),
	}
}

func geometryLabel(l1 cache.Config, l2Size int) string {
	base := fmt.Sprintf("L1 %dKB/%d-way, L2 %s", l1.SizeBytes>>10, l1.Ways, humanBytes(l2Size))
	if suffix := policySuffix(l1.Policy); suffix != "" {
		return base + ", " + suffix
	}
	return base
}

// policySuffix names a non-default policy in labels; the LRU default
// stays unnamed so every pre-policy output remains byte-identical.
func policySuffix(p cache.Policy) string {
	if p == "" || p == cache.PolicyLRU {
		return ""
	}
	return string(p)
}

// ExpandPolicyAxis crosses an L1 axis with a policy axis: for each
// policy (outer), each L1 entry (inner) reappears under that policy.
// Nil/empty axes use the defaults (GeometryL1Configs, LRU only), so
// expanding with a nil policy list is the identity on the default
// sweep.
func ExpandPolicyAxis(l1s []cache.Config, policies []cache.Policy) []cache.Config {
	if len(l1s) == 0 {
		l1s = GeometryL1Configs()
	}
	if len(policies) == 0 {
		return l1s
	}
	out := make([]cache.Config, 0, len(l1s)*len(policies))
	for _, p := range policies {
		for _, l1 := range l1s {
			l1.Policy = p
			out = append(out, l1)
		}
	}
	return out
}

// PolicyAxisConfigs returns the policy sweep's L1 axis: the paper's
// base 32 KB 2-way L1 under each named policy (nil means every
// implemented policy). The geometry is held fixed on purpose — the
// sweep isolates the replacement policy as the only moving part, all
// replayed from one capture.
func PolicyAxisConfigs(policies []cache.Policy) []cache.Config {
	if len(policies) == 0 {
		policies = cache.Policies()
	}
	return ExpandPolicyAxis([]cache.Config{perf.O2R12K1MB().L1}, policies)
}

func humanBytes(b int) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}

// RunGeometrySweep runs the sweep on the default pool; see
// RunGeometrySweepPool.
func RunGeometrySweep(wl Workload, l1s []cache.Config, l2Sizes []int) ([]GeometryPoint, error) {
	return RunGeometrySweepPool(context.Background(), nil, wl, l1s, l2Sizes)
}

// RunGeometrySweepPool simulates every (L1, L2 size) combination of
// the workload from one encode capture: RunGeometrySweepOn with the
// local row replayer, one farm job per row on p.
func RunGeometrySweepPool(ctx context.Context, p *farm.Pool, wl Workload, l1s []cache.Config, l2Sizes []int) ([]GeometryPoint, error) {
	return RunGeometrySweepOn(ctx, p, wl, l1s, l2Sizes, replayRows)
}

// RunGeometrySweepOn is the geometry sweep's one planner. Points return
// in (L1 outer, L2 inner) order; nil/empty axes use the defaults, and
// every (L1, L2) pair is validated before anything runs (axes arrive
// from flags, manifests and the network). With a memo on the context's
// Study, every cell is looked up under the capture's provenance
// (CaptureProvenance) before anything is captured; only if a cell
// misses does the sweep take the study's shared capture
// (Study.EncodeTrace). replay then gets every row and fills the missing
// cells; once it succeeds, each replayed cell is counted and memoized.
// A sweep whose cells are all memoized runs no codec.
func RunGeometrySweepOn(ctx context.Context, p *farm.Pool, wl Workload, l1s []cache.Config, l2Sizes []int, replay RowReplayer) ([]GeometryPoint, error) {
	s := StudyFrom(ctx)
	return geometrySweep(ctx, p, s, CaptureProvenance(wl),
		func() (*trace.Trace, error) { return s.EncodeTrace(wl) }, l1s, l2Sizes, replay)
}

// RunGeometrySweepFromTrace runs the geometry sweep against an existing
// capture — recorded in-process or decoded from a trace file (mp4study
// -trace-in) — with the local row replayer. Points return in (L1 outer,
// L2 inner) order, identical to RunGeometrySweepPool on the workload
// the trace captures. Memo cells are keyed by the trace's content hash,
// computed only when the study has a memo.
func RunGeometrySweepFromTrace(ctx context.Context, p *farm.Pool, tr *trace.Trace, l1s []cache.Config, l2Sizes []int) ([]GeometryPoint, error) {
	s := StudyFrom(ctx)
	var id trace.Hash
	if s.Memo() != nil {
		id = tr.Hash()
	}
	return geometrySweep(ctx, p, s, id,
		func() (*trace.Trace, error) { return tr, nil }, l1s, l2Sizes, replayRows)
}

// SweepRow is one L1 row of a geometry sweep as the planner hands it to
// a RowReplayer. Points has one cell per L2 size, with the cells the
// memo served filled in; Missing lists, in axis order, the indices of
// the cells left to replay. Stats is allocated only for a row with a
// missing cell.
type SweepRow struct {
	L1      cache.Config
	Points  []GeometryPoint
	Stats   []cache.Stats
	Missing []int
}

// RowReplayer replays the missing cells of a sweep's rows from the
// capture tr, which is nil when no cell misses. It gets every row, the
// fully memoized ones included, and must fill Points[j] and Stats[j]
// for every missing j of every row, or return an error. The local
// replayer runs one farm job per row on p; the dist coordinator ships
// the rows to a worker fleet.
type RowReplayer func(ctx context.Context, p *farm.Pool, tr *trace.Trace, rows []SweepRow, l2Sizes []int) error

// geometrySweep is the planner behind every entry point. id names the
// capture in memo keys; capture supplies the trace and is called only
// if some cell misses the memo. Without a memo every cell misses and no
// lookup runs.
func geometrySweep(ctx context.Context, p *farm.Pool, s *Study, id trace.Hash, capture func() (*trace.Trace, error), l1s []cache.Config, l2Sizes []int, replay RowReplayer) ([]GeometryPoint, error) {
	defer obs.Span("harness.geometry_sweep")()
	if len(l1s) == 0 {
		l1s = GeometryL1Configs()
	}
	if len(l2Sizes) == 0 {
		l2Sizes = GeometryL2Sizes()
	}
	// Validate the exact configurations the sweep will simulate: the
	// L2 geometry derives from both the size axis and the L1 entry's
	// policy (GeometryL2For), so each (L1, size) pair is checked.
	for _, l1 := range l1s {
		if err := l1.Validate(); err != nil {
			return nil, fmt.Errorf("l1 axis: %w", err)
		}
		for _, size := range l2Sizes {
			if err := GeometryL2For(l1, size).Validate(); err != nil {
				return nil, fmt.Errorf("l2 axis: %w", err)
			}
		}
	}
	mc := s.Memo()
	rows := make([]SweepRow, len(l1s))
	missing := false
	for i, l1 := range l1s {
		r := SweepRow{L1: l1, Points: make([]GeometryPoint, len(l2Sizes))}
		for j, size := range l2Sizes {
			if mc != nil {
				if whole, ok := mc.Get(GeometryMemoKey(id, l1, size)); ok {
					r.Points[j] = GeometryPointFromStats(l1, size, whole)
					s.noteMemoHit()
					continue
				}
				s.noteMemoMiss()
			}
			r.Missing = append(r.Missing, j)
		}
		if len(r.Missing) > 0 {
			r.Stats = make([]cache.Stats, len(l2Sizes))
			missing = true
		}
		rows[i] = r
	}
	var tr *trace.Trace
	if missing {
		var err error
		if tr, err = capture(); err != nil {
			return nil, err
		}
	}
	if err := replay(ctx, p, tr, rows, l2Sizes); err != nil {
		return nil, err
	}
	out := make([]GeometryPoint, 0, len(l1s)*len(l2Sizes))
	for _, r := range rows {
		for _, j := range r.Missing {
			s.noteReplay()
			mc.Put(GeometryMemoKey(id, r.L1, l2Sizes[j]), r.Stats[j])
		}
		mSweepRows.Inc()
		mSweepPoints.Add(uint64(len(r.Points)))
		out = append(out, r.Points...)
	}
	return out, nil
}

// replayRows is the local RowReplayer: one farm job per row with a
// missing cell, which filters the capture through the row's L1
// (FilterGeometryL1) and replays the missing cells in one fused pass
// (ReplayL2Cells).
func replayRows(ctx context.Context, p *farm.Pool, tr *trace.Trace, rows []SweepRow, l2Sizes []int) error {
	var todo []SweepRow
	for _, r := range rows {
		if len(r.Missing) > 0 {
			todo = append(todo, r)
		}
	}
	_, err := farm.MapLabeled(ctx, p, todo,
		func(i int, r SweepRow) string {
			label := fmt.Sprintf("geometry/l1=%dK-%dw", r.L1.SizeBytes>>10, r.L1.Ways)
			if suffix := policySuffix(r.L1.Policy); suffix != "" {
				label += "-" + suffix
			}
			return label
		},
		func(ctx context.Context, env farm.Env, r SweepRow) (struct{}, error) {
			sizes := make([]int, len(r.Missing))
			for k, j := range r.Missing {
				sizes[k] = l2Sizes[j]
			}
			points, stats := ReplayL2Cells(FilterGeometryL1(ctx, tr, r.L1), sizes)
			for k, j := range r.Missing {
				r.Points[j], r.Stats[j] = points[k], stats[k]
			}
			return struct{}{}, nil
		})
	return err
}

// FilterGeometryL1 replays a full capture through one L1 configuration
// of the geometry sweep and returns the surviving L2-bound stream — the
// per-L1 half of the sweep, accounted to the context's Study. The
// caller must have validated l1 (it is the seam the local sweep and the
// distributed coordinator share; both run behind the planner, which
// validates its axes).
func FilterGeometryL1(ctx context.Context, tr *trace.Trace, l1 cache.Config) *trace.L2Trace {
	f := trace.NewL2Filter(l1)
	tr.Replay(f, f)
	lt := f.Trace()
	StudyFrom(ctx).noteL2Trace(lt)
	return lt
}

// ReplayL2Cells simulates the given L2 sizes behind an L1-filtered
// capture's embedded L1 in one fused pass, returning each cell's point
// and whole-run stats in the order of sizes — the per-L2 half of the
// sweep, and the one cell-replay loop the local replayer, the dist
// worker and the coordinator's local fallback share. It validates
// nothing and counts nothing: the caller validates the sizes, and the
// sweep planner counts the cells.
func ReplayL2Cells(lt *trace.L2Trace, sizes []int) ([]GeometryPoint, []cache.Stats) {
	cfgs := make([]cache.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = GeometryL2For(lt.L1, size)
	}
	rr := lt.ReplayMany(cfgs, trace.ReplayWorkers())
	points := make([]GeometryPoint, len(sizes))
	stats := make([]cache.Stats, len(sizes))
	for i, size := range sizes {
		stats[i] = rr[i].Whole
		points[i] = GeometryPointFromStats(lt.L1, size, rr[i].Whole)
	}
	return points, stats
}

// GeometryRowFromL2Trace simulates one L1 row of the geometry sweep
// from an L1-filtered capture: one replay per L2 size against the
// trace's embedded L1, in axis order, accounted to the context's Study.
// Nil/empty l2Sizes use the defaults; the sizes are validated before
// simulation.
func GeometryRowFromL2Trace(ctx context.Context, lt *trace.L2Trace, l2Sizes []int) ([]GeometryPoint, error) {
	if len(l2Sizes) == 0 {
		l2Sizes = GeometryL2Sizes()
	}
	for _, size := range l2Sizes {
		// Validate the exact L2 the row will simulate — including the
		// policy it inherits from the trace's embedded L1.
		if err := GeometryL2For(lt.L1, size).Validate(); err != nil {
			return nil, err
		}
	}
	points, _ := ReplayL2Cells(lt, l2Sizes)
	s := StudyFrom(ctx)
	for range points {
		s.noteReplay()
	}
	return points, nil
}

// RunGeometrySweepLive is the re-encode baseline: every configuration
// re-runs the instrumented codec with its hierarchy attached — the
// O(configs × encode) shape the replay sweep collapses. Kept as the
// oracle of the replay sweep in tests and as the reencode half of the
// replay speedup benchmark.
func RunGeometrySweepLive(ctx context.Context, p *farm.Pool, wl Workload, l1s []cache.Config, l2Sizes []int) ([]GeometryPoint, error) {
	if len(l1s) == 0 {
		l1s = GeometryL1Configs()
	}
	if len(l2Sizes) == 0 {
		l2Sizes = GeometryL2Sizes()
	}
	type cfg struct {
		l1   cache.Config
		size int
	}
	var cases []cfg
	for _, l1 := range l1s {
		for _, size := range l2Sizes {
			cases = append(cases, cfg{l1, size})
		}
	}
	return farm.MapLabeled(ctx, p, cases,
		func(i int, c cfg) string {
			return fmt.Sprintf("geometry-live/l1=%dK-%dw/l2=%s", c.l1.SizeBytes>>10, c.l1.Ways, humanBytes(c.size))
		},
		func(ctx context.Context, env farm.Env, c cfg) (GeometryPoint, error) {
			m := geometryMachine(c.l1, c.size)
			res, _, err := RunEncodeLiveIn(env.Space, []perf.Machine{m}, wl)
			if err != nil {
				return GeometryPoint{}, err
			}
			return GeometryPoint{
				Label:  geometryLabel(c.l1, c.size),
				L1:     c.l1,
				L2:     m.L2,
				Encode: res[0].Whole,
			}, nil
		})
}

// GeometrySweepSeries renders the sweep as one series per L1
// configuration (L2 size on the x axis, L2 miss rate on y).
func GeometrySweepSeries(points []GeometryPoint) []perf.Series {
	var out []perf.Series
	var curL1 cache.Config
	for _, p := range points {
		if len(out) == 0 || p.L1 != curL1 {
			label := fmt.Sprintf("L2C miss rate vs L2 size (encode, L1 %dKB/%d-way)", p.L1.SizeBytes>>10, p.L1.Ways)
			if suffix := policySuffix(p.L1.Policy); suffix != "" {
				label = fmt.Sprintf("L2C miss rate vs L2 size (encode, L1 %dKB/%d-way, %s)", p.L1.SizeBytes>>10, p.L1.Ways, suffix)
			}
			out = append(out, perf.Series{
				Label: label,
				YUnit: "%",
			})
			curL1 = p.L1
		}
		out[len(out)-1].Append(humanBytes(p.L2.SizeBytes), p.Encode.L2MissRate*100)
	}
	return out
}

// GeometrySweepReport renders the sweep's full output block — aligned
// table plus display series — shared by renderSweep and the CLI's
// -trace-in/-trace-out paths so their outputs cannot drift apart.
func GeometrySweepReport(title string, points []GeometryPoint) string {
	var sb strings.Builder
	sb.WriteString(FormatGeometrySweep(title, points))
	sb.WriteString("\n")
	for _, s := range GeometrySweepSeries(points) {
		s.Write(&sb)
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatGeometrySweep renders the sweep as an aligned text block. The
// config column widens only when a label (e.g. with a policy suffix)
// overflows the historical 28 characters, so pre-policy sweeps render
// byte-identically.
func FormatGeometrySweep(title string, points []GeometryPoint) string {
	width := 28
	for _, p := range points {
		if len(p.Label) > width {
			width = len(p.Label)
		}
	}
	out := title + "\n"
	out += fmt.Sprintf("  %-*s %9s %9s %10s %12s\n", width, "config", "L1miss%", "L2miss%", "DRAM%", "L2DRAM MB/s")
	for _, p := range points {
		out += fmt.Sprintf("  %-*s %8.3f%% %8.2f%% %9.2f%% %12.1f\n",
			width, p.Label, p.Encode.L1MissRate*100, p.Encode.L2MissRate*100,
			p.Encode.DRAMTimeFrac*100, p.Encode.L2DRAMMBps)
	}
	return out
}
