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
// the shard replays a distributed worker runs — passes through
// geometrySweep or GeometryRowStatsFromL2Trace, so these two counters
// plus the harness_geometry_sweep span (see obs.Span) give points/sec
// for the whole fleet's rows.
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
// the workload from one encode capture. Points return in (L1 outer, L2
// inner) order; nil/empty axes use the defaults. The sweep plans before
// it captures: with a memo on the context's Study, every cell is looked
// up under the capture's provenance (CaptureProvenance), and only rows
// with a missing cell are filtered and replayed, from the study's
// shared capture (Study.EncodeTrace). A sweep whose cells are all
// memoized runs no codec.
func RunGeometrySweepPool(ctx context.Context, p *farm.Pool, wl Workload, l1s []cache.Config, l2Sizes []int) ([]GeometryPoint, error) {
	s := StudyFrom(ctx)
	return geometrySweep(ctx, p, s, CaptureProvenance(wl),
		func() (*trace.Trace, error) { return s.EncodeTrace(wl) }, l1s, l2Sizes)
}

// RunGeometrySweepFromTrace runs the geometry sweep against an existing
// capture — recorded in-process or decoded from a trace file (mp4study
// -trace-in): the full trace replays through an L1 filter per L1
// configuration (one farm job each), and each filtered trace replays
// per L2 size. Points return in (L1 outer, L2 inner) order, identical
// to RunGeometrySweepPool on the workload the trace captures. Nil/empty
// axes use the defaults; every geometry is validated before simulation
// (traces and axes may arrive over the network). Memo cells are keyed
// by the trace's content hash, computed only when the study has a memo.
func RunGeometrySweepFromTrace(ctx context.Context, p *farm.Pool, tr *trace.Trace, l1s []cache.Config, l2Sizes []int) ([]GeometryPoint, error) {
	s := StudyFrom(ctx)
	var id trace.Hash
	if s.Memo() != nil {
		id = tr.Hash()
	}
	return geometrySweep(ctx, p, s, id,
		func() (*trace.Trace, error) { return tr, nil }, l1s, l2Sizes)
}

// geometryRow is one L1 row of a sweep: its points, with the cells the
// memo served filled in and the rest listed in missing.
type geometryRow struct {
	l1      cache.Config
	points  []GeometryPoint
	missing []int
}

// geometrySweep is the sweep both entry points share. id names the
// capture in memo keys; capture supplies the trace and is called only
// if some cell misses the memo. Without a memo every cell misses and no
// lookup runs.
func geometrySweep(ctx context.Context, p *farm.Pool, s *Study, id trace.Hash, capture func() (*trace.Trace, error), l1s []cache.Config, l2Sizes []int) ([]GeometryPoint, error) {
	defer obs.Span("harness.geometry_sweep")()
	if len(l1s) == 0 {
		l1s = GeometryL1Configs()
	}
	if len(l2Sizes) == 0 {
		l2Sizes = GeometryL2Sizes()
	}
	// Validate the exact configurations the sweep will simulate: the
	// L2 geometry derives from both the size axis and the L1 entry's
	// policy (geometryMachine), so each (L1, size) pair is checked.
	for _, l1 := range l1s {
		if err := l1.Validate(); err != nil {
			return nil, err
		}
		for _, size := range l2Sizes {
			if err := geometryMachine(l1, size).L2.Validate(); err != nil {
				return nil, err
			}
		}
	}
	mc := s.Memo()
	rows := make([]*geometryRow, len(l1s))
	var todo []*geometryRow
	for i, l1 := range l1s {
		r := &geometryRow{l1: l1, points: make([]GeometryPoint, len(l2Sizes))}
		rows[i] = r
		for j, size := range l2Sizes {
			if mc != nil {
				if whole, ok := mc.Get(GeometryMemoKey(id, l1, size)); ok {
					r.points[j] = GeometryPointFromStats(l1, size, whole)
					s.noteMemoHit()
					continue
				}
				s.noteMemoMiss()
			}
			r.missing = append(r.missing, j)
		}
		if len(r.missing) > 0 {
			todo = append(todo, r)
			continue
		}
		mSweepRows.Inc()
		mSweepPoints.Add(uint64(len(r.points)))
	}
	if len(todo) > 0 {
		tr, err := capture()
		if err != nil {
			return nil, err
		}
		_, err = farm.MapLabeled(ctx, p, todo,
			func(i int, r *geometryRow) string {
				label := fmt.Sprintf("geometry/l1=%dK-%dw", r.l1.SizeBytes>>10, r.l1.Ways)
				if suffix := policySuffix(r.l1.Policy); suffix != "" {
					label += "-" + suffix
				}
				return label
			},
			func(ctx context.Context, env farm.Env, r *geometryRow) (struct{}, error) {
				replayMissing(ctx, s, mc, tr, id, r, l2Sizes)
				return struct{}{}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	var out []GeometryPoint
	for _, r := range rows {
		out = append(out, r.points...)
	}
	return out, nil
}

// replayMissing fills the row's missing cells: one L1 filter replay of
// the capture, then one fused replay of the L2-bound stream across the
// missing L2 sizes, each result memoized in mc under id.
func replayMissing(ctx context.Context, s *Study, mc *memo.Cache, tr *trace.Trace, id trace.Hash, r *geometryRow, l2Sizes []int) {
	lt := FilterGeometryL1(ctx, tr, r.l1)
	cfgs := make([]cache.Config, len(r.missing))
	for k, j := range r.missing {
		cfgs[k] = GeometryL2For(r.l1, l2Sizes[j])
	}
	rr := lt.ReplayMany(cfgs, trace.ReplayWorkers())
	for k, j := range r.missing {
		size := l2Sizes[j]
		s.noteReplay()
		r.points[j] = GeometryPointFromStats(r.l1, size, rr[k].Whole)
		mc.Put(GeometryMemoKey(id, r.l1, size), rr[k].Whole)
	}
	mSweepRows.Inc()
	mSweepPoints.Add(uint64(len(r.points)))
}

// FilterGeometryL1 replays a full capture through one L1 configuration
// of the geometry sweep and returns the surviving L2-bound stream — the
// per-L1 half of the sweep, accounted to the context's Study. The
// caller must have validated l1 (it is the seam the local sweep and the
// distributed coordinator share; both validate their axes at ingress).
func FilterGeometryL1(ctx context.Context, tr *trace.Trace, l1 cache.Config) *trace.L2Trace {
	f := trace.NewL2Filter(l1)
	tr.Replay(f, f)
	lt := f.Trace()
	StudyFrom(ctx).noteL2Trace(lt)
	return lt
}

// GeometryRowFromL2Trace simulates one L1 row of the geometry sweep
// from an L1-filtered capture: one replay per L2 size against the
// trace's embedded L1, in axis order — the per-L2 half of the sweep,
// shared by the local sweep and the distributed worker's M4L2 path so
// the two cannot drift apart. Nil/empty l2Sizes use the defaults; the
// sizes are validated before simulation (they may arrive over the
// network).
func GeometryRowFromL2Trace(ctx context.Context, lt *trace.L2Trace, l2Sizes []int) ([]GeometryPoint, error) {
	points, _, err := GeometryRowStatsFromL2Trace(ctx, lt, l2Sizes)
	return points, err
}

// GeometryRowStatsFromL2Trace is GeometryRowFromL2Trace returning the
// whole-run stats alongside each point — what a distributed worker
// ships back so the coordinator can memoize the cells it replayed
// remotely (the stats are the memo value; points derive from them).
func GeometryRowStatsFromL2Trace(ctx context.Context, lt *trace.L2Trace, l2Sizes []int) ([]GeometryPoint, []cache.Stats, error) {
	if len(l2Sizes) == 0 {
		l2Sizes = GeometryL2Sizes()
	}
	for _, size := range l2Sizes {
		// Validate the exact L2 the row will simulate — including the
		// policy it inherits from the trace's embedded L1.
		l2 := geometryMachine(lt.L1, size).L2
		if err := l2.Validate(); err != nil {
			return nil, nil, err
		}
	}
	s := StudyFrom(ctx)
	l1 := lt.L1
	points := make([]GeometryPoint, len(l2Sizes))
	stats := make([]cache.Stats, len(l2Sizes))
	cfgs := make([]cache.Config, len(l2Sizes))
	for i, size := range l2Sizes {
		cfgs[i] = geometryMachine(l1, size).L2
	}
	rr := lt.ReplayMany(cfgs, trace.ReplayWorkers())
	for i, size := range l2Sizes {
		m := geometryMachine(l1, size)
		s.noteReplay()
		stats[i] = rr[i].Whole
		points[i] = GeometryPoint{
			Label:  geometryLabel(l1, size),
			L1:     l1,
			L2:     m.L2,
			Encode: perf.Compute(m, rr[i].Whole),
		}
	}
	mSweepRows.Inc()
	mSweepPoints.Add(uint64(len(points)))
	return points, stats, nil
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
