package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/perf"
)

// ExperimentSpec is one schedulable unit of the study: a table, a
// figure, or an extension sweep. Exactly one of Table/Figure/Sweep is
// set. The JSON shape is shared by mp4study's batch manifests and the
// study service's submissions, so a manifest file posts to the service
// unchanged.
//
// The geometry sweep accepts optional axes. They are data, not code —
// manifests and network requests carry them — so Validate builds every
// axis entry through cache.TryNew before any simulation starts.
type ExperimentSpec struct {
	Table  int    `json:"table,omitempty"`
	Figure int    `json:"figure,omitempty"`
	Sweep  string `json:"sweep,omitempty"`

	// Geometry-sweep axes (sweep == "geometry" only). Empty axes use
	// GeometryL1Configs / GeometryL2Sizes.
	L1s  []cache.Config `json:"l1,omitempty"`
	L2KB []int          `json:"l2_kb,omitempty"`

	// Policies is the replacement-policy axis, valid with sweep
	// "geometry" (crossed with the L1 axis) and sweep "policy" (the
	// dedicated policy comparison; empty means every implemented
	// policy). Names are data from manifests, requests and flags;
	// Validate parses each through cache.ParsePolicy.
	Policies []string `json:"policies,omitempty"`
}

// Sweeps lists the valid Sweep values.
var Sweeps = []string{"ratio", "geometry", "policy", "search", "prefetch", "staging", "coloring"}

// Label names the experiment for progress reporting and error
// attribution.
func (e ExperimentSpec) Label() string {
	switch {
	case e.Table != 0:
		return fmt.Sprintf("table %d", e.Table)
	case e.Figure != 0:
		return fmt.Sprintf("figure %d", e.Figure)
	default:
		return "sweep " + e.Sweep
	}
}

// ReplaysCapture reports whether the experiment replays its study's
// encode capture: the geometry and policy sweeps do.
func (e ExperimentSpec) ReplaysCapture() bool {
	return e.Sweep == "geometry" || e.Sweep == "policy"
}

// GeometryAxes converts the spec's optional axes into the sweep's
// argument shape (nil where defaulted).
func (e ExperimentSpec) GeometryAxes() (l1s []cache.Config, l2Sizes []int) {
	for _, l1 := range e.L1s {
		if l1.Name == "" {
			l1.Name = "L1D"
		}
		l1s = append(l1s, l1)
	}
	for _, kb := range e.L2KB {
		l2Sizes = append(l2Sizes, kb<<10)
	}
	return l1s, l2Sizes
}

// PolicyAxis parses the spec's policy names. The caller is expected to
// have validated the spec; unknown names still return an error, never
// a panic.
func (e ExperimentSpec) PolicyAxis() ([]cache.Policy, error) {
	var out []cache.Policy
	for _, s := range e.Policies {
		p, err := cache.ParsePolicy(s)
		if err != nil {
			return nil, fmt.Errorf("policy axis: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// SweepAxes resolves the spec's L1/L2/policy axes into the concrete L1
// axis and L2 size list the geometry or policy sweep will simulate —
// the single source of truth shared by Validate (which TryNews every
// resolved entry) and renderSweep (which simulates them), so ingress
// validation cannot drift from execution. For sweep "geometry" the
// policy axis crosses the L1 axis (empty = LRU only, the pre-policy
// sweep); for sweep "policy" an empty policy list means every
// implemented policy, over the base L1 unless an explicit L1 axis is
// given. A policies list cannot be combined with L1 entries that name
// their own policy — the expansion would silently override them, so
// the conflict is an error instead.
func (e ExperimentSpec) SweepAxes() ([]cache.Config, []int, error) {
	policies, err := e.PolicyAxis()
	if err != nil {
		return nil, nil, err
	}
	l1s, l2Sizes := e.GeometryAxes()
	if len(policies) > 0 {
		// The policies axis stamps its policy onto every L1 entry; an
		// entry carrying its own explicit policy would be silently
		// overridden, so the combination is rejected rather than
		// guessed at.
		for _, l1 := range l1s {
			if l1.Policy != "" {
				return nil, nil, fmt.Errorf(
					"l1 axis entry %s names policy %q while a policies axis is also given — use one or the other",
					l1.Name, l1.Policy)
			}
		}
	}
	switch e.Sweep {
	case "policy":
		switch {
		case len(l1s) == 0:
			l1s = PolicyAxisConfigs(policies)
		case len(policies) > 0:
			// No entry carries its own policy (guarded above).
			l1s = ExpandPolicyAxis(l1s, policies)
		default:
			// Explicit L1 axis, no policies list: entries naming their
			// own policy are the axis as given; all-unlabelled entries
			// expand over every implemented policy.
			explicit := false
			for _, l1 := range l1s {
				if l1.Policy != "" {
					explicit = true
					break
				}
			}
			if !explicit {
				l1s = ExpandPolicyAxis(l1s, cache.Policies())
			}
		}
	case "geometry":
		if len(policies) > 0 {
			l1s = ExpandPolicyAxis(l1s, policies)
		}
	}
	return l1s, l2Sizes, nil
}

// Validate checks the spec without running anything: exactly one
// experiment kind, a known table/figure/sweep, and — because geometry
// axes arrive from manifests and network requests — every axis entry
// must build via cache.TryNew.
func (e ExperimentSpec) Validate() error {
	set := 0
	if e.Table != 0 {
		set++
	}
	if e.Figure != 0 {
		set++
	}
	if e.Sweep != "" {
		set++
	}
	if set != 1 {
		return fmt.Errorf("experiment must set exactly one of table/figure/sweep, has %d", set)
	}
	switch {
	case e.Table != 0:
		if e.Table != 1 && e.Table != 8 {
			if _, err := TableSpecByNum(e.Table); err != nil {
				return err
			}
		}
	case e.Figure != 0:
		if e.Figure < 2 || e.Figure > 4 {
			return fmt.Errorf("no figure %d (the paper's data figures are 2-4)", e.Figure)
		}
	default:
		known := false
		for _, s := range Sweeps {
			if e.Sweep == s {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown sweep %q (have %s)", e.Sweep, strings.Join(Sweeps, ", "))
		}
	}
	sweepWithAxes := e.Sweep == "geometry" || e.Sweep == "policy"
	if len(e.L1s) > 0 || len(e.L2KB) > 0 {
		if !sweepWithAxes {
			return fmt.Errorf("geometry axes are only valid with sweep \"geometry\" or \"policy\"")
		}
	}
	if len(e.Policies) > 0 && !sweepWithAxes {
		return fmt.Errorf("a policy axis is only valid with sweep \"geometry\" or \"policy\"")
	}
	if sweepWithAxes {
		// Bound the KB values before the <<10 conversion so an absurd
		// request cannot overflow int into a nonsense (or accidentally
		// plausible) byte count.
		for _, kb := range e.L2KB {
			if kb <= 0 || kb > cache.MaxSizeBytes>>10 {
				return fmt.Errorf("l2 axis: %d KB out of range (1..%d)", kb, cache.MaxSizeBytes>>10)
			}
		}
		// Check every configuration the sweep will actually simulate —
		// the policy axis crossed with the L1 axis, and the base L2
		// under each inherited policy — so policy/geometry interactions
		// (e.g. tree-PLRU on a non-power-of-two axis entry) are
		// rejected here and not inside a farm job. Config.Validate is
		// the exact precondition of cache.TryNew without its array
		// allocations: axes arrive from the network, and a hostile
		// near-MaxSizeBytes grid must not cost gigabytes of transient
		// backing arrays just to be validated.
		l1s, l2Sizes, err := e.SweepAxes()
		if err != nil {
			return err
		}
		for _, l1 := range l1s {
			if err := l1.Validate(); err != nil {
				return fmt.Errorf("l1 axis: %w", err)
			}
			sizes := l2Sizes
			if len(sizes) == 0 {
				sizes = GeometryL2Sizes() // the defaults the sweep will use
			}
			for _, size := range sizes {
				if err := GeometryL2For(l1, size).Validate(); err != nil {
					return fmt.Errorf("l2 axis: %w", err)
				}
			}
		}
	}
	return nil
}

// SweepTitle names the geometry/policy sweep report for the given
// simulation strategy. It is shared by renderSweep and cmd/mp4study's
// trace-file path, whose output is documented as identical to the
// plain sweep — one source keeps them so.
func SweepTitle(sweep string, replayed bool) string {
	kind := "cache geometry"
	if sweep == "policy" {
		kind = "replacement policy"
	}
	if replayed {
		return kind + " sweep (encode, one trace replayed per config)"
	}
	return kind + " sweep (encode, re-encoded live per config)"
}

// RenderExperiment produces the text of one experiment, running its
// internal fan-out (resolutions, sizes, configurations) on the pool.
// Strategy and usage accounting follow the context's Study. It is the
// rendering engine behind cmd/mp4study and the study service.
func RenderExperiment(ctx context.Context, pool *farm.Pool, e ExperimentSpec, frames int) (string, error) {
	if err := e.Validate(); err != nil {
		return "", err
	}
	switch {
	case e.Table != 0:
		return renderTable(ctx, pool, e.Table, frames)
	case e.Figure != 0:
		return renderFigure(ctx, pool, e.Figure, frames)
	default:
		return renderSweep(ctx, pool, e, frames)
	}
}

// PaperExperiments lists every table and figure of the paper in paper
// order: the list mp4study -all runs.
func PaperExperiments() []ExperimentSpec {
	return []ExperimentSpec{
		{Table: 1}, {Table: 2}, {Table: 3}, {Table: 4}, {Table: 5}, {Table: 6}, {Table: 7},
		{Table: 8}, {Figure: 2}, {Figure: 3}, {Figure: 4},
	}
}

// paperRuns returns the paper-machine runs e reads: none for Table 1
// and the sweeps.
func (e ExperimentSpec) paperRuns(frames int) []paperRun {
	switch {
	case e.Table == 8:
		return table8Runs(frames)
	case e.Table != 0:
		if spec, err := TableSpecByNum(e.Table); err == nil {
			return tableRuns(spec, frames)
		}
	case e.Figure == 2:
		return figure2Runs(frames, Figure2Sizes)
	case e.Figure == 3, e.Figure == 4:
		return objectSweepRuns(frames)
	}
	return nil
}

// RunExperiments runs exps in the context's study and hands each output
// to emit, in list order; cmd/mp4study and the study service run every
// experiment list through it. It first measures every paper-machine run
// the list's tables and figures read in one farm batch on p
// (measureRuns: one job per workload, the largest first). Then render
// renders the experiments one at a time in list
// order, each with its own fan-out on p; the paper's tables and figures
// only read the study's measurements. Once the last experiment that
// replays the study's capture (ReplaysCapture) has rendered, the
// study's captures are released.
//
// An error names the experiment it is charged to: a failed run is
// charged to the first listed experiment that reads it, and a cancelled
// ctx reads "cancelled during <label>".
func RunExperiments(ctx context.Context, p *farm.Pool, exps []ExperimentSpec, frames int,
	render func(ctx context.Context, i int, e ExperimentSpec) (string, error),
	emit func(i int, out string)) error {
	fail := func(i int, err error) error {
		if ctx.Err() != nil {
			return fmt.Errorf("cancelled during %s", exps[i].Label())
		}
		return fmt.Errorf("%s: %w", exps[i].Label(), err)
	}
	var runs []paperRun
	var readers []int // readers[k]: the experiment that listed runs[k]
	lastSweep := -1
	for i, e := range exps {
		for _, r := range e.paperRuns(frames) {
			runs = append(runs, r)
			readers = append(readers, i)
		}
		if e.ReplaysCapture() {
			lastSweep = i
		}
	}
	if len(runs) > 0 {
		if _, k, err := measureRuns(ctx, p, runs); err != nil {
			return fail(readers[k], err)
		}
	}
	for i, e := range exps {
		out, err := render(ctx, i, e)
		if err != nil {
			return fail(i, err)
		}
		if i == lastSweep {
			StudyFrom(ctx).ReleaseCaptures()
		}
		emit(i, out)
	}
	return nil
}

func renderTable(ctx context.Context, pool *farm.Pool, n, frames int) (string, error) {
	switch n {
	case 1:
		return Table1() + "\n", nil
	case 8:
		tab, err := Table8Pool(ctx, pool, frames)
		if err != nil {
			return "", err
		}
		return tab.String() + "\n", nil
	default:
		spec, err := TableSpecByNum(n)
		if err != nil {
			return "", err
		}
		tab, _, err := RunTablePool(ctx, pool, spec, frames)
		if err != nil {
			return "", err
		}
		return tab.String() + "\n", nil
	}
}

func renderFigure(ctx context.Context, pool *farm.Pool, n, frames int) (string, error) {
	var sb strings.Builder
	switch n {
	case 2:
		series, err := Figure2Pool(ctx, pool, frames)
		if err != nil {
			return "", err
		}
		writeSeries(&sb, series)
		return sb.String(), nil
	case 3, 4:
		points, err := RunObjectSweepPool(ctx, pool, frames)
		if err != nil {
			return "", err
		}
		series := Figure3Series(points)
		if n == 4 {
			series = Figure4Series(points)
		}
		writeSeries(&sb, series)
		return sb.String(), nil
	default:
		return "", fmt.Errorf("no figure %d (the paper's data figures are 2-4)", n)
	}
}

func writeSeries(sb *strings.Builder, series []perf.Series) {
	for _, s := range series {
		s.Write(sb)
		sb.WriteString("\n")
	}
}

// renderSweep runs the extension experiments: the paper's future-work
// processor/memory ratio study, the cache-geometry sweep and the
// design-choice ablations.
func renderSweep(ctx context.Context, pool *farm.Pool, e ExperimentSpec, frames int) (string, error) {
	wl := Workload{W: 352, H: 288, Frames: frames}
	switch e.Sweep {
	case "geometry", "policy":
		// The geometry and policy sweeps are replay experiments by
		// nature: their whole point is simulating every configuration
		// (every replacement policy) from one capture.
		l1s, l2Sizes, err := e.SweepAxes()
		if err != nil {
			return "", err
		}
		points, err := RunGeometrySweepPool(ctx, pool, wl, l1s, l2Sizes)
		if err != nil {
			return "", err
		}
		return GeometrySweepReport(SweepTitle(e.Sweep, true), points), nil
	case "ratio":
		points, err := RunRatioSweepPool(ctx, pool, wl, nil)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		writeSeries(&sb, RatioSweepSeries(points))
		if c := MemoryBoundCrossover(points); c > 0 {
			fmt.Fprintf(&sb, "decode becomes memory bound (>=50%% DRAM stall) at %gx the baseline DRAM latency\n", c)
		} else {
			sb.WriteString("decode never becomes memory bound within the sweep\n")
		}
		return sb.String(), nil
	case "search":
		res, err := RunSearchAblationPool(ctx, pool, wl)
		if err != nil {
			return "", err
		}
		return FormatAblation("motion search ablation (encode, R12K 1MB)", res), nil
	case "prefetch":
		res, err := RunPrefetchAblationPool(ctx, pool, wl, nil)
		if err != nil {
			return "", err
		}
		return FormatAblation("prefetch cadence ablation (encode, R12K 1MB)", res), nil
	case "staging":
		res, err := RunStagingAblationPool(ctx, pool, wl)
		if err != nil {
			return "", err
		}
		return FormatAblation("per-VOP staging ablation (encode, R12K 1MB)", res), nil
	case "coloring":
		wl.Objects = 2
		res, err := RunColoringAblationPool(ctx, pool, wl)
		if err != nil {
			return "", err
		}
		return FormatAblation("page coloring ablation (encode, R12K 1MB)", res), nil
	default:
		return "", fmt.Errorf("unknown sweep %q", e.Sweep)
	}
}
