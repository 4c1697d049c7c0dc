package eval

import (
	"fmt"
	"sort"
	"strings"

	"distcoord/internal/baselines"
	"distcoord/internal/graph"
	"distcoord/internal/simnet"
	"distcoord/internal/telemetry"
	"distcoord/internal/traffic"
)

// Options scales the experiment suite. Defaults run on commodity CPUs;
// the paper's full settings (30 eval seeds, horizon 20000, 2x256
// networks) are selected in cmd/experiments via flags.
type Options struct {
	// EvalSeeds is the number of evaluation seeds per data point
	// (paper: 30).
	EvalSeeds int
	// Horizon is the evaluation horizon T (paper: 20000).
	Horizon float64
	// Budget scales DRL training.
	Budget TrainBudget
	// MonitorInterval is the central coordinator's rule update period.
	MonitorInterval float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
	// Jobs bounds the experiment engine's worker pool — how many
	// training jobs and evaluation cells run concurrently; 0 selects
	// runtime.NumCPU(). Figure output is byte-identical for any value.
	Jobs int
	// OnCell, when non-nil, receives one GridRecord per completed grid
	// cell (the -grid-log JSONL feed). Called from the engine's
	// scheduler goroutine, never concurrently.
	OnCell func(GridRecord)
	// Registry, when non-nil, receives engine progress metrics:
	// grid.cells.total/done/failed/skipped, grid.cells_per_sec, and
	// grid.eta_seconds gauges. The done/failed/skipped gauges partition
	// the total once the grid drains, even under fail-fast abort.
	Registry *telemetry.Registry
	// Run attaches execution options (flow tracer, MaxBatch) to
	// every evaluation cell registered via Eval. Figures leave it zero,
	// pinning published results to the plain sequential path; the
	// controller sets it per sweep point via EvalWith.
	Run RunOptions
}

// DefaultOptions returns commodity-hardware settings.
func DefaultOptions() Options {
	return Options{
		EvalSeeds:       3,
		Horizon:         2000,
		Budget:          DefaultTrainBudget(),
		MonitorInterval: 100,
	}
}

func (o Options) withDefaults() Options {
	if o.EvalSeeds <= 0 {
		o.EvalSeeds = 3
	}
	if o.Horizon <= 0 {
		o.Horizon = 2000
	}
	if o.Budget.Episodes == 0 {
		o.Budget = DefaultTrainBudget()
	}
	if o.MonitorInterval <= 0 {
		o.MonitorInterval = 100
	}
	return o
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Point is one x-position of a figure: the outcome of one algorithm on
// one scenario.
type Point struct {
	X       string
	Outcome Outcome
}

// Series is one algorithm's curve.
type Series struct {
	Algo   string
	Points []Point
}

// point returns the series point at x-position x, if any.
func (s Series) point(x string) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

// Figure is a regenerated paper figure: one series per algorithm.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
}

// xPositions returns the union of x-positions across every series, in
// first-appearance order (scanning series in display order). Rendering
// iterates this union and matches cells by Point.X, so a series missing
// one x-position shows "-" there instead of silently shifting its later
// points onto the wrong rows.
func (f Figure) xPositions() []string {
	var xs []string
	seen := map[string]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	return xs
}

// AlgoDistDRL etc. are the algorithm labels used across all figures.
const (
	AlgoDistDRL = "DistDRL"
	AlgoCentral = "Central"
	AlgoGCASP   = "GCASP"
	AlgoSP      = "SP"
)

// baselineFactories returns the non-DRL comparison algorithms in display
// order. Every factory constructs a fresh coordinator per evaluation
// cell, so no state leaks between seeds and cells can run concurrently.
func baselineFactories(monitorInterval float64) []struct {
	name string
	mk   CoordinatorFactory
} {
	return []struct {
		name string
		mk   CoordinatorFactory
	}{
		{AlgoCentral, Fresh(func() simnet.Coordinator { return baselines.NewCentral(monitorInterval) })},
		{AlgoGCASP, Fresh(func() simnet.Coordinator { return baselines.GCASP{} })},
		{AlgoSP, Fresh(func() simnet.Coordinator { return baselines.SP{} })},
	}
}

// evalPoint evaluates every algorithm on one scenario and returns
// label -> outcome. The per-algorithm cells run on the engine's worker
// pool.
func evalPoint(s Scenario, drl CoordinatorFactory, opts Options) (map[string]Outcome, error) {
	e := NewEngine(opts)
	evals := e.evalAlgos("point", s.Topology, s, drl, nil)
	if err := e.Run(); err != nil {
		return nil, err
	}
	return collectPoint(evals, opts), nil
}

// TrafficPatterns returns the four arrival patterns of Fig. 6 keyed by
// sub-figure letter.
func TrafficPatterns() map[string]traffic.Spec {
	return map[string]traffic.Spec{
		"a": traffic.FixedSpec(10),
		"b": traffic.PoissonSpec(10),
		"c": traffic.MMPPSpec(12, 8, 100, 0.05),
		"d": traffic.SyntheticTraceSpec(10, 2, 4),
	}
}

// Fig6 reproduces one sub-figure of Fig. 6: success ratio over an
// increasing number of ingress nodes (1-5) for one arrival pattern
// ("a" fixed, "b" Poisson, "c" MMPP, "d" trace-driven). The DRL agent is
// retrained for every load level, as in the paper. Training jobs and
// evaluation cells execute on the experiment engine's worker pool.
func Fig6(variant string, opts Options) (Figure, error) {
	opts = opts.withDefaults()
	spec, ok := TrafficPatterns()[variant]
	if !ok {
		return Figure{}, fmt.Errorf("eval: unknown Fig 6 variant %q", variant)
	}
	fig := Figure{
		ID:     "6" + variant,
		Title:  fmt.Sprintf("Successful flows vs. load, %s arrival", spec.Label),
		XLabel: "ingress nodes",
	}
	e := NewEngine(opts)
	type point struct {
		x     string
		evals []*EvalJob
	}
	var points []point
	for k := 1; k <= 5; k++ {
		s := Base()
		s.Traffic = spec
		s.NumIngresses = k
		s.Horizon = opts.Horizon
		x := fmt.Sprint(k)
		pol := e.Train(fig.ID, x, s, opts.Budget)
		points = append(points, point{x, e.evalAlgos(fig.ID, x, s, pol.Factory(), pol)})
	}
	if err := e.Run(); err != nil {
		return Figure{}, err
	}
	series := map[string]*Series{}
	for _, p := range points {
		opts.logf("Fig %s: %s ingress nodes:", fig.ID, p.x)
		appendPoint(series, p.x, collectPoint(p.evals, opts))
	}
	fig.Series = orderedSeries(series)
	return fig, nil
}

// Fig7 reproduces Fig. 7: success ratio and average end-to-end delay for
// deadlines τ ∈ {20, 30, 40, 50} with two ingresses and Poisson traffic.
func Fig7(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "7",
		Title:  "Successful flows and end-to-end delay vs. flow deadline",
		XLabel: "deadline",
	}
	e := NewEngine(opts)
	type point struct {
		x     string
		evals []*EvalJob
	}
	var points []point
	for _, deadline := range []float64{20, 30, 40, 50} {
		s := Base()
		s.Deadline = deadline
		s.Horizon = opts.Horizon
		x := fmt.Sprintf("%.0f", deadline)
		pol := e.Train(fig.ID, x, s, opts.Budget)
		points = append(points, point{x, e.evalAlgos(fig.ID, x, s, pol.Factory(), pol)})
	}
	if err := e.Run(); err != nil {
		return Figure{}, err
	}
	series := map[string]*Series{}
	for _, p := range points {
		opts.logf("Fig 7: deadline %s:", p.x)
		appendPoint(series, p.x, collectPoint(p.evals, opts))
	}
	fig.Series = orderedSeries(series)
	return fig, nil
}

// Fig8a reproduces Fig. 8a: agents trained on fixed, Poisson, and MMPP
// traffic are evaluated without retraining on trace-driven traffic
// ("Gen."), next to an agent retrained on the traces ("Retr.") and the
// baselines. All four training jobs are independent and run
// concurrently on the engine.
func Fig8a(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	target := Base()
	target.Traffic = TrafficPatterns()["d"]
	target.Horizon = opts.Horizon

	fig := Figure{
		ID:     "8a",
		Title:  "Generalization to unseen trace-driven traffic",
		XLabel: "agent",
	}
	e := NewEngine(opts)
	var evals []*EvalJob
	for _, src := range []string{"a", "b", "c"} {
		train := Base()
		train.Traffic = TrafficPatterns()[src]
		train.Horizon = opts.Horizon
		label := "DRL Gen(" + train.Traffic.Label + ")"
		pol := e.Train(fig.ID, label, train, opts.Budget)
		evals = append(evals, e.Eval(fig.ID, "trace", label, target, pol.Factory(), pol, 0))
	}
	retr := e.Train(fig.ID, "DRL Retr.", target, opts.Budget)
	evals = append(evals, e.Eval(fig.ID, "trace", "DRL Retr.", target, retr.Factory(), retr, 0))
	for _, b := range baselineFactories(opts.MonitorInterval) {
		evals = append(evals, e.Eval(fig.ID, "trace", b.name, target, b.mk, nil, 0))
	}
	if err := e.Run(); err != nil {
		return Figure{}, err
	}
	for _, ev := range evals {
		o := ev.Outcome()
		opts.logf("  %-22s succ=%s delay=%s", ev.Algo(), o.Succ, o.Delay.Versus(o.Succ.N))
		fig.Series = append(fig.Series, Series{
			Algo:   ev.Algo(),
			Points: []Point{{X: "trace", Outcome: o}},
		})
	}
	return fig, nil
}

// Fig8b reproduces Fig. 8b: an agent trained with two ingresses is
// evaluated without retraining on 1-5 ingress nodes ("Gen."), against
// retrained agents ("Retr.") and the baselines. The generalizing
// agent's cells at every load level depend on the single shared
// training job; retraining jobs are per level.
func Fig8b(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	train := Base()
	train.Horizon = opts.Horizon

	fig := Figure{
		ID:     "8b",
		Title:  "Generalization to unseen network load",
		XLabel: "ingress nodes",
	}
	e := NewEngine(opts)
	genPol := e.Train(fig.ID, "gen", train, opts.Budget)
	type point struct {
		x     string
		evals []*EvalJob
	}
	var points []point
	for k := 1; k <= 5; k++ {
		s := Base()
		s.NumIngresses = k
		s.Horizon = opts.Horizon
		x := fmt.Sprint(k)
		retrPol := e.Train(fig.ID, x, s, opts.Budget)
		evals := []*EvalJob{
			e.Eval(fig.ID, x, "DRL Gen.", s, genPol.Factory(), genPol, 0),
			e.Eval(fig.ID, x, "DRL Retr.", s, retrPol.Factory(), retrPol, 0),
		}
		for _, b := range baselineFactories(opts.MonitorInterval) {
			evals = append(evals, e.Eval(fig.ID, x, b.name, s, b.mk, nil, 0))
		}
		points = append(points, point{x, evals})
	}
	if err := e.Run(); err != nil {
		return Figure{}, err
	}
	series := map[string]*Series{}
	for _, p := range points {
		opts.logf("Fig 8b: load %s:", p.x)
		appendPoint(series, p.x, collectPoint(p.evals, opts))
	}
	fig.Series = orderedSeriesWith(series, []string{"DRL Gen.", "DRL Retr.", AlgoCentral, AlgoGCASP, AlgoSP})
	return fig, nil
}

// Fig9a reproduces Fig. 9a: success ratio on the four real-world
// topologies (two ingresses v1, v2; egress v8; Poisson traffic), with the
// DRL agent trained per topology.
func Fig9a(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "9a",
		Title:  "Successful flows on large real-world topologies",
		XLabel: "network",
	}
	e := NewEngine(opts)
	type point struct {
		x     string
		evals []*EvalJob
	}
	var points []point
	for _, g := range graph.Topologies() {
		s := Base()
		s.Topology = g.Name()
		s.Horizon = opts.Horizon
		pol := e.Train(fig.ID, g.Name(), s, opts.Budget)
		points = append(points, point{g.Name(), e.evalAlgos(fig.ID, g.Name(), s, pol.Factory(), pol)})
	}
	if err := e.Run(); err != nil {
		return Figure{}, err
	}
	series := map[string]*Series{}
	for _, p := range points {
		opts.logf("Fig 9a: %s:", p.x)
		appendPoint(series, p.x, collectPoint(p.evals, opts))
	}
	fig.Series = orderedSeries(series)
	return fig, nil
}

// appendPoint adds one x-position's outcomes to the series map.
func appendPoint(series map[string]*Series, x string, point map[string]Outcome) {
	for name, o := range point {
		sr := series[name]
		if sr == nil {
			sr = &Series{Algo: name}
			series[name] = sr
		}
		sr.Points = append(sr.Points, Point{X: x, Outcome: o})
	}
}

// orderedSeries returns the standard algorithm ordering.
func orderedSeries(series map[string]*Series) []Series {
	return orderedSeriesWith(series, []string{AlgoDistDRL, AlgoCentral, AlgoGCASP, AlgoSP})
}

func orderedSeriesWith(series map[string]*Series, order []string) []Series {
	var out []Series
	seen := map[string]bool{}
	for _, name := range order {
		if sr := series[name]; sr != nil {
			out = append(out, *sr)
			seen[name] = true
		}
	}
	var rest []string
	for name := range series {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		out = append(out, *series[name])
	}
	return out
}

// String renders the figure as an aligned text table: one row per
// x-position, one column per algorithm, cells "succ (delay)". Rows are
// matched by Point.X across series; a series without a point at some
// x-position shows "-" there. A delay computed from fewer seeds than
// the success summary (seeds with zero successful flows have no delay)
// is annotated with its sample count.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %-22s", s.Algo)
	}
	b.WriteString("\n")
	for _, x := range f.xPositions() {
		fmt.Fprintf(&b, "%-14s", x)
		for _, s := range f.Series {
			if p, ok := s.point(x); ok {
				o := p.Outcome
				fmt.Fprintf(&b, " | %11s %8.1fms", o.Succ, o.Delay.Mean)
				if o.Delay.N < o.Succ.N {
					fmt.Fprintf(&b, " (n=%d)", o.Delay.N)
				}
			} else {
				fmt.Fprintf(&b, " | %-22s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PointFigure evaluates every algorithm on one scenario and returns a
// single-column figure (used by cmd/experiments -exp point and the
// examples).
func PointFigure(s Scenario, policy *TrainedPolicy, opts Options) (Figure, error) {
	opts = opts.withDefaults()
	var drl CoordinatorFactory
	if policy != nil {
		drl = policy.Factory()
	}
	point, err := evalPoint(s, drl, opts)
	if err != nil {
		return Figure{}, err
	}
	series := map[string]*Series{}
	appendPoint(series, s.Topology, point)
	return Figure{
		ID:     "point",
		Title:  fmt.Sprintf("%s, %d ingresses, %s", s.Topology, len(s.Ingresses()), s.Traffic.Label),
		XLabel: "scenario",
		Series: orderedSeries(series),
	}, nil
}

// TableI renders the paper's Table I from the topology registry. The
// optional Options wire the row computations into the experiment
// engine's progress reporting (TableI() alone uses engine defaults).
func TableI(opt ...Options) string {
	var opts Options
	if len(opt) > 0 {
		opts = opt[0]
	}
	e := NewEngine(opts)
	tops := graph.Topologies()
	rows := make([]graph.TableIRow, len(tops))
	for i, g := range tops {
		i, g := i, g
		e.Do("table1", g.Name(), func() error {
			rows[i] = graph.TableIRows([]*graph.Graph{g})[0]
			return nil
		})
	}
	if err := e.Run(); err != nil {
		// Row computations cannot fail; keep the signature string-only.
		return "Table I: error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString("Table I: Real-world network topologies\n")
	fmt.Fprintf(&b, "%-15s %6s %6s %25s\n", "Network", "Nodes", "Edges", "Degree (Min/Max/Avg)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %6d %6d %15d / %2d / %.2f\n",
			r.Name, r.Nodes, r.Edges, r.MinDeg, r.MaxDeg, r.AvgDeg)
	}
	return b.String()
}

// Markdown renders the figure as a GitHub-flavored Markdown table
// (success mean±std per algorithm and x-position), for inclusion in
// EXPERIMENTS.md-style reports. Like String, rows are matched by
// Point.X across series.
func (f Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**Figure %s — %s**\n\n", f.ID, f.Title)
	fmt.Fprintf(&b, "| %s |", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s |", s.Algo)
	}
	b.WriteString("\n|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, x := range f.xPositions() {
		fmt.Fprintf(&b, "| %s |", x)
		for _, s := range f.Series {
			if p, ok := s.point(x); ok {
				fmt.Fprintf(&b, " %s |", p.Outcome.Succ)
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the figure as a flat machine-readable table: one row per
// (x, algorithm) pair with full success and delay summaries, the sweep
// matrix the controller stores next to the markdown render. Rows follow
// x-position then series display order, so the output is deterministic
// for a given figure.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "figure,%s,algo,succ_mean,succ_std,succ_n,delay_mean,delay_std,delay_n\n", csvField(f.XLabel))
	for _, x := range f.xPositions() {
		for _, s := range f.Series {
			p, ok := s.point(x)
			if !ok {
				continue
			}
			o := p.Outcome
			fmt.Fprintf(&b, "%s,%s,%s,%g,%g,%d,%g,%g,%d\n",
				csvField(f.ID), csvField(x), csvField(s.Algo),
				o.Succ.Mean, o.Succ.Std, o.Succ.N,
				o.Delay.Mean, o.Delay.Std, o.Delay.N)
		}
	}
	return b.String()
}

// csvField quotes a field when it contains a comma, quote, or newline.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
