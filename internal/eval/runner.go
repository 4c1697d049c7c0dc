package eval

import (
	"fmt"
	"math"

	"distcoord/internal/simnet"
)

// Summary is the mean and standard deviation of a metric over seeds
// (the paper reports mean ± std over 30 seeds). N records how many
// seeds the summary covers: the delay summary can cover fewer seeds
// than the success summary, because seeds with zero successful flows
// contribute no delay sample.
type Summary struct {
	Mean, Std float64
	N         int
}

// summarize computes mean and (population) standard deviation.
func summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(s.N)
	for _, x := range xs {
		s.Std += (x - s.Mean) * (x - s.Mean)
	}
	s.Std = math.Sqrt(s.Std / float64(s.N))
	return s
}

// String formats as "mean±std".
func (s Summary) String() string { return fmt.Sprintf("%.3f±%.3f", s.Mean, s.Std) }

// Versus renders the summary annotated with its sample count whenever
// it covers fewer than total samples — "0.500±0.100 (n=2)" — so a
// delay mean computed from a subset of the seeds is never mistaken for
// a full-seed summary.
func (s Summary) Versus(total int) string {
	if s.N < total {
		return fmt.Sprintf("%s (n=%d)", s, s.N)
	}
	return s.String()
}

// CoordinatorFactory builds a coordinator for one instantiated scenario
// (the DRL coordinator needs the instance's adapter; baselines ignore
// it). seed lets stochastic coordinators reseed reproducibly. The
// factory is called once per evaluation cell — possibly from multiple
// goroutines — and must return a coordinator not shared with any other
// cell.
type CoordinatorFactory func(inst *Instance, seed int64) (simnet.Coordinator, error)

// Fresh wraps a constructor for a scenario-independent coordinator: a
// new instance is built for every evaluation cell, so no coordinator
// state leaks across seeds and cells can run concurrently. (It replaces
// the earlier Static helper, which handed one shared instance to every
// run.)
func Fresh(mk func() simnet.Coordinator) CoordinatorFactory {
	return func(*Instance, int64) (simnet.Coordinator, error) { return mk(), nil }
}

// Outcome aggregates an algorithm's performance on a scenario.
type Outcome struct {
	Succ  Summary // success ratio o_f (Eq. 1)
	Delay Summary // avg end-to-end delay of successful flows
}

// cellResult is the contribution of one evaluation cell (one seed of
// one algorithm on one scenario) to an Outcome.
type cellResult struct {
	Succ      float64
	Delay     float64
	Succeeded int
}

// runCell runs one evaluation cell: instantiate the scenario for the
// seed, build a fresh coordinator, simulate.
func runCell(s Scenario, mk CoordinatorFactory, seed int64) (cellResult, error) {
	return runCellWith(s, mk, seed, RunOptions{})
}

// runCellWith is runCell with run options attached — the controller
// evaluates sweep cells under batched execution and with a
// per-run flow tracer.
func runCellWith(s Scenario, mk CoordinatorFactory, seed int64, ro RunOptions) (cellResult, error) {
	inst, err := s.Instantiate(seed)
	if err != nil {
		return cellResult{}, err
	}
	c, err := mk(inst, seed)
	if err != nil {
		return cellResult{}, err
	}
	m, err := inst.RunWith(c, ro)
	if err != nil {
		return cellResult{}, fmt.Errorf("eval: seed %d with %s: %w", seed, c.Name(), err)
	}
	return cellResult{Succ: m.SuccessRatio(), Delay: m.AvgDelay(), Succeeded: m.Succeeded}, nil
}

// aggregate folds cell results (in seed order) into an Outcome. Seeds
// with zero successful flows contribute no delay sample; Summary.N
// keeps the counts honest on both summaries.
func aggregate(cells []cellResult) Outcome {
	var succ, delay []float64
	for _, c := range cells {
		succ = append(succ, c.Succ)
		if c.Succeeded > 0 {
			delay = append(delay, c.Delay)
		}
	}
	return Outcome{Succ: summarize(succ), Delay: summarize(delay)}
}

// Evaluate runs the scenario for seeds 0..n-1 (offset by baseSeed) and
// summarizes success ratio and average delay. Cells run serially; use
// EvaluateJobs or an Engine grid for the pooled version.
func Evaluate(s Scenario, mk CoordinatorFactory, seeds int, baseSeed int64) (Outcome, error) {
	return EvaluateJobs(s, mk, seeds, baseSeed, 1)
}

// EvaluateJobs is Evaluate on a bounded worker pool of the given size
// (jobs <= 0 selects runtime.NumCPU()). The outcome is identical for
// any pool size: cells are seeded independently and aggregated in seed
// order.
func EvaluateJobs(s Scenario, mk CoordinatorFactory, seeds int, baseSeed int64, jobs int) (Outcome, error) {
	e := NewEngine(Options{EvalSeeds: seeds, Jobs: jobs})
	ev := e.Eval("eval", "", "", s, mk, nil, baseSeed)
	if err := e.Run(); err != nil {
		return Outcome{}, err
	}
	return ev.Outcome(), nil
}
