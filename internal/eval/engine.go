package eval

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distcoord/internal/simnet"
)

// This file implements the parallel experiment engine. A figure is
// decomposed into a dependency-aware grid of jobs — one training job per
// data point that needs a DRL policy, then one evaluation cell per
// (point, algorithm, seed) — and the grid executes on a bounded worker
// pool. Results are stored into pre-allocated slots keyed by their grid
// position and aggregated in canonical order after the pool drains, so
// the rendered output is byte-identical for any worker count, including
// one. Every cell's randomness comes from its own seeded sources
// (Scenario.Instantiate plus the coordinator factory's seed); no cell
// shares a rand.Rand with another.

// CellKey identifies one unit of grid work: a training job, one
// (figure, x, algorithm, seed) evaluation cell, or an auxiliary row
// computation (Table I).
type CellKey struct {
	// Figure is the figure/table the cell belongs to ("6b", "8a",
	// "table1", "point", "eval").
	Figure string `json:"figure"`
	// X is the x-position label within the figure (ingress count,
	// deadline, topology name).
	X string `json:"x,omitempty"`
	// Algo is the algorithm label of an evaluation cell.
	Algo string `json:"algo,omitempty"`
	// Seed is the evaluation seed of an evaluation cell.
	Seed int64 `json:"seed"`
	// Kind discriminates the cell: "train", "eval", or "row".
	Kind string `json:"kind"`
}

// label renders the key for progress lines.
func (k CellKey) label() string {
	switch k.Kind {
	case "train":
		return fmt.Sprintf("train %s x=%s", k.Figure, k.X)
	case "row":
		return fmt.Sprintf("row %s %s", k.Figure, k.X)
	default:
		return fmt.Sprintf("%s x=%s %s seed=%d", k.Figure, k.X, k.Algo, k.Seed)
	}
}

// GridRecord is one completed grid cell, the schema of the -grid-log
// JSONL output. Succ/Delay are meaningful for eval cells, Score for
// train cells. Records are emitted in completion order, which depends
// on the worker count; the deterministic artifact is the aggregated
// figure, not the log order.
type GridRecord struct {
	CellKey
	// Status is "ok", "error", or "skipped" (a dependency failed).
	Status string  `json:"status"`
	Error  string  `json:"error,omitempty"`
	WallMS float64 `json:"wall_ms"`
	// Succ and Delay are the cell's success ratio and average
	// end-to-end delay (eval cells; Delay is 0 when no flow succeeded).
	Succ  float64 `json:"succ"`
	Delay float64 `json:"delay"`
	// Succeeded is the cell's successful-flow count (eval cells). It is
	// recorded so stored grid logs can be re-aggregated faithfully: a
	// seed with zero successful flows contributes no delay sample, and
	// that distinction must survive the round trip through JSONL (see
	// AggregateRecords and the controller's recalc endpoint).
	Succeeded int `json:"succeeded,omitempty"`
	// Score is the best training seed's final score (train cells).
	Score float64 `json:"score"`
	// Done/Total is grid progress at emission time.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// job states.
const (
	jobPending = iota
	jobDone
	jobFailed
	jobSkipped
)

// gridJob is one schedulable unit. run stores its result into the
// owning handle's slot; the result fields here only feed the grid log.
type gridJob struct {
	key   CellKey
	index int // submission order; ties in error reporting break on it
	run   func(j *gridJob) error

	deps       []*gridJob
	dependents []*gridJob
	remaining  int
	depFailed  bool
	state      int
	err        error
	wall       time.Duration

	succ, delay, score float64
	succeeded          int
}

// ErrCanceled is the error of a grid aborted by Engine.Cancel: the
// canceled cells (and their skip cascade) carry it, and Run returns it
// when no earlier-registered job failed for a real reason. Match with
// errors.Is.
var ErrCanceled = errors.New("eval: grid canceled")

// Engine executes an experiment grid. Build one per figure with
// NewEngine, register jobs with Train/Eval/Do, then call Run once;
// handles become readable after Run returns.
type Engine struct {
	opts Options
	jobs []*gridJob
	ran  bool

	canceled atomic.Bool
}

// NewEngine returns an empty engine. The relevant Options fields are
// EvalSeeds (cells per Eval call), Jobs (worker pool bound, 0 =
// runtime.NumCPU()), MonitorInterval, Logf, OnCell, and Registry; opts
// is used as given (figures apply their defaults before constructing
// the engine).
func NewEngine(opts Options) *Engine {
	return &Engine{opts: opts}
}

func (e *Engine) add(key CellKey, deps []*gridJob, run func(j *gridJob) error) *gridJob {
	j := &gridJob{key: key, index: len(e.jobs), run: run, deps: deps}
	j.remaining = len(deps)
	for _, d := range deps {
		d.dependents = append(d.dependents, j)
	}
	e.jobs = append(e.jobs, j)
	return j
}

// PolicyJob is the handle of a registered training job. Its policy is
// available after Engine.Run (or inside cells that depend on it).
type PolicyJob struct {
	key    CellKey
	job    *gridJob
	policy *TrainedPolicy
}

// Train registers a DRL training job for one figure point.
func (e *Engine) Train(figure, x string, s Scenario, budget TrainBudget) *PolicyJob {
	pj := &PolicyJob{key: CellKey{Figure: figure, X: x, Kind: "train"}}
	pj.job = e.add(pj.key, nil, func(j *gridJob) error {
		p, err := TrainDRL(s, budget)
		if err != nil {
			return err
		}
		pj.policy = p
		j.score = p.Stats.BestScore
		return nil
	})
	return pj
}

// Policy returns the trained policy (nil before Run or if training
// failed).
func (p *PolicyJob) Policy() *TrainedPolicy { return p.policy }

// Factory returns a coordinator factory that resolves the trained
// policy at call time. Evaluation cells using it must be registered
// with this PolicyJob as their dependency so the policy exists when the
// cell runs.
func (p *PolicyJob) Factory() CoordinatorFactory {
	return func(inst *Instance, seed int64) (simnet.Coordinator, error) {
		if p.policy == nil {
			return nil, fmt.Errorf("eval: policy %s not trained", p.key.label())
		}
		return p.policy.Factory()(inst, seed)
	}
}

// EvalJob is the handle of one (figure, x, algorithm) group of
// evaluation cells: one cell per seed.
type EvalJob struct {
	key   CellKey
	cells []evalCell
}

type evalCell struct {
	job *gridJob
	res cellResult
}

// Algo returns the algorithm label the job evaluates.
func (ev *EvalJob) Algo() string { return ev.key.Algo }

// Eval registers EvalSeeds evaluation cells for one algorithm at one
// figure point, seeded baseSeed..baseSeed+EvalSeeds-1. after, when
// non-nil, is the training job the cells depend on (pass the PolicyJob
// whose Factory feeds mk; nil for baselines). Cells run with the
// engine-wide Options.Run observers.
func (e *Engine) Eval(figure, x, algo string, s Scenario, mk CoordinatorFactory, after *PolicyJob, baseSeed int64) *EvalJob {
	return e.EvalWith(figure, x, algo, s, mk, after, baseSeed, e.opts.Run)
}

// EvalWith is Eval with per-registration run options: the controller
// sweeps MaxBatch per point, so cells of the same grid can
// run under different execution modes.
func (e *Engine) EvalWith(figure, x, algo string, s Scenario, mk CoordinatorFactory, after *PolicyJob, baseSeed int64, ro RunOptions) *EvalJob {
	ev := &EvalJob{key: CellKey{Figure: figure, X: x, Algo: algo, Kind: "eval"}}
	var deps []*gridJob
	if after != nil {
		deps = []*gridJob{after.job}
	}
	ev.cells = make([]evalCell, e.opts.EvalSeeds)
	for i := range ev.cells {
		seed := baseSeed + int64(i)
		slot := &ev.cells[i]
		key := ev.key
		key.Seed = seed
		slot.job = e.add(key, deps, func(j *gridJob) error {
			res, err := runCellWith(s, mk, seed, ro)
			if err != nil {
				if algo != "" {
					return fmt.Errorf("%s: %w", algo, err)
				}
				return err
			}
			slot.res = res
			j.succ, j.delay, j.succeeded = res.Succ, res.Delay, res.Succeeded
			return nil
		})
	}
	return ev
}

// Outcome aggregates the job's cells in seed order; call after
// Engine.Run succeeded.
func (ev *EvalJob) Outcome() Outcome {
	cells := make([]cellResult, len(ev.cells))
	for i := range ev.cells {
		cells[i] = ev.cells[i].res
	}
	return aggregate(cells)
}

// Do registers an arbitrary dependency-free computation as a grid cell
// (Table I rows).
func (e *Engine) Do(figure, x string, fn func() error) {
	e.add(CellKey{Figure: figure, X: x, Kind: "row"}, nil, func(*gridJob) error { return fn() })
}

// Cells returns the number of registered grid cells (training jobs,
// evaluation cells, and rows) — the controller records it in the run
// manifest before Run starts.
func (e *Engine) Cells() int { return len(e.jobs) }

// Cancel aborts the grid: cells not yet started fail with ErrCanceled
// (cascading skips to their dependents) while cells already running
// finish normally. Safe to call from any goroutine, before or during
// Run, and more than once.
func (e *Engine) Cancel() { e.canceled.Store(true) }

// Run executes the grid on the bounded worker pool and blocks until
// every job completed or was skipped. On failure it returns the error
// of the earliest-registered failed job; jobs depending on a failed job
// are skipped, and no new jobs start once a failure is observed. Run
// must be called exactly once.
func (e *Engine) Run() error {
	if e.ran {
		return fmt.Errorf("eval: Engine.Run called twice")
	}
	e.ran = true
	total := len(e.jobs)
	if total == 0 {
		return nil
	}
	workers := e.opts.Jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > total {
		workers = total
	}

	if r := e.opts.Registry; r != nil {
		r.Gauge("grid.cells.total").Set(float64(total))
		r.Gauge("grid.cells.done").Set(0)
		r.Gauge("grid.cells.failed").Set(0)
		r.Gauge("grid.cells.skipped").Set(0)
	}

	ready := make(chan *gridJob, total)
	finished := make(chan *gridJob, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ready {
				if e.canceled.Load() {
					j.err = ErrCanceled
					finished <- j
					continue
				}
				start := time.Now()
				err := j.run(j)
				j.wall = time.Since(start)
				j.err = err
				finished <- j
			}
		}()
	}

	start := time.Now()
	completed := 0
	aborted := false
	var counts [4]int // indexed by job state: done, failed, skipped
	var firstFailed *gridJob

	// account finalizes one job (done, failed, or skipped): progress
	// metrics, the grid log record, and readiness of its dependents.
	// It runs only on this goroutine, so engine state needs no lock.
	var account func(j *gridJob)
	account = func(j *gridJob) {
		completed++
		switch {
		case j.state == jobSkipped:
			// already marked by the dependency walk below
		case j.err != nil:
			j.state = jobFailed
			aborted = true
			if firstFailed == nil || j.index < firstFailed.index {
				firstFailed = j
			}
		default:
			j.state = jobDone
		}
		counts[j.state]++
		e.emit(j, completed, total, counts, start)
		for _, d := range j.dependents {
			d.remaining--
			if j.state != jobDone {
				d.depFailed = true
			}
			if d.remaining == 0 {
				if d.depFailed || aborted {
					d.state = jobSkipped
					account(d)
				} else {
					ready <- d
				}
			}
		}
	}

	for _, j := range e.jobs {
		if j.remaining == 0 {
			ready <- j
		}
	}
	for completed < total {
		account(<-finished)
	}
	close(ready)
	wg.Wait()

	if firstFailed != nil {
		return firstFailed.err
	}
	if aborted { // cannot happen without a failed job, but stay safe
		return fmt.Errorf("eval: grid aborted")
	}
	return nil
}

// emit publishes one accounted cell: telemetry gauges (cells done/
// failed/skipped, cells/sec, ETA), a progress line, and the optional
// grid-log record. The grid.cells.* gauges partition the grid — after
// the pool drains, done + failed + skipped == total even when a failure
// triggered the skip cascade, so a progress reader (the controller's
// /runs/{id} endpoint) can always tell a finished grid from a stalled
// one. grid.cells.done counts only cells that completed ok; the
// GridRecord.Done field keeps its historical meaning of "cells
// accounted so far" (any status).
func (e *Engine) emit(j *gridJob, completed, total int, counts [4]int, start time.Time) {
	elapsed := time.Since(start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(completed) / elapsed
	}
	eta := 0.0
	if rate > 0 {
		eta = float64(total-completed) / rate
	}
	if r := e.opts.Registry; r != nil {
		r.Gauge("grid.cells.done").Set(float64(counts[jobDone]))
		r.Gauge("grid.cells.failed").Set(float64(counts[jobFailed]))
		r.Gauge("grid.cells.skipped").Set(float64(counts[jobSkipped]))
		r.Gauge("grid.cells_per_sec").Set(rate)
		r.Gauge("grid.eta_seconds").Set(eta)
	}
	status := "ok"
	switch j.state {
	case jobFailed:
		status = "error"
	case jobSkipped:
		status = "skipped"
	}
	e.opts.logf("grid: [%s] %s in %v (%d/%d cells, %.1f cells/s, ETA %.0fs)",
		j.key.label(), status, j.wall.Round(time.Millisecond), completed, total, rate, eta)
	if e.opts.OnCell != nil {
		rec := GridRecord{
			CellKey:   j.key,
			Status:    status,
			WallMS:    float64(j.wall) / float64(time.Millisecond),
			Succ:      j.succ,
			Delay:     j.delay,
			Succeeded: j.succeeded,
			Score:     j.score,
			Done:      completed,
			Total:     total,
		}
		if j.err != nil {
			rec.Error = j.err.Error()
		}
		e.opts.OnCell(rec)
	}
}

// AggregateRecords folds stored eval-cell grid records (any order; only
// Kind "eval" / Status "ok" records contribute) into an Outcome, the
// same mean±std aggregation EvalJob.Outcome performs in memory. Records
// are ordered by seed first, so the result does not depend on log
// emission order — this is the recalc path: a figure re-rendered from a
// stored grid log is byte-identical to the original render.
func AggregateRecords(recs []GridRecord) Outcome {
	eligible := make([]GridRecord, 0, len(recs))
	for _, r := range recs {
		if r.Kind == "eval" && r.Status == "ok" {
			eligible = append(eligible, r)
		}
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i].Seed < eligible[j].Seed })
	cells := make([]cellResult, len(eligible))
	for i, r := range eligible {
		cells[i] = cellResult{Succ: r.Succ, Delay: r.Delay, Succeeded: r.Succeeded}
	}
	return aggregate(cells)
}

// evalAlgos registers the standard per-point algorithm set: DistDRL
// (when drl is non-nil, depending on dep) followed by the baselines.
// The returned jobs are in display order.
func (e *Engine) evalAlgos(figure, x string, s Scenario, drl CoordinatorFactory, dep *PolicyJob) []*EvalJob {
	var out []*EvalJob
	if drl != nil {
		out = append(out, e.Eval(figure, x, AlgoDistDRL, s, drl, dep, 0))
	}
	for _, b := range baselineFactories(e.opts.MonitorInterval) {
		out = append(out, e.Eval(figure, x, b.name, s, b.mk, nil, 0))
	}
	return out
}

// collectPoint aggregates one point's eval jobs into label -> outcome
// and logs the canonical per-algorithm summary lines.
func collectPoint(evals []*EvalJob, opts Options) map[string]Outcome {
	out := make(map[string]Outcome, len(evals))
	for _, ev := range evals {
		o := ev.Outcome()
		out[ev.Algo()] = o
		opts.logf("  %-10s succ=%s delay=%s", ev.Algo(), o.Succ, o.Delay.Versus(o.Succ.N))
	}
	return out
}
