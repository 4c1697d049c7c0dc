package clicfg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"distcoord/internal/chaos"
	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/traffic"
)

// This file defines the serializable experiment specifications the
// controller service accepts over HTTP: a RunSpec describes one
// evaluation point (the JSON twin of the shared flag surface — the same
// algo/topology/pattern/faults/batch vocabulary every binary
// takes on the command line), and a SweepSpec is a cross-product of
// RunSpec variations along named axes. Both validate strictly at
// submission time, so a malformed sweep is rejected before any cell is
// scheduled.

// Algorithm names accepted by RunSpec.Algo, in canonical order. They
// mirror the -algo flag of cmd/coordsim; labels (eval.AlgoDistDRL etc.)
// are derived via AlgoLabel.
var specAlgos = []string{"drl", "central", "gcasp", "sp"}

// AlgoLabel maps a RunSpec algorithm name to its figure display label.
func AlgoLabel(algo string) string {
	switch algo {
	case "drl":
		return eval.AlgoDistDRL
	case "central":
		return eval.AlgoCentral
	case "gcasp":
		return eval.AlgoGCASP
	case "sp":
		return eval.AlgoSP
	}
	return algo
}

// PatternSpec maps an arrival-pattern name (the -pattern vocabulary:
// fixed, poisson, mmpp, trace) to its traffic.Spec; empty selects
// poisson, the base scenario's pattern.
func PatternSpec(pattern string) (traffic.Spec, error) {
	switch pattern {
	case "", "poisson":
		return traffic.PoissonSpec(10), nil
	case "fixed":
		return traffic.FixedSpec(10), nil
	case "mmpp":
		return traffic.MMPPSpec(12, 8, 100, 0.05), nil
	case "trace":
		return traffic.SyntheticTraceSpec(10, 2, 4), nil
	}
	return traffic.Spec{}, fmt.Errorf("clicfg: unknown pattern %q (want fixed, poisson, mmpp, trace)", pattern)
}

// TrainSpec overrides the DRL training budget of a RunSpec; zero fields
// keep eval.DefaultTrainBudget.
type TrainSpec struct {
	Episodes     int     `json:"episodes,omitempty"`
	Seeds        int     `json:"seeds,omitempty"`
	ParallelEnvs int     `json:"parallel_envs,omitempty"`
	Horizon      float64 `json:"horizon,omitempty"`
	Hidden       []int   `json:"hidden,omitempty"`
}

// Budget resolves the spec to a TrainBudget.
func (t TrainSpec) Budget() eval.TrainBudget {
	b := eval.DefaultTrainBudget()
	if t.Episodes > 0 {
		b.Episodes = t.Episodes
	}
	if t.Seeds > 0 {
		b.Seeds = t.Seeds
	}
	if t.ParallelEnvs > 0 {
		b.ParallelEnvs = t.ParallelEnvs
	}
	if t.Horizon > 0 {
		b.Horizon = t.Horizon
	}
	if len(t.Hidden) > 0 {
		b.Hidden = t.Hidden
	}
	return b
}

// RunSpec is one named evaluation point, serializable as JSON. Zero
// fields select the base-scenario defaults (eval.Base: Abilene, two
// ingresses, Poisson arrivals, deadline 100), matching the flag
// defaults of the CLIs.
type RunSpec struct {
	// Name labels the run; the controller defaults it to the run ID.
	Name string `json:"name,omitempty"`
	// Algo is the coordination algorithm: drl, central, gcasp, or sp.
	Algo string `json:"algo"`
	// Seeds is the number of evaluation seeds (default 3); BaseSeed
	// offsets them.
	Seeds    int   `json:"seeds,omitempty"`
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Topology names a graph from the registry (default Abilene).
	Topology string `json:"topology,omitempty"`
	// Ingresses is the ingress node count (default 2).
	Ingresses int `json:"ingresses,omitempty"`
	// Deadline is the flow deadline τ (default 100).
	Deadline float64 `json:"deadline,omitempty"`
	// Horizon is the flow-generation horizon T (default 2000 — the
	// commodity-hardware default, not the paper's 20000).
	Horizon float64 `json:"horizon,omitempty"`
	// Pattern is the arrival pattern (fixed, poisson, mmpp, trace).
	Pattern string `json:"pattern,omitempty"`
	// Faults is a chaos spec string ("node-outage:count=2,seed=7"); empty
	// or "none" runs fault-free.
	Faults string `json:"faults,omitempty"`
	// MaxBatch selects the execution mode per cell (cf. -batch); 0 or 1
	// keeps the sequential path.
	MaxBatch int `json:"max_batch,omitempty"`
	// Train overrides the DRL training budget (algo "drl" only).
	Train *TrainSpec `json:"train,omitempty"`
}

// specHorizonDefault is the default evaluation horizon for controller
// runs, matching eval.DefaultOptions.
const specHorizonDefault = 2000

// Validate rejects an inconsistent spec with an error naming the field.
func (s RunSpec) Validate() error {
	algoOK := false
	for _, a := range specAlgos {
		if s.Algo == a {
			algoOK = true
		}
	}
	if !algoOK {
		return fmt.Errorf("clicfg: spec algo %q unknown (want %s)", s.Algo, strings.Join(specAlgos, ", "))
	}
	if s.Seeds < 0 {
		return fmt.Errorf("clicfg: spec seeds must be >= 0, got %d", s.Seeds)
	}
	if s.Ingresses < 0 {
		return fmt.Errorf("clicfg: spec ingresses must be >= 0, got %d", s.Ingresses)
	}
	if s.Deadline < 0 || s.Horizon < 0 {
		return fmt.Errorf("clicfg: spec deadline/horizon must be >= 0")
	}
	if s.MaxBatch < 0 {
		return fmt.Errorf("clicfg: spec max_batch must be >= 0, got %d", s.MaxBatch)
	}
	if s.Topology != "" {
		if _, err := graph.ByName(s.Topology); err != nil {
			return fmt.Errorf("clicfg: spec topology: %w", err)
		}
	}
	if _, err := PatternSpec(s.Pattern); err != nil {
		return err
	}
	if _, err := chaos.ParseSpec(s.Faults); err != nil {
		return err
	}
	if s.Train != nil && s.Algo != "drl" {
		return fmt.Errorf("clicfg: spec train budget requires algo drl, got %q", s.Algo)
	}
	return nil
}

// EvalSeeds returns the effective evaluation seed count.
func (s RunSpec) EvalSeeds() int {
	if s.Seeds > 0 {
		return s.Seeds
	}
	return 3
}

// Scenario resolves the spec to an eval.Scenario. Call Validate first;
// Scenario repeats only the checks whose results it needs.
func (s RunSpec) Scenario() (eval.Scenario, error) {
	spec, err := PatternSpec(s.Pattern)
	if err != nil {
		return eval.Scenario{}, err
	}
	faults, err := chaos.ParseSpec(s.Faults)
	if err != nil {
		return eval.Scenario{}, err
	}
	sc := eval.Base()
	sc.Traffic = spec
	sc.Faults = faults
	if s.Topology != "" {
		sc.Topology = s.Topology
	}
	if s.Ingresses > 0 {
		sc.NumIngresses = s.Ingresses
	}
	if s.Deadline > 0 {
		sc.Deadline = s.Deadline
	}
	sc.Horizon = specHorizonDefault
	if s.Horizon > 0 {
		sc.Horizon = s.Horizon
	}
	return sc, nil
}

// RunOptions returns the per-cell execution options the spec selects.
func (s RunSpec) RunOptions() eval.RunOptions {
	return eval.RunOptions{MaxBatch: s.MaxBatch}
}

// TrainBudget resolves the training budget (DefaultTrainBudget when
// Train is nil).
func (s RunSpec) TrainBudget() eval.TrainBudget {
	if s.Train != nil {
		return s.Train.Budget()
	}
	return eval.DefaultTrainBudget()
}

// sweepParams maps axis parameter names to the setter applied per
// value. Every setter parses the string form (sweep values arrive as
// JSON strings so one grammar covers numeric and symbolic axes).
var sweepParams = map[string]func(*RunSpec, string) error{
	"seed": func(s *RunSpec, v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		s.BaseSeed = n
		return err
	},
	"algo": func(s *RunSpec, v string) error { s.Algo = v; return nil },
	"max_batch": func(s *RunSpec, v string) error {
		n, err := strconv.Atoi(v)
		s.MaxBatch = n
		return err
	},
	"faults": func(s *RunSpec, v string) error { s.Faults = v; return nil },
	"ingresses": func(s *RunSpec, v string) error {
		n, err := strconv.Atoi(v)
		s.Ingresses = n
		return err
	},
	"deadline": func(s *RunSpec, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		s.Deadline = f
		return err
	},
	"horizon": func(s *RunSpec, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		s.Horizon = f
		return err
	},
	"pattern":  func(s *RunSpec, v string) error { s.Pattern = v; return nil },
	"topology": func(s *RunSpec, v string) error { s.Topology = v; return nil },
}

// SweepParams returns the valid axis parameter names, sorted.
func SweepParams() []string {
	names := make([]string, 0, len(sweepParams))
	for name := range sweepParams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SweepAxis is one sweep dimension: a parameter name and the values it
// takes, in submission order.
type SweepAxis struct {
	Param  string   `json:"param"`
	Values []string `json:"values"`
}

// SweepSpec is a named cross-product sweep: Base is varied along every
// axis, producing one SweepPoint per combination.
type SweepSpec struct {
	Name string      `json:"name,omitempty"`
	Base RunSpec     `json:"base"`
	Axes []SweepAxis `json:"axes,omitempty"`
}

// SweepPoint is one expanded sweep combination: the resolved spec plus
// the axis values that produced it ("max_batch=8,algo=sp"), which the
// sweep matrix uses as the point label.
type SweepPoint struct {
	Label string  `json:"label"`
	Spec  RunSpec `json:"spec"`
}

// maxSweepPoints caps the cross-product so a typo'd sweep cannot
// schedule an unbounded grid.
const maxSweepPoints = 256

// Expand validates the sweep and returns the cross-product of its axes
// over the base spec, every point individually validated. Axes expand
// left to right, the last axis fastest, so the point order is
// deterministic for a given submission. A sweep with no axes is one
// point: the base spec itself.
func (sw SweepSpec) Expand() ([]SweepPoint, error) {
	total := 1
	for _, ax := range sw.Axes {
		if _, ok := sweepParams[ax.Param]; !ok {
			return nil, fmt.Errorf("clicfg: sweep axis param %q unknown (want one of %s)", ax.Param, strings.Join(SweepParams(), ", "))
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("clicfg: sweep axis %q has no values", ax.Param)
		}
		total *= len(ax.Values)
		if total > maxSweepPoints {
			return nil, fmt.Errorf("clicfg: sweep expands to more than %d points", maxSweepPoints)
		}
	}
	points := []SweepPoint{{Spec: sw.Base}}
	for _, ax := range sw.Axes {
		set := sweepParams[ax.Param]
		next := make([]SweepPoint, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				spec := p.Spec
				if err := set(&spec, v); err != nil {
					return nil, fmt.Errorf("clicfg: sweep axis %s value %q: %v", ax.Param, v, err)
				}
				label := ax.Param + "=" + v
				if p.Label != "" {
					label = p.Label + "," + label
				}
				next = append(next, SweepPoint{Label: label, Spec: spec})
			}
		}
		points = next
	}
	for i := range points {
		if points[i].Label == "" {
			points[i].Label = "base"
		}
		if err := points[i].Spec.Validate(); err != nil {
			return nil, fmt.Errorf("clicfg: sweep point %q: %w", points[i].Label, err)
		}
	}
	return points, nil
}
