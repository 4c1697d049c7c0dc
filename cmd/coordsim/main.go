// Command coordsim runs a single service coordination simulation and
// prints the resulting metrics: pick a topology, a traffic pattern, a
// load level, and a coordination algorithm.
//
// Usage:
//
//	coordsim -algo gcasp -topology Abilene -pattern poisson -ingresses 3
//	coordsim -algo sp -pattern fixed -horizon 20000 -seed 7
//	coordsim -algo drl -train-episodes 200      # trains first, then runs
//	coordsim -algo sp -flow-trace flows.jsonl   # per-flow event trace
//	coordsim -algo sp -metrics-out metrics.json # machine-readable summary
//	coordsim -algo drl -faults node-outage      # resilience run + recovery metrics
//	coordsim -algo drl -jobs 2                  # cap CPU use (GOMAXPROCS)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"distcoord/internal/baselines"
	"distcoord/internal/chaos"
	"distcoord/internal/clicfg"
	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/traffic"
)

// runConfig collects the parsed command line.
type runConfig struct {
	algo, topology, topoFile, pattern string
	ingresses                         int
	deadline, horizon                 float64
	seed                              int64
	episodes                          int
	greedy                            bool
	model, saveModel                  string
	spawnAgents                       int
	agentdBin                         string
	shared                            *clicfg.Flags
}

func main() {
	var c runConfig
	flag.StringVar(&c.algo, "algo", "gcasp", "coordination algorithm: drl, central, gcasp, sp")
	flag.StringVar(&c.topology, "topology", "Abilene", "network topology (Abilene, BT Europe, China Telecom, Interroute)")
	flag.StringVar(&c.topoFile, "topology-file", "", "load a custom topology file instead (see internal/graph.Parse)")
	flag.StringVar(&c.pattern, "pattern", "poisson", "arrival pattern: fixed, poisson, mmpp, trace")
	flag.IntVar(&c.ingresses, "ingresses", 2, "number of ingress nodes (v1..vK)")
	flag.Float64Var(&c.deadline, "deadline", 100, "flow deadline τ")
	flag.Float64Var(&c.horizon, "horizon", 2000, "simulation horizon T")
	flag.Int64Var(&c.seed, "seed", 0, "simulation seed")
	flag.IntVar(&c.episodes, "train-episodes", 300, "DRL training episodes (only -algo drl)")
	flag.BoolVar(&c.greedy, "greedy", false, "deterministic argmax DRL inference instead of sampling (only -algo drl)")
	flag.StringVar(&c.model, "model", "", "load this policy checkpoint instead of training (only -algo drl)")
	flag.StringVar(&c.saveModel, "save-model", "", "write the policy checkpoint to this path after training (only -algo drl)")
	flag.IntVar(&c.spawnAgents, "spawn-agents", 0, "launch this many local agentd processes and decide through them (only -algo drl; composes with -agents)")
	flag.StringVar(&c.agentdBin, "agentd-bin", "", "agentd binary for -spawn-agents (default: sibling of coordsim, then PATH)")
	c.shared = clicfg.Register(flag.CommandLine)
	flag.Parse()

	if err := run(&c); err != nil {
		fmt.Fprintln(os.Stderr, "coordsim:", err)
		os.Exit(1)
	}
}

// metricsSummary is the -metrics-out schema: headline metrics plus delay
// quantiles, drops keyed by symbolic cause, and per-fault recovery
// reports for fault-injection runs.
type metricsSummary struct {
	Algorithm   string              `json:"algorithm"`
	Topology    string              `json:"topology"`
	Arrived     int                 `json:"arrived"`
	Succeeded   int                 `json:"succeeded"`
	Dropped     int                 `json:"dropped"`
	SuccessRate float64             `json:"success_rate"`
	AvgDelay    float64             `json:"avg_delay"`
	MaxDelay    float64             `json:"max_delay"`
	DelayP50    float64             `json:"delay_p50"`
	DelayP95    float64             `json:"delay_p95"`
	DelayP99    float64             `json:"delay_p99"`
	Decisions   int                 `json:"decisions"`
	Processings int                 `json:"processings"`
	Forwards    int                 `json:"forwards"`
	Keeps       int                 `json:"keeps"`
	DropsBy     map[string]int      `json:"drops_by,omitempty"`
	Faults      int                 `json:"faults,omitempty"`
	Recovery    []chaos.FaultReport `json:"recovery,omitempty"`
}

func run(c *runConfig) error {
	spec, err := patternSpec(c.pattern)
	if err != nil {
		return err
	}
	rt, err := c.shared.Apply()
	if err != nil {
		return err
	}
	defer rt.Close()

	s := eval.Base()
	s.Topology = c.topology
	if c.topoFile != "" {
		f, err := os.Open(c.topoFile)
		if err != nil {
			return err
		}
		s.Graph, err = graph.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	s.Traffic = spec
	s.NumIngresses = c.ingresses
	s.Deadline = c.deadline
	s.Horizon = c.horizon
	s.Faults = rt.FaultSpec()

	inst, err := s.Instantiate(c.seed)
	if err != nil {
		return err
	}
	rt.SetObsInfo("algo", c.algo)
	rt.SetObsInfo("topology", inst.Graph.Name())
	rt.SetObsInfo("pattern", c.pattern)

	remoteMode := c.shared.Agents != "" || c.spawnAgents > 0
	if remoteMode && c.algo != "drl" {
		return fmt.Errorf("a remote agent fleet (-agents/-spawn-agents) requires -algo drl; %q decides in-process only", c.algo)
	}
	if s.Faults.Profile == chaos.ProfileAgentKill && !remoteMode {
		return fmt.Errorf("-faults agent-kill needs a fleet to kill; add -agents or -spawn-agents")
	}

	var coordinator simnet.Coordinator
	var remote *coord.Remote
	switch c.algo {
	case "sp":
		coordinator = baselines.SP{}
	case "gcasp":
		coordinator = baselines.GCASP{}
	case "central":
		coordinator = baselines.NewCentral(100)
	case "drl":
		checkpoint, modelPath, err := drlCheckpoint(c, rt, s)
		if err != nil {
			return err
		}
		if remoteMode {
			fl, err := buildFleet(c, modelPath)
			if err != nil {
				return err
			}
			defer fl.stop()
			remote, err = remoteCoordinator(c, rt, inst, fl, checkpoint)
			if err != nil {
				return err
			}
			defer remote.Close()
			if len(inst.Chaos.AgentKills) > 0 {
				wireAgentKills(remote, fl, rt, inst.Chaos.AgentKills)
			}
			coordinator = remote
		} else {
			actor, err := nn.Load(bytes.NewReader(checkpoint))
			if err != nil {
				return err
			}
			adapter := coord.NewAdapter(inst.Graph, inst.APSP)
			d, err := coord.NewDistributed(adapter, actor)
			if err != nil {
				return err
			}
			d.Reseed(c.seed)
			d.Stochastic = !c.greedy
			coordinator = d
		}
	default:
		return fmt.Errorf("unknown algorithm %q (want drl, central, gcasp, sp)", c.algo)
	}

	opts := rt.RunOptions()
	var monitor *chaos.Monitor
	if s.Faults.Enabled() {
		monitor = chaos.NewMonitor(inst.Chaos, 0)
		opts.Listener = monitor
	}

	m, err := inst.RunWith(coordinator, opts)
	if err != nil {
		return err
	}

	fmt.Printf("algorithm:      %s\n", coordinator.Name())
	fmt.Printf("topology:       %s (%d nodes, %d links)\n", inst.Graph.Name(), inst.Graph.NumNodes(), inst.Graph.NumLinks())
	fmt.Printf("traffic:        %s at %d ingress node(s)\n", spec.Label, c.ingresses)
	fmt.Printf("flows arrived:  %d\n", m.Arrived)
	fmt.Printf("successful:     %d (%.1f%%)\n", m.Succeeded, 100*m.SuccessRatio())
	fmt.Printf("dropped:        %d\n", m.Dropped)
	for cause, n := range m.DropsBy {
		fmt.Printf("  %-16s %d\n", cause.String()+":", n)
	}
	fmt.Printf("avg e2e delay:  %.1f ms (max %.1f ms, p50 %.1f, p95 %.1f, p99 %.1f)\n",
		m.AvgDelay(), m.MaxDelay, m.DelayQuantile(0.5), m.DelayQuantile(0.95), m.DelayQuantile(0.99))
	fmt.Printf("decisions:      %d (%d processings, %d forwards, %d keeps)\n",
		m.Decisions, m.Processings, m.Forwards, m.Keeps)

	if remote != nil {
		ok, failed := remote.Pool().DecideStats()
		h := rt.DecideRTT()
		fmt.Printf("remote fleet:   %d agents, %d decisions over sockets (%d failed)\n",
			remote.Pool().NumAgents(), ok, failed)
		fmt.Printf("decision RTT:   p50 %.0f µs, p95 %.0f µs, p99 %.0f µs (%d samples)\n",
			h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Count())
	}

	var recovery []chaos.FaultReport
	if monitor != nil {
		recovery = monitor.Report()
		fmt.Printf("faults applied: %d (%s)\n", m.Faults, inst.Chaos.Spec.String())
		for _, r := range recovery {
			rec := "never recovered"
			if r.RecoveryTime >= 0 {
				rec = fmt.Sprintf("recovered in %.0f", r.RecoveryTime)
			}
			fmt.Printf("  t=%-7.0f %-13s dip %.3f (%.3f -> %.3f), %s, %d drops\n",
				r.Time, r.Kind, r.DipDepth, r.PreSuccess, r.MinSuccess, rec, r.Drops)
		}
	}

	if path := rt.MetricsOut(); path != "" {
		if err := writeMetrics(path, c.algo, inst.Graph.Name(), m, recovery); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote metrics summary to %s\n", path)
	}
	return rt.Close()
}

// drlCheckpoint produces the serialized policy the run deploys: loaded
// from -model, or trained here and serialized. It returns the bytes and
// a path holding them (for spawned agentd processes), honoring
// -save-model and falling back to a temp file when spawning needs one.
func drlCheckpoint(c *runConfig, rt *clicfg.Runtime, s eval.Scenario) ([]byte, string, error) {
	var checkpoint []byte
	if c.model != "" {
		data, err := os.ReadFile(c.model)
		if err != nil {
			return nil, "", err
		}
		checkpoint = data
	} else {
		budget := eval.DefaultTrainBudget()
		budget.Episodes = c.episodes
		budget.OnEpisode = func(rec rl.EpisodeRecord) { rt.OnEpisode(rec) }
		fmt.Fprintf(os.Stderr, "training DRL agent (%d episodes x %d seeds)...\n", budget.Episodes, budget.Seeds)
		policy, err := eval.TrainDRL(s, budget)
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(os.Stderr, "training scores per seed: %v\n", policy.Stats.SeedScores)
		var buf bytes.Buffer
		if err := policy.Agent.Actor.Save(&buf); err != nil {
			return nil, "", err
		}
		checkpoint = buf.Bytes()
	}
	path := c.model
	if c.saveModel != "" {
		if err := nn.WriteFileVerified(c.saveModel, checkpoint, nn.Checksum(checkpoint)); err != nil {
			return nil, "", err
		}
		fmt.Fprintf(os.Stderr, "wrote policy checkpoint to %s\n", c.saveModel)
		path = c.saveModel
	}
	if path == "" && c.spawnAgents > 0 {
		tmp, err := os.CreateTemp("", "coordsim-model-*.bin")
		if err != nil {
			return nil, "", err
		}
		name := tmp.Name()
		tmp.Close()
		if err := nn.WriteFileVerified(name, checkpoint, nn.Checksum(checkpoint)); err != nil {
			os.Remove(name)
			return nil, "", err
		}
		path = name
	}
	return checkpoint, path, nil
}

// writeMetrics serializes the metrics summary to path as indented JSON.
func writeMetrics(path, algo, topo string, m *simnet.Metrics, recovery []chaos.FaultReport) error {
	sum := metricsSummary{
		Algorithm:   algo,
		Topology:    topo,
		Arrived:     m.Arrived,
		Succeeded:   m.Succeeded,
		Dropped:     m.Dropped,
		SuccessRate: m.SuccessRatio(),
		AvgDelay:    m.AvgDelay(),
		MaxDelay:    m.MaxDelay,
		DelayP50:    m.DelayQuantile(0.5),
		DelayP95:    m.DelayQuantile(0.95),
		DelayP99:    m.DelayQuantile(0.99),
		Decisions:   m.Decisions,
		Processings: m.Processings,
		Forwards:    m.Forwards,
		Keeps:       m.Keeps,
		Faults:      m.Faults,
		Recovery:    recovery,
	}
	if len(m.DropsBy) > 0 {
		sum.DropsBy = make(map[string]int, len(m.DropsBy))
		for cause, n := range m.DropsBy {
			sum.DropsBy[cause.String()] = n
		}
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func patternSpec(pattern string) (traffic.Spec, error) {
	switch pattern {
	case "fixed":
		return traffic.FixedSpec(10), nil
	case "poisson":
		return traffic.PoissonSpec(10), nil
	case "mmpp":
		return traffic.MMPPSpec(12, 8, 100, 0.05), nil
	case "trace":
		return traffic.SyntheticTraceSpec(10, 2, 4), nil
	}
	return traffic.Spec{}, fmt.Errorf("unknown pattern %q (want fixed, poisson, mmpp, trace)", pattern)
}
