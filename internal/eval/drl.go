package eval

import (
	"fmt"

	"distcoord/internal/coord"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
)

// TrainBudget scales the DRL training effort. The defaults are sized for
// commodity CPUs; the paper's settings (10 seeds, 4 parallel envs, 2x256
// networks, long episodes on Xeon machines) are reachable via flags in
// cmd/experiments.
type TrainBudget struct {
	Episodes     int     // update iterations per seed (default 600)
	ParallelEnvs int     // l (default 4, as in the paper)
	Seeds        int     // k (default 2; paper 10)
	Horizon      float64 // training episode length (default 1000)
	Hidden       []int   // network architecture (default 2x32; paper 2x256)
	LR           float64 // RMSprop learning rate (default 3e-3)
	Seed         int64
	Progress     func(seed, episode int, stats rl.UpdateStats, score float64)
	// OnEpisode receives one structured telemetry record per training
	// episode (see rl.EpisodeRecord); wire it to a telemetry.Sink for a
	// JSONL training log. Called concurrently across training seeds.
	OnEpisode func(rl.EpisodeRecord)
}

// withDefaults fills unset fields of a partial budget with the tuned
// defaults.
func (b TrainBudget) withDefaults() TrainBudget {
	d := DefaultTrainBudget()
	if b.Episodes <= 0 {
		b.Episodes = d.Episodes
	}
	if b.ParallelEnvs <= 0 {
		b.ParallelEnvs = d.ParallelEnvs
	}
	if b.Seeds <= 0 {
		b.Seeds = d.Seeds
	}
	if b.Horizon <= 0 {
		b.Horizon = d.Horizon
	}
	if len(b.Hidden) == 0 {
		b.Hidden = d.Hidden
	}
	if b.LR == 0 {
		b.LR = d.LR
	}
	return b
}

// DefaultTrainBudget returns the commodity-hardware defaults, tuned so
// the base scenario trains to paper-like quality in minutes on a laptop
// CPU.
func DefaultTrainBudget() TrainBudget {
	return TrainBudget{
		Episodes:     600,
		ParallelEnvs: 4,
		Seeds:        2,
		Horizon:      1000,
		Hidden:       []int{32, 32},
		LR:           3e-3,
	}
}

// PaperTrainBudget returns the paper's hyperparameters (Sec. V-A2).
func PaperTrainBudget() TrainBudget {
	return TrainBudget{
		Episodes:     1000,
		ParallelEnvs: 4,
		Seeds:        10,
		Horizon:      2000,
		Hidden:       []int{256, 256},
		LR:           1e-3,
	}
}

// TrainedPolicy is a trained distributed coordination policy for one
// topology: the selected actor network plus the training diagnostics.
type TrainedPolicy struct {
	Agent *rl.Agent
	Stats rl.TrainResult
}

// TrainDRL runs centralized training (Alg. 1) on the scenario: each
// parallel environment copy instantiates the scenario (same capacity
// draw — capacities are part of the scenario) with its own traffic
// seed.
func TrainDRL(s Scenario, budget TrainBudget) (*TrainedPolicy, error) {
	s = s.normalized()
	budget = budget.withDefaults()
	probe, err := s.Instantiate(0)
	if err != nil {
		return nil, err
	}
	adapter := coord.NewAdapter(probe.Graph, probe.APSP)

	agent, stats, err := rl.Train(rl.TrainConfig{
		Agent: rl.AgentConfig{
			ObsSize:    adapter.ObsSize(),
			NumActions: adapter.NumActions(),
			Hidden:     budget.Hidden,
			LR:         budget.LR,
			Seed:       budget.Seed,
		},
		Episodes:     budget.Episodes,
		ParallelEnvs: budget.ParallelEnvs,
		Seeds:        budget.Seeds,
		LRDecay:      true,
		Progress:     budget.Progress,
		OnEpisode:    budget.OnEpisode,
		NewEnv: func(envSeed int64) (rl.Env, error) {
			inst, err := s.Instantiate(1_000_003 + envSeed)
			if err != nil {
				return nil, err
			}
			return coord.NewEnv(coord.EnvConfig{
				Graph:        inst.Graph,
				APSP:         inst.APSP,
				Service:      inst.Service,
				IngressNodes: s.Ingresses(),
				Egress:       s.Egress,
				Traffic:      s.Traffic,
				Template:     inst.Template,
				Horizon:      budget.Horizon,
			}, envSeed)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("eval: training DRL on %s: %w", s.Topology, err)
	}
	return &TrainedPolicy{Agent: agent, Stats: stats}, nil
}

// Factory deploys the trained policy onto each evaluation instance: a
// fresh adapter for the instance's capacity draw and the actor at every
// node (Fig. 4b).
func (p *TrainedPolicy) Factory() CoordinatorFactory {
	return func(inst *Instance, seed int64) (simnet.Coordinator, error) {
		adapter := coord.NewAdapter(inst.Graph, inst.APSP)
		d, err := coord.NewDistributed(adapter, p.Agent.Actor)
		if err != nil {
			return nil, err
		}
		d.Reseed(seed)
		return d, nil
	}
}
