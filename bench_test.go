// Package distcoord's root benchmarks regenerate every table and figure
// of the paper's evaluation (Sec. V) at reduced scale, so that
// `go test -bench=.` exercises the full experiment pipeline end to end.
// Success ratios are attached to each benchmark via ReportMetric; full
// paper-scale runs (30 seeds, horizon 20000, 2x256 networks) are driven
// by cmd/experiments -paper.
//
// Benchmark map (see DESIGN.md §3):
//
//	BenchmarkTableI   — Table I topology statistics
//	BenchmarkFig6a-d  — success vs. load per arrival pattern
//	BenchmarkFig7     — success and delay vs. deadline
//	BenchmarkFig8a    — generalization to unseen traffic
//	BenchmarkFig8b    — generalization to unseen load
//	BenchmarkFig9a    — success on large topologies
//	BenchmarkFig9b    — per-decision coordination time
//
// plus micro-benchmarks (inference latency per topology, simulator event
// throughput, APSP) and ablations (reward shaping, observation
// normalization).
package distcoord

import (
	"math/rand"
	"testing"

	"distcoord/internal/baselines"
	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/traffic"
)

// benchOptions is the reduced experiment scale used by the figure
// benchmarks: large enough to exercise every code path (training,
// deployment, multi-seed evaluation of all four algorithms), small
// enough to finish within benchmark time budgets.
func benchOptions() eval.Options {
	return eval.Options{
		EvalSeeds:       1,
		Horizon:         600,
		MonitorInterval: 100,
		Budget: eval.TrainBudget{
			Episodes:     6,
			ParallelEnvs: 1,
			Seeds:        1,
			Horizon:      250,
			Hidden:       []int{16},
		},
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := graph.TableIRows(graph.Topologies())
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// benchFig6 runs the Fig. 6 pipeline for one arrival pattern.
func benchFig6(b *testing.B, variant string) {
	b.Helper()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig6(variant, opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig6a(b *testing.B) { benchFig6(b, "a") }
func BenchmarkFig6b(b *testing.B) { benchFig6(b, "b") }
func BenchmarkFig6c(b *testing.B) { benchFig6(b, "c") }
func BenchmarkFig6d(b *testing.B) { benchFig6(b, "d") }

func BenchmarkFig7(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig8a(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig8a(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig8b(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig8b(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig9a(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig9a(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig9b(b *testing.B) {
	opts := benchOptions()
	opts.Budget.Hidden = []int{64, 64}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig9b(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
		// Report the headline quantities: distributed per-decision cost
		// on the largest network vs. the central update there.
		b.ReportMetric(float64(rows[3].DistDRL.Nanoseconds()), "distdrl-ns/decision")
		b.ReportMetric(float64(rows[3].Central.Nanoseconds()), "central-ns/update")
	}
}

// reportFigure attaches the DistDRL mean success of the last x-position
// as a benchmark metric, so regressions in coordination quality are
// visible in benchmark output.
func reportFigure(b *testing.B, fig eval.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			b.Fatalf("series %s has no points", s.Algo)
		}
	}
	last := fig.Series[0].Points[len(fig.Series[0].Points)-1]
	b.ReportMetric(last.Outcome.Succ.Mean, "success")
}

// BenchmarkInference measures the distributed DRL per-decision latency
// (observe + forward pass) per topology and decision mode with the
// paper's 2x256 network — the paper's "~1 ms per decision, invariant to
// network size" claim. Every sub-benchmark must report 0 allocs/op: the
// steady-state decide path reuses per-node workspaces.
func BenchmarkInference(b *testing.B) {
	for _, name := range []string{"Abilene", "BT Europe", "China Telecom", "Interroute"} {
		for _, mode := range []struct {
			name       string
			stochastic bool
		}{{"stochastic", true}, {"argmax", false}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				s := eval.Base()
				s.Topology = name
				inst, err := s.Instantiate(1)
				if err != nil {
					b.Fatal(err)
				}
				adapter := coord.NewAdapter(inst.Graph, inst.APSP)
				agent, err := rl.NewAgent(rl.AgentConfig{
					ObsSize:    adapter.ObsSize(),
					NumActions: adapter.NumActions(),
					Hidden:     []int{256, 256},
				})
				if err != nil {
					b.Fatal(err)
				}
				dist, err := coord.NewDistributed(adapter, agent.Actor)
				if err != nil {
					b.Fatal(err)
				}
				dist.Stochastic = mode.stochastic
				st := simnet.NewState(inst.Graph, inst.APSP)
				flow := &simnet.Flow{
					Service: inst.Service, Egress: s.Egress,
					Rate: 1, Duration: 1, Deadline: 100,
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dist.Decide(st, flow, 0, 1)
				}
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw event-loop throughput with a
// cheap coordinator (decisions per second of simulated coordination).
func BenchmarkSimulatorThroughput(b *testing.B) {
	s := eval.Base()
	s.NumIngresses = 5
	s.Horizon = 2000
	inst, err := s.Instantiate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		m, err := inst.Run(baselines.GCASP{})
		if err != nil {
			b.Fatal(err)
		}
		decisions += m.Decisions
	}
	b.ReportMetric(float64(decisions)/float64(b.N), "decisions/run")
}

func BenchmarkAPSP(b *testing.B) {
	g := graph.Interroute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.NewAPSP(g)
	}
}

// BenchmarkAblationRewardShaping trains twice — with and without the
// shaped auxiliary rewards of Sec. IV-B3 — and reports both resulting
// success ratios. The paper motivates shaping as necessary against the
// sparse ±10 terminal signal.
func BenchmarkAblationRewardShaping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shaped := trainAblation(b, true, true)
		sparse := trainAblation(b, false, true)
		b.ReportMetric(shaped, "shaped-success")
		b.ReportMetric(sparse, "sparse-success")
	}
}

// BenchmarkAblationNormalization trains with and without the [-1,1]
// observation normalization of Sec. IV-B1.
func BenchmarkAblationNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		norm := trainAblation(b, true, true)
		raw := trainAblation(b, true, false)
		b.ReportMetric(norm, "normalized-success")
		b.ReportMetric(raw, "raw-success")
	}
}

// trainAblation trains a small agent on the base scenario with the given
// reward-shaping and normalization settings and returns its final
// training success ratio.
func trainAblation(b *testing.B, shaping, normalize bool) float64 {
	b.Helper()
	s := eval.Base()
	inst, err := s.Instantiate(0)
	if err != nil {
		b.Fatal(err)
	}
	rewards := coord.DefaultRewards()
	rewards.Shaping = shaping

	mkEnv := func(envSeed int64) (*coord.Env, error) {
		env, err := coord.NewEnv(coord.EnvConfig{
			Graph:        inst.Graph,
			APSP:         inst.APSP,
			Service:      inst.Service,
			IngressNodes: s.Ingresses(),
			Egress:       s.Egress,
			Traffic:      traffic.PoissonSpec(10),
			Template:     inst.Template,
			Horizon:      250,
			Rewards:      rewards,
		}, envSeed)
		if err != nil {
			return nil, err
		}
		env.Adapter().Normalize = normalize
		return env, nil
	}
	probeEnv, err := mkEnv(0)
	if err != nil {
		b.Fatal(err)
	}
	adapter := probeEnv.Adapter()
	_, stats, err := rl.Train(rl.TrainConfig{
		Agent: rl.AgentConfig{
			ObsSize:    adapter.ObsSize(),
			NumActions: adapter.NumActions(),
			Hidden:     []int{16},
			LR:         3e-3,
		},
		Episodes:     80,
		ParallelEnvs: 2,
		Seeds:        1,
		LRDecay:      true,
		NewEnv:       func(envSeed int64) (rl.Env, error) { return mkEnv(envSeed) },
	})
	if err != nil {
		b.Fatal(err)
	}
	return stats.BestScore
}

// BenchmarkTraining measures one full training update cycle (rollout +
// actor/critic update) on the base scenario.
func BenchmarkTraining(b *testing.B) {
	s := eval.Base()
	inst, err := s.Instantiate(0)
	if err != nil {
		b.Fatal(err)
	}
	env, err := coord.NewEnv(coord.EnvConfig{
		Graph:        inst.Graph,
		APSP:         inst.APSP,
		Service:      inst.Service,
		IngressNodes: s.Ingresses(),
		Egress:       s.Egress,
		Traffic:      traffic.PoissonSpec(10),
		Template:     inst.Template,
		Horizon:      500,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	adapter := env.Adapter()
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize:    adapter.ObsSize(),
		NumActions: adapter.NumActions(),
		Hidden:     []int{64, 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	policy := rl.PolicyFunc(func(obs []float64) int { return agent.SampleAction(obs, rng) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trajs, _, err := env.Rollout(policy)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := agent.Update(trajs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptimizer compares the paper's RMSprop against Adam
// on an identical supervised fit (XOR regression with the nn package),
// reporting the final losses. It documents that RMSprop (the paper's
// choice) is adequate for the small tanh networks used throughout.
func BenchmarkAblationOptimizer(b *testing.B) {
	fit := func(step func(params, grads [][]float64)) float64 {
		rng := rand.New(rand.NewSource(42))
		m := nn.NewMLP(rng, 2, 16, 1)
		samples := [][3]float64{{1, 1, 1}, {1, -1, -1}, {-1, 1, -1}, {-1, -1, 1}}
		for epoch := 0; epoch < 200; epoch++ {
			m.ZeroGrad()
			for _, s := range samples {
				tape := m.ForwardTape(s[:2])
				m.Backward(tape, []float64{tape.Output()[0] - s[2]})
			}
			step(m.Params(), m.Grads())
			m.Refresh()
		}
		loss := 0.0
		for _, s := range samples {
			d := m.Forward(s[:2])[0] - s[2]
			loss += 0.5 * d * d
		}
		return loss
	}
	for i := 0; i < b.N; i++ {
		rms := nn.NewRMSProp(0.01)
		adam := nn.NewAdam(0.01)
		b.ReportMetric(fit(rms.Step), "rmsprop-loss")
		b.ReportMetric(fit(adam.Step), "adam-loss")
	}
}

// BenchmarkOnlineAdaptation exercises the paper's proposed extension
// (Sec. IV-C1): after brief offline training on fixed-interval traffic,
// a frozen distributed policy and a continuously learning one (local
// updates + federated weight averaging) both face bursty MMPP traffic.
// Both success ratios are reported.
func BenchmarkOnlineAdaptation(b *testing.B) {
	s := eval.Base()
	train := s
	train.Traffic = traffic.FixedSpec(10)
	train.Horizon = 600
	policy, err := eval.TrainDRL(train, eval.TrainBudget{
		Episodes:     60,
		ParallelEnvs: 2,
		Seeds:        1,
		Horizon:      300,
		Hidden:       []int{16},
		LR:           3e-3,
	})
	if err != nil {
		b.Fatal(err)
	}

	test := s
	test.Traffic = traffic.MMPPSpec(12, 8, 100, 0.05)
	test.Horizon = 2000

	b.ResetTimer() // exclude the offline pretraining above
	for i := 0; i < b.N; i++ {
		inst, err := test.Instantiate(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		adapter := coord.NewAdapter(inst.Graph, inst.APSP)

		frozen, err := coord.NewDistributed(adapter, policy.Agent.Actor)
		if err != nil {
			b.Fatal(err)
		}
		mFrozen, err := inst.Run(frozen)
		if err != nil {
			b.Fatal(err)
		}

		online, err := coord.NewOnline(adapter, policy.Agent, coord.OnlineConfig{
			SyncInterval: 200,
			MinSteps:     32,
		})
		if err != nil {
			b.Fatal(err)
		}
		mOnline, err := runWithListener(inst, online)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mFrozen.SuccessRatio(), "frozen-success")
		b.ReportMetric(mOnline.SuccessRatio(), "online-success")
		b.ReportMetric(float64(online.Updates), "online-updates")
	}
}

// runWithListener runs an instance with a coordinator that is also the
// simulation listener (the Online coordinator needs reward events).
func runWithListener(inst *eval.Instance, online *coord.Online) (*simnet.Metrics, error) {
	rng := rand.New(rand.NewSource(0x0911))
	var ingresses []simnet.Ingress
	for _, v := range inst.Scenario.Ingresses() {
		ingresses = append(ingresses, simnet.Ingress{
			Node:     v,
			Arrivals: inst.Scenario.Traffic.New(rand.New(rand.NewSource(rng.Int63()))),
		})
	}
	sim, err := simnet.New(simnet.Config{
		Graph:       inst.Graph,
		APSP:        inst.APSP,
		Service:     inst.Service,
		Ingresses:   ingresses,
		Egress:      inst.Scenario.Egress,
		Template:    inst.Template,
		Horizon:     inst.Scenario.Horizon,
		Coordinator: online,
		Listener:    online,
	})
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
