package coord

import (
	"math/rand"
	"reflect"
	"testing"

	"distcoord/internal/nn"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/traffic"
)

// newTestDistributed builds a Distributed coordinator over the easy
// two-node scenario with a small random-weight actor.
func newTestDistributed(t testing.TB) (*Distributed, EnvConfig) {
	t.Helper()
	cfg := easyScenario()
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := env.Adapter()
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize: a.ObsSize(), NumActions: a.NumActions(), Hidden: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(a, agent.Actor)
	if err != nil {
		t.Fatal(err)
	}
	return d, cfg
}

// TestDecideZeroAllocs pins the tentpole acceptance criterion: the
// steady-state per-decision path (ObserveInto + ForwardInto + softmax +
// sample) performs zero allocations, in both decision modes.
func TestDecideZeroAllocs(t *testing.T) {
	d, cfg := newTestDistributed(t)
	st := simnet.NewState(cfg.Graph, d.adapter.APSP())
	f := &simnet.Flow{ID: 1, Service: cfg.Service, Egress: 1, Rate: 1, Duration: 1, Deadline: 50}
	for _, mode := range []struct {
		name       string
		stochastic bool
	}{{"stochastic", true}, {"argmax", false}} {
		t.Run(mode.name, func(t *testing.T) {
			d.Stochastic = mode.stochastic
			d.Decide(st, f, 0, 1) // warm up buffers
			allocs := testing.AllocsPerRun(200, func() {
				d.Decide(st, f, 0, 1)
			})
			if allocs != 0 {
				t.Errorf("Decide allocates %v times per run, want 0", allocs)
			}
		})
	}
}

func TestObserveIntoZeroAllocsAndMatchesObserve(t *testing.T) {
	d, cfg := newTestDistributed(t)
	a := d.adapter
	st := simnet.NewState(cfg.Graph, a.APSP())
	f := &simnet.Flow{ID: 1, Service: cfg.Service, Egress: 1, Rate: 1, Duration: 1, Deadline: 50}

	want := a.Observe(st, f, 0, 2)
	buf := make([]float64, 0, a.ObsSize())
	got := a.ObserveInto(buf, st, f, 0, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ObserveInto = %v, Observe = %v", got, want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = a.ObserveInto(buf, st, f, 0, 2)
	})
	if allocs != 0 {
		t.Errorf("ObserveInto allocates %v times per run, want 0", allocs)
	}
}

// TestDecideAtHonorsStochastic: DecideAt must route through the same
// decide logic as Decide — before the fix it hardcoded argmax, so the
// Fig. 9b latency bench measured a code path deployment never runs.
func TestDecideAtHonorsStochastic(t *testing.T) {
	d, cfg := newTestDistributed(t)
	a := d.adapter
	st := simnet.NewState(cfg.Graph, a.APSP())
	f := &simnet.Flow{ID: 1, Service: cfg.Service, Egress: 1, Rate: 1, Duration: 1, Deadline: 50}
	obs := a.Observe(st, f, 0, 0)

	d.Stochastic = false
	first := d.DecideAt(0, obs)
	for i := 0; i < 10; i++ {
		if got := d.DecideAt(0, obs); got != first {
			t.Fatalf("argmax DecideAt not deterministic: %d then %d", first, got)
		}
	}

	// A random-weight actor over 2 actions is near uniform: sampling the
	// same observation repeatedly must produce both actions.
	d.Stochastic = true
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		seen[d.DecideAt(0, obs)] = true
	}
	if len(seen) < 2 {
		t.Errorf("stochastic DecideAt produced only %v over 200 samples; argmax is still hardcoded", seen)
	}
}

// TestPerNodeStreamsIndependent: decisions at one node must not consume
// another node's random stream — interleaving extra decisions at node 1
// may not change the sequence node 0 produces.
func TestPerNodeStreamsIndependent(t *testing.T) {
	d, cfg := newTestDistributed(t)
	a := d.adapter
	st := simnet.NewState(cfg.Graph, a.APSP())
	f := &simnet.Flow{ID: 1, Service: cfg.Service, Egress: 1, Rate: 1, Duration: 1, Deadline: 50}
	obs := a.Observe(st, f, 0, 0)

	const n = 64
	sequence := func(interleave bool) []int {
		d.Reseed(42)
		out := make([]int, n)
		for i := range out {
			out[i] = d.DecideAt(0, obs)
			if interleave {
				d.DecideAt(1, obs)
			}
		}
		return out
	}
	plain := sequence(false)
	interleaved := sequence(true)
	if !reflect.DeepEqual(plain, interleaved) {
		t.Error("node 0's decision sequence changed when node 1 decided in between: nodes share a stream")
	}
}

// TestPolicyBankSharesOneActor pins the bank's memory contract: every
// node of a 1000-node bank decides with the same read-only actor copy
// (not the caller's network, which stays free to change), while each
// node keeps its own workspace and sampling stream.
func TestPolicyBankSharesOneActor(t *testing.T) {
	actor := nn.NewMLP(rand.New(rand.NewSource(1)), 4, 8, 3)
	const numNodes = 1000
	b, err := NewPolicyBank(actor, numNodes, nil, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	shared := b.nodes[0].actor
	if shared == nil || shared == actor {
		t.Fatalf("bank actor = %p, want a copy of the caller's %p", shared, actor)
	}
	for v := 1; v < numNodes; v++ {
		n := &b.nodes[v]
		if n.actor != shared {
			t.Fatalf("node %d decides with actor %p, want the shared %p", v, n.actor, shared)
		}
		if n.ws == b.nodes[0].ws || n.rng == b.nodes[0].rng {
			t.Fatalf("node %d shares node 0's workspace or stream", v)
		}
	}
}

// TestDistributedMetricsByteIdentical is the determinism regression
// re-run after the per-node RNG restructuring: two full simulations with
// identically reseeded coordinators and identical traffic must produce
// deeply equal metrics.
func TestDistributedMetricsByteIdentical(t *testing.T) {
	cfg := easyScenario()
	cfg.Horizon = 500
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := env.Adapter()
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize: a.ObsSize(), NumActions: a.NumActions(), Hidden: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func() *simnet.Metrics {
		d, err := NewDistributed(a, agent.Actor)
		if err != nil {
			t.Fatal(err)
		}
		d.Reseed(7)
		sim, err := simnet.New(simnet.Config{
			Graph:       cfg.Graph,
			APSP:        a.APSP(),
			Service:     cfg.Service,
			Ingresses:   []simnet.Ingress{{Node: 0, Arrivals: traffic.NewPoisson(10, rand.New(rand.NewSource(3)))}},
			Egress:      cfg.Egress,
			Template:    cfg.Template,
			Horizon:     cfg.Horizon,
			Coordinator: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.Clone() // Clone drops the private quantile cache
	}

	m1, m2 := run(), run()
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("metrics diverged across identically seeded runs:\n%+v\nvs\n%+v", m1, m2)
	}
}
