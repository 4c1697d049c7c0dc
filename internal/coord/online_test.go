package coord

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newOnlineUnderTest(t *testing.T, cfg EnvConfig, ocfg OnlineConfig) (*Online, *Env) {
	t.Helper()
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := env.Adapter()
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize:    a.ObsSize(),
		NumActions: a.NumActions(),
		Hidden:     []int{16},
		LR:         1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnline(a, agent, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	return online, env
}

func runOnline(t *testing.T, cfg EnvConfig, online *Online, seed int64) *simnet.Metrics {
	t.Helper()
	rngSpec := cfg.Traffic
	ingresses := make([]simnet.Ingress, len(cfg.IngressNodes))
	for i, v := range cfg.IngressNodes {
		ingresses[i] = simnet.Ingress{Node: v, Arrivals: rngSpec.New(newRand(seed + int64(i)))}
	}
	sim, err := simnet.New(simnet.Config{
		Graph:       cfg.Graph,
		Service:     cfg.Service,
		Ingresses:   ingresses,
		Egress:      cfg.Egress,
		Template:    cfg.Template,
		Horizon:     cfg.Horizon,
		Coordinator: online,
		// No explicit Listener: the simulator auto-attaches Online's
		// FlowObserver capability.
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOnlineRunsAndUpdates(t *testing.T) {
	cfg := easyScenario()
	cfg.Horizon = 2000
	online, _ := newOnlineUnderTest(t, cfg, OnlineConfig{SyncInterval: 200, MinSteps: 8})
	m := runOnline(t, cfg, online, 1)
	if m.Arrived == 0 {
		t.Fatal("no flows simulated")
	}
	if m.Pending() != 0 {
		t.Fatalf("%d flows unaccounted", m.Pending())
	}
	if online.Updates == 0 {
		t.Error("online training performed no local updates")
	}
	if online.Syncs == 0 {
		t.Error("online training performed no federated syncs")
	}
}

// TestOnlineWeightsSyncedAfterTick: after a federated averaging round,
// every node's actor weights must be identical.
func TestOnlineWeightsSyncedAfterTick(t *testing.T) {
	cfg := easyScenario()
	cfg.Horizon = 2000
	online, _ := newOnlineUnderTest(t, cfg, OnlineConfig{SyncInterval: 200, MinSteps: 4})
	runOnline(t, cfg, online, 2)
	if online.Syncs == 0 {
		t.Skip("no sync happened; nothing to verify")
	}
	// Force one more round so weights end synchronized even if local
	// updates happened after the last tick.
	online.average()
	ref := online.AgentAt(0).Actor.Params()
	for v := 1; v < cfg.Graph.NumNodes(); v++ {
		params := online.AgentAt(graph.NodeID(v)).Actor.Params()
		for b := range ref {
			for j := range ref[b] {
				if math.Abs(params[b][j]-ref[b][j]) > 1e-12 {
					t.Fatalf("node %d weights diverged from node 0 after averaging", v)
				}
			}
		}
	}
}

// TestOnlineAveragingRefreshesInference: averaging writes the weights
// through Params, so every node's networks must forward exactly like a
// network rebuilt from those weights (a Save/Load round trip) afterwards.
func TestOnlineAveragingRefreshesInference(t *testing.T) {
	cfg := easyScenario()
	online, _ := newOnlineUnderTest(t, cfg, OnlineConfig{SyncInterval: 1e9, MinSteps: 1 << 30})
	// Give every node different weights so the average moves them all.
	for v := 0; v < cfg.Graph.NumNodes(); v++ {
		a := online.AgentAt(graph.NodeID(v))
		for _, m := range []*nn.MLP{a.Actor, a.Critic} {
			for _, p := range m.Params() {
				for j := range p {
					p[j] += 0.1 * float64(v+1)
				}
			}
			m.Refresh()
		}
	}
	online.average()
	x := make([]float64, online.AgentAt(0).Actor.InputSize())
	for i := range x {
		x[i] = 0.3*float64(i) - 1
	}
	for v := 0; v < cfg.Graph.NumNodes(); v++ {
		a := online.AgentAt(graph.NodeID(v))
		for _, m := range []*nn.MLP{a.Actor, a.Critic} {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := nn.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got, want := m.Forward(x), rebuilt.Forward(x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("node %d output %d = %v after averaging, want %v", v, i, got[i], want[i])
				}
			}
		}
	}
}

func TestOnlineResetClearsBuffers(t *testing.T) {
	cfg := easyScenario()
	cfg.Horizon = 500
	online, _ := newOnlineUnderTest(t, cfg, OnlineConfig{SyncInterval: 1e9, MinSteps: 1 << 30})
	runOnline(t, cfg, online, 3)
	nonEmpty := false
	for _, b := range online.buffers {
		nonEmpty = nonEmpty || len(b) > 0
	}
	if !nonEmpty {
		t.Fatal("expected buffered experience before reset")
	}
	online.Reset(nil)
	for v, b := range online.buffers {
		if len(b) != 0 {
			t.Errorf("node %d buffer not cleared", v)
		}
	}
}

func TestOnlineRejectsMismatchedAgent(t *testing.T) {
	cfg := easyScenario()
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := rl.NewAgent(rl.AgentConfig{ObsSize: 99, NumActions: 3, Hidden: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnline(env.Adapter(), agent, OnlineConfig{}); err == nil {
		t.Error("NewOnline accepted mismatched agent")
	}
}

func TestAverageNetworks(t *testing.T) {
	a := [][]float64{{1, 2}, {3}}
	b := [][]float64{{3, 4}, {5}}
	averageNetworks([][][]float64{a, b})
	want := [][]float64{{2, 3}, {4}}
	for blk := range want {
		for j := range want[blk] {
			if a[blk][j] != want[blk][j] || b[blk][j] != want[blk][j] {
				t.Fatalf("average wrong: a=%v b=%v want %v", a, b, want)
			}
		}
	}
	averageNetworks(nil) // must not panic
}
