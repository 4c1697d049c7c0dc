package coord

import (
	"math/rand"

	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/simnet"
)

// nodeState is everything one deployed node owns: its actor copy, its
// private sampling stream, and the inference scratch buffers that make
// the steady-state decide path allocation-free. Nothing here is shared
// across nodes, so nodes may decide concurrently.
type nodeState struct {
	actor *nn.MLP
	rng   *rand.Rand
	ws    *nn.Workspace
	obs   []float64
	probs []float64

	// Batched-inference buffers, allocated lazily on the node's first
	// DecideBatch call so sequential-only deployments never pay for them.
	bws      *nn.BatchWorkspace
	batchObs []float64
	bprobs   []float64
}

// Distributed is the paper's fully distributed DRL coordinator (Fig. 4b):
// after centralized training, every node v receives its own copy π_θ^v of
// the trained actor and decides for incoming flows purely from local
// observations, independently of and in parallel with all other nodes.
// It implements simnet.Coordinator.
type Distributed struct {
	adapter *Adapter
	// bank holds one actor copy, random stream, and inference workspace
	// per node — deliberately not shared, mirroring the deployment
	// architecture (and making per-node inference timing honest, Fig. 9b).
	// The same PolicyBank type, restricted to an assigned node subset,
	// is what cmd/agentd hosts on the far side of a socket.
	bank *PolicyBank

	// Stochastic samples actions from π instead of taking the argmax.
	// It defaults to true, matching the paper's stable-baselines
	// implementation (predict with deterministic=False): the trust
	// region keeps π smooth, and sampling is what breaks routing
	// symmetry — a pure argmax policy can ping-pong flows between two
	// nodes forever.
	Stochastic bool
}

// NewDistributed deploys a copy of the trained actor at each node of the
// adapter's network.
func NewDistributed(adapter *Adapter, actor *nn.MLP) (*Distributed, error) {
	bank, err := NewPolicyBank(actor, adapter.Graph().NumNodes(), nil, adapter.ObsSize(), adapter.NumActions())
	if err != nil {
		return nil, err
	}
	return &Distributed{
		adapter:    adapter,
		bank:       bank,
		Stochastic: true,
	}, nil
}

// Name implements simnet.Coordinator.
func (d *Distributed) Name() string { return "DistDRL" }

// Decide implements simnet.Coordinator: observe locally, run the node's
// own policy copy, act. The steady-state path performs zero allocations.
func (d *Distributed) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	n := &d.bank.nodes[v]
	n.obs = d.adapter.ObserveInto(n.obs, st, f, v, now)
	return n.decide(d.Stochastic)
}

// decide runs the node's policy on the observation currently in n.obs.
func (n *nodeState) decide(stochastic bool) int {
	logits := n.actor.ForwardInto(n.ws, n.obs)
	if stochastic {
		return nn.SampleCategorical(n.rng, nn.SoftmaxInto(logits, n.probs))
	}
	return nn.Argmax(logits)
}

// Reseed reinitializes the per-node sampling streams (for reproducible
// evaluation runs). Each node derives its own independent source from
// the base seed — the deployed nodes are independent decision makers,
// so they must not consume from one shared stream.
func (d *Distributed) Reseed(seed int64) { d.bank.Reseed(seed) }

// nodeSeed derives node v's stream from the base seed: a golden-ratio
// stride (splitmix-style) keeps the per-node sources decorrelated even
// for adjacent base seeds.
func nodeSeed(seed int64, v int) int64 {
	const golden = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	return seed + (int64(v)+1)*golden
}

// DecideAt runs inference for a specific node's policy copy on a
// prebuilt observation (used by the inference-latency bench, Fig. 9b).
// It routes through the same decide logic as Decide — honoring
// Stochastic — so benchmarks measure the deployed code path.
func (d *Distributed) DecideAt(v graph.NodeID, obs []float64) int {
	n := &d.bank.nodes[v]
	n.obs = append(n.obs[:0], obs...)
	return n.decide(d.Stochastic)
}
