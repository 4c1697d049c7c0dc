package coord

import (
	"errors"
	"fmt"
	"math/rand"

	"distcoord/internal/graph"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
)

// Online implements the paper's proposed extension (Sec. IV-C1):
// continuous online training during distributed inference. Every node
// keeps its own actor-critic copy and a local experience buffer of the
// decisions it made; periodically, each node performs a local update
// from its buffer and all nodes synchronize by federated weight
// averaging (cf. FedAvg [36], [37]). Between synchronization points the
// nodes act purely locally, so online inference is never blocked by
// training.
//
// Online implements simnet.Coordinator plus the Ticker (periodic
// update/sync), FlowObserver (reward observation), and Resetter
// capabilities. Setting it as a simulation's Coordinator is enough: the
// simulator discovers the capabilities at construction and attaches the
// listener automatically (configuring it additionally as Listener is
// deduplicated).
type Online struct {
	adapter *Adapter
	cfg     OnlineConfig

	agents   []*rl.Agent        // one per node
	scratch  []*rl.Scratch      // per node: reusable inference buffers
	bscratch []*rl.BatchScratch // per node: batched-inference buffers, lazily filled
	rngs     []*rand.Rand       // per node: private sampling stream
	buffers  [][]rl.Trajectory  // per node: single-step trajectories with precomputed returns
	open     map[int]*onlineTrace
	shaper   *shaper

	// Updates counts local update rounds performed (diagnostics).
	Updates int
	// Syncs counts federated averaging rounds (diagnostics).
	Syncs int
}

// OnlineConfig parameterizes continuous online training.
type OnlineConfig struct {
	// SyncInterval is the simulated time between local-update +
	// weight-averaging rounds. Default 200.
	SyncInterval float64
	// MinSteps is the minimum buffered decision count a node needs
	// before it runs a local update. Default 32.
	MinSteps int
	// Gamma is the discount factor for online returns. Default 0.99.
	Gamma float64
	// Rewards configures the shaped reward; zero value selects the
	// paper's defaults.
	Rewards RewardConfig
	// Seed drives action sampling.
	Seed int64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 200
	}
	if c.MinSteps <= 0 {
		c.MinSteps = 32
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.Rewards == (RewardConfig{}) {
		c.Rewards = DefaultRewards()
	}
	return c
}

// onlineTrace accumulates one flow's decision steps across nodes.
type onlineTrace struct {
	nodes   []graph.NodeID
	steps   []rl.Step
	pending rl.Step
	node    graph.NodeID
	reward  float64
	active  bool
}

// NewOnline deploys a per-node copy of the given trained agent and
// prepares continuous online training.
func NewOnline(adapter *Adapter, trained *rl.Agent, cfg OnlineConfig) (*Online, error) {
	if trained.Actor.InputSize() != adapter.ObsSize() {
		return nil, errors.New("coord: trained actor does not match adapter observation size")
	}
	cfg = cfg.withDefaults()
	n := adapter.Graph().NumNodes()
	o := &Online{
		adapter:  adapter,
		cfg:      cfg,
		agents:   make([]*rl.Agent, n),
		scratch:  make([]*rl.Scratch, n),
		bscratch: make([]*rl.BatchScratch, n),
		rngs:     make([]*rand.Rand, n),
		buffers:  make([][]rl.Trajectory, n),
		open:     make(map[int]*onlineTrace),
		shaper:   newShaper(cfg.Rewards, adapter.Diameter()),
	}
	base := trained.Config()
	for v := 0; v < n; v++ {
		agent, err := rl.NewAgent(rl.AgentConfig{
			ObsSize:     base.ObsSize,
			NumActions:  base.NumActions,
			Hidden:      base.Hidden,
			Gamma:       cfg.Gamma,
			LR:          base.LR,
			EntropyCoef: base.EntropyCoef,
			ValueCoef:   base.ValueCoef,
			MaxGradNorm: base.MaxGradNorm,
			KLLimit:     base.KLLimit,
			Seed:        cfg.Seed + int64(v),
		})
		if err != nil {
			return nil, fmt.Errorf("coord: building online agent for node %d: %w", v, err)
		}
		if err := agent.Actor.CopyWeightsFrom(trained.Actor); err != nil {
			return nil, err
		}
		if err := agent.Critic.CopyWeightsFrom(trained.Critic); err != nil {
			return nil, err
		}
		o.agents[v] = agent
		o.scratch[v] = agent.NewScratch()
		// Per-node sampling streams, matching the independent-deployment
		// model (cf. Distributed.Reseed).
		o.rngs[v] = rand.New(rand.NewSource(nodeSeed(cfg.Seed, v)))
	}
	return o, nil
}

// Name implements simnet.Coordinator.
func (o *Online) Name() string { return "DistDRL-online" }

// Decide implements simnet.Coordinator: sample from the node's own
// current policy and record the decision for its local buffer.
func (o *Online) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	// The observation is retained in the node's experience buffer, so it
	// must be freshly allocated here (unlike Distributed's reused buffer).
	obs := o.adapter.Observe(st, f, v, now)
	action := o.agents[v].SampleActionWith(o.scratch[v], obs, o.rngs[v])

	ft := o.open[f.ID]
	if ft == nil {
		ft = &onlineTrace{}
		o.open[f.ID] = ft
	}
	ft.closePending()
	ft.pending = rl.Step{Obs: obs, Action: action}
	ft.node = v
	ft.active = true
	return action
}

func (ft *onlineTrace) closePending() {
	if !ft.active {
		return
	}
	ft.pending.Reward = ft.reward
	ft.steps = append(ft.steps, ft.pending)
	ft.nodes = append(ft.nodes, ft.node)
	ft.reward = 0
	ft.active = false
}

// OnAction implements simnet.Listener.
func (o *Online) OnAction(f *simnet.Flow, v graph.NodeID, now float64, action int, res simnet.ActionResult) {
	ft := o.open[f.ID]
	if ft == nil || !ft.active {
		return
	}
	switch res.Kind {
	case simnet.ActionForwarded:
		ft.reward += o.shaper.link(o.adapter.Graph().Link(res.Link).Delay)
	case simnet.ActionKept:
		ft.reward += o.shaper.keep()
	}
}

// OnTraversed implements simnet.Listener.
func (o *Online) OnTraversed(f *simnet.Flow, v graph.NodeID, now float64) {
	if ft := o.open[f.ID]; ft != nil && ft.active {
		ft.reward += o.shaper.traverse(f.Service.Len())
	}
}

// OnFlowEnd implements simnet.Listener: compute the flow's discounted
// returns and hand each decision step to the buffer of the node that
// took it.
func (o *Online) OnFlowEnd(f *simnet.Flow, success bool, cause simnet.DropCause, now float64) {
	ft := o.open[f.ID]
	if ft == nil {
		return
	}
	if ft.active {
		if success {
			ft.reward += o.cfg.Rewards.Complete
		} else {
			ft.reward += o.cfg.Rewards.Drop
		}
		ft.closePending()
	}
	// Discounted returns over the flow's full trajectory; each step then
	// becomes a single-step trajectory (return as reward) in its node's
	// local buffer.
	g := 0.0
	for i := len(ft.steps) - 1; i >= 0; i-- {
		g = ft.steps[i].Reward + o.cfg.Gamma*g
		step := ft.steps[i]
		step.Reward = g
		v := ft.nodes[i]
		o.buffers[v] = append(o.buffers[v], rl.Trajectory{Steps: []rl.Step{step}})
	}
	delete(o.open, f.ID)
}

// Interval implements simnet.Ticker.
func (o *Online) Interval() float64 { return o.cfg.SyncInterval }

// Tick implements simnet.Ticker: run local updates on every node with
// enough experience, then federated-average the weights across all
// nodes.
func (o *Online) Tick(st *simnet.State, now float64) {
	updated := false
	for v := range o.agents {
		if len(o.buffers[v]) < o.cfg.MinSteps {
			continue
		}
		if _, err := o.agents[v].Update(o.buffers[v]); err == nil {
			o.Updates++
			updated = true
		}
		o.buffers[v] = nil
	}
	if updated {
		o.average()
		o.Syncs++
	}
}

// average performs FedAvg-style weight synchronization: every parameter
// becomes the mean over all node copies.
func (o *Online) average() {
	averageNetworks(paramsOf(o.agents, func(a *rl.Agent) [][]float64 { return a.Actor.Params() }))
	averageNetworks(paramsOf(o.agents, func(a *rl.Agent) [][]float64 { return a.Critic.Params() }))
	for _, a := range o.agents {
		a.Actor.Refresh()
		a.Critic.Refresh()
	}
}

func paramsOf(agents []*rl.Agent, get func(*rl.Agent) [][]float64) [][][]float64 {
	out := make([][][]float64, len(agents))
	for i, a := range agents {
		out[i] = get(a)
	}
	return out
}

// averageNetworks averages aligned parameter slices in place.
func averageNetworks(all [][][]float64) {
	if len(all) == 0 {
		return
	}
	n := float64(len(all))
	for block := range all[0] {
		for j := range all[0][block] {
			sum := 0.0
			for _, params := range all {
				sum += params[block][j]
			}
			mean := sum / n
			for _, params := range all {
				params[block][j] = mean
			}
		}
	}
}

// Reset implements simnet.Resetter: drop buffered experience and open
// traces (weights persist — online learning carries across runs).
func (o *Online) Reset(*simnet.State) {
	o.open = make(map[int]*onlineTrace)
	for v := range o.buffers {
		o.buffers[v] = nil
	}
}

// AgentAt exposes node v's current agent (tests and diagnostics).
func (o *Online) AgentAt(v graph.NodeID) *rl.Agent { return o.agents[v] }
