package coord

import (
	"fmt"

	"distcoord/internal/agentnet"
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/simnet"
	"distcoord/internal/telemetry"
)

// RemoteOptions configures a Remote coordinator.
type RemoteOptions struct {
	// Stochastic mirrors Distributed.Stochastic; it is shipped to the
	// agents at handshake (they do the sampling). Defaults true via
	// NewRemote, matching Distributed.
	Stochastic bool
	// Checkpoint, when non-nil, is the serialized policy the fleet must
	// run: any agent advertising a different model hash gets it pushed
	// (requires the agent to grant CapModelPush). When nil, every agent
	// must already advertise the same hash — a heterogeneous fleet is
	// refused at construction, not discovered as skewed metrics later.
	Checkpoint []byte
	// Client tunes the per-agent connections (timeouts, backoff).
	Client agentnet.ClientConfig
	// ObserveRTT receives each decision round trip in microseconds.
	ObserveRTT func(us float64)
	// Metrics, when non-nil, receives the fleet telemetry series
	// (agent.<slot>.* gauges, counters and RTT histograms) so the agent
	// health shows up on the run's observability endpoints alongside the
	// simulator metrics. Nil keeps fleet telemetry private to the pool.
	Metrics *telemetry.Registry
	// Logf receives connection lifecycle lines; nil silences them.
	Logf func(format string, args ...any)
}

// Remote implements simnet.Coordinator by forwarding decisions to a
// fleet of agent daemons over agentnet. The simulator side builds
// observation rows exactly like Distributed does; the rows cross the
// socket; the agent's PolicyBank (same actor weights, same per-node stream
// derivation) samples the action. For a healthy fleet a remote run is
// therefore metric-identical to an in-process Distributed run with the
// same seed — the equivalence oracle tests pin this.
//
// A dead agent degrades, not crashes, the run: after the client's
// reconnect budget a decision fails and Remote answers with an invalid
// action, which the engine records as a DropInvalidAction for that flow.
// Dropped traffic at the dead agent's nodes is precisely the observable
// a recovery tracker should see during an agent-kill chaos run.
type Remote struct {
	adapter    *Adapter
	pool       *agentnet.Pool
	stochastic bool

	// OnTime, when set, observes every decision's event time before the
	// decision is dispatched. The driver uses it to fire scheduled
	// agent-kill faults at simulation time rather than wall time.
	OnTime func(now float64)

	obs     []float64
	rows    []float64
	scratch []int32

	// span counts decision round trips, giving every RPC a unique span ID
	// carried in the wire frame (trace correlation across processes).
	span uint64
	// lastTiming holds the sub-span decomposition of the most recent round
	// trip; hasTiming guards the first-decision case. Single simulation
	// goroutine — no locking.
	lastTiming simnet.DecideTiming
	hasTiming  bool
}

// NewRemote dials every endpoint, verifies or pushes the policy, and
// returns a coordinator ready for a run seeded with seed (the agents'
// per-node sampling streams derive from it, like Distributed.Reseed).
func NewRemote(adapter *Adapter, endpoints []string, seed int64, opts RemoteOptions) (*Remote, error) {
	hello := agentnet.Hello{
		Seed:       seed,
		Stochastic: opts.Stochastic,
		ObsSize:    uint32(adapter.ObsSize()),
		NumActions: uint32(adapter.NumActions()),
		WantCaps:   agentnet.CapBatch | agentnet.CapModelPush,
	}
	var wantHash string
	if opts.Checkpoint != nil {
		wantHash = nn.Checksum(opts.Checkpoint)
		hello.ModelHash = wantHash
	}
	pool, err := agentnet.DialPool(endpoints, hello, adapter.Graph().NumNodes(), agentnet.PoolConfig{
		Client:     opts.Client,
		ObserveRTT: opts.ObserveRTT,
		Metrics:    opts.Metrics,
		Logf:       opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	r := &Remote{
		adapter:    adapter,
		pool:       pool,
		stochastic: opts.Stochastic,
		obs:        make([]float64, 0, adapter.ObsSize()),
	}
	if err := r.ensureModel(wantHash, opts.Checkpoint); err != nil {
		pool.Close()
		return nil, err
	}
	return r, nil
}

// ensureModel brings every agent onto one policy: push when we hold the
// checkpoint, verify hash agreement when we don't.
func (r *Remote) ensureModel(wantHash string, checkpoint []byte) error {
	if checkpoint != nil {
		for i := 0; i < r.pool.NumAgents(); i++ {
			c := r.pool.Agent(i)
			if c.Ack().ModelHash == wantHash {
				continue
			}
			if c.Ack().Caps&agentnet.CapModelPush == 0 {
				return fmt.Errorf("coord: agent %d (%s) runs model %.12s..., wants %.12s..., and did not negotiate model push",
					i, c.Addr(), c.Ack().ModelHash, wantHash)
			}
			if err := c.PushModel(wantHash, checkpoint); err != nil {
				return err
			}
		}
		return nil
	}
	first := r.pool.Agent(0).Ack().ModelHash
	for i := 1; i < r.pool.NumAgents(); i++ {
		if h := r.pool.Agent(i).Ack().ModelHash; h != first {
			return fmt.Errorf("coord: heterogeneous fleet: agent 0 runs %.12s..., agent %d runs %.12s... (push a model to reconcile)",
				first, i, h)
		}
	}
	return nil
}

// Name implements simnet.Coordinator.
func (r *Remote) Name() string { return "RemoteDRL" }

// Decide implements simnet.Coordinator: observe locally, ship the row to
// the node's agent, return its sampled action. A transport failure maps
// to an invalid action (the engine drops the flow) — the simulation
// keeps going with the dead agent's nodes visibly degraded.
func (r *Remote) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	if r.OnTime != nil {
		r.OnTime(now)
	}
	r.obs = r.adapter.ObserveInto(r.obs, st, f, v, now)
	r.span++
	a, err := r.pool.Decide(int(v), now, uint64(f.ID), r.span, r.obs)
	r.recordTiming(int(v))
	if err != nil {
		return -1
	}
	return int(a)
}

// recordTiming converts the pool's last round-trip decomposition for node
// into the simulator-side DecideTiming consumed via the DecisionTimer
// capability. Failed round trips still tile (total == send), so chaos
// runs attribute reconnect stalls to the client-send sub-span.
func (r *Remote) recordTiming(node int) {
	t := r.pool.LastRPCTiming(node)
	r.lastTiming = simnet.DecideTiming{
		TotalNS:  t.TotalNS,
		SendNS:   t.SendNS,
		NetNS:    t.NetNS,
		QueueNS:  t.QueueNS,
		InferNS:  t.InferNS,
		ReturnNS: t.ReturnNS,
	}
	r.hasTiming = t.TotalNS != 0
}

// LastDecideTiming implements simnet.DecisionTimer.
func (r *Remote) LastDecideTiming() (simnet.DecideTiming, bool) {
	return r.lastTiming, r.hasTiming
}

// DecideBatch implements simnet.BatchDecider by shipping the whole
// same-node cohort in one round trip. Only used when every agent granted
// CapBatch (see Capabilities).
func (r *Remote) DecideBatch(st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64, actions []int) {
	k := len(flows)
	if k == 0 {
		return
	}
	if r.OnTime != nil {
		r.OnTime(now)
	}
	r.rows = observeRows(r.adapter, r.rows, st, flows, v, now)
	r.span++
	got, err := r.pool.DecideBatch(int(v), now, r.span, r.adapter.ObsSize(), r.rows)
	r.recordTiming(int(v))
	if err != nil || len(got) != k {
		for i := range actions[:k] {
			actions[i] = -1
		}
		return
	}
	for i, a := range got {
		actions[i] = int(a)
	}
}

// Capabilities implements simnet.CapsProvider: Remote's effective
// capability set is negotiated, not a property of its Go type. Batch is
// only advertised when every agent in the fleet granted CapBatch — a
// cohort can land on any node, hence any agent.
func (r *Remote) Capabilities() simnet.Caps {
	caps := simnet.Caps{Timing: r}
	if r.pool.Caps()&agentnet.CapBatch != 0 {
		caps.Batch = r
	}
	return caps
}

// Pool exposes the agent registry (kill/revive hooks, RTT stats, agent
// IDs) to the driver.
func (r *Remote) Pool() *agentnet.Pool { return r.pool }

// Close releases all agent connections.
func (r *Remote) Close() error { return r.pool.Close() }
