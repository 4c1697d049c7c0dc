package main

import (
	"crypto/md5"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distcoord/internal/agentnet"
	"distcoord/internal/baselines"
	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/traffic"
)

// policyKind selects what decides a simulation workload's flows.
type policyKind int

const (
	gcaspPolicy     policyKind = iota // baselines.GCASP, no neural network
	trainedPolicy                     // the pinned Abilene 2x256 checkpoint
	untrainedPolicy                   // a seed-0 2x256 actor, as cmd/bench -scale uses
)

// numAgents is the agent server count of the remote workload, one
// connection each.
const numAgents = 2

// simSpec is a simulation workload: one scenario decided by one
// coordinator, repeated over seeded inputs.
type simSpec struct {
	scenario func() eval.Scenario
	policy   policyKind
	// stochastic samples actions instead of taking the argmax.
	stochastic bool
	// maxBatch > 1 resolves same-(node, time) cohorts in one call.
	maxBatch int
	// remote decides through agentnet servers instead of in-process.
	remote bool
	// slots is the number of distinct inputs; run seeds pick an order.
	slots int
	// table names the digest table episodes are checked against.
	table string
	// timerStride times one coordinator call in every timerStride. A
	// GCASP decide costs about as much as two clock reads, so timing all
	// of them would slow the workload it measures.
	timerStride int
}

// abileneSaturated is eval.Base at fig6b's saturated point: five
// ingresses.
func abileneSaturated() eval.Scenario {
	s := eval.Base()
	s.NumIngresses = 5
	return s
}

// scaleBurst is the 1000-node scale scenario of cmd/bench -scale: a
// synthetic topology with uniform capacities and bursts of 16 flows per
// ingress every 20 time units. Its traffic has no randomness.
func scaleBurst() eval.Scenario {
	g := graph.SyntheticScale(1000, 0x5CA1E)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetNodeCapacity(graph.NodeID(v), 40)
	}
	for l := 0; l < g.NumLinks(); l++ {
		g.SetLinkCapacity(l, 40)
	}
	return eval.Scenario{
		Graph:        g,
		IngressNodes: []graph.NodeID{2, 5, 9, 14},
		Egress:       1,
		Traffic:      traffic.BurstSpec(20, 16),
		Deadline:     100,
		Horizon:      400,
	}
}

var simSpecs = map[string]*simSpec{
	"abilene-drl": {
		scenario: eval.Base, policy: trainedPolicy, stochastic: true,
		slots: 32, table: "abilene-drl", timerStride: 1,
	},
	"abilene-gcasp": {
		scenario: abileneSaturated, policy: gcaspPolicy,
		slots: 32, table: "abilene-gcasp", timerStride: 64,
	},
	"scale-burst-1000": {
		scenario: scaleBurst, policy: untrainedPolicy, maxBatch: 16,
		slots: 1, table: "scale-burst-1000", timerStride: 1,
	},
	"abilene-remote": {
		scenario: eval.Base, policy: trainedPolicy, stochastic: true, remote: true,
		slots: 32, table: "abilene-drl", timerStride: 1,
	},
}

// fingerprint is the md5 of a run's metrics JSON, the digest cmd/bench
// uses to compare runs.
func fingerprint(m *simnet.Metrics) string {
	data, err := json.Marshal(m)
	if err != nil {
		panic(err) // Metrics holds only numbers, slices and an int-keyed map
	}
	return fmt.Sprintf("%x", md5.Sum(data))
}

// slotSeed is the instance and coordinator seed of input slot i.
func slotSeed(slot int) int64 { return int64(slot) + 1 }

// slotOrder is the order in which a run with the given seed visits the
// workload's input slots.
func slotOrder(seed int64, slots int) []int {
	return rand.New(rand.NewSource(seed)).Perm(slots)
}

// simSetup is one deployed simulation workload.
type simSetup struct {
	spec    *simSpec
	inst    *eval.Instance // slot 0's instance
	adapter *coord.Adapter
	actor   *nn.MLP // nil for GCASP
	dist    *coord.Distributed
	servers []*agentnet.Server
	addrs   []string
	// remote is the connection the remote setup's handshake opened. It
	// stays open until close, so that the heap measured after setup holds
	// its agent-side sessions whether or not the servers have noticed a
	// close yet.
	remote *coord.Remote
	times  setupTimes
}

// setupTimes are the phases of one setup.
type setupTimes struct {
	total, instantiate, deploy time.Duration
	deployHeap                 uint64 // bytes allocated while deploying
}

// setup instantiates the scenario, loads the policy and deploys it:
// one actor clone per node in-process, or agent servers plus a
// handshake for the remote workload.
func (s *simSpec) setup() (*simSetup, error) {
	t0 := time.Now()
	inst, err := s.scenario().Instantiate(slotSeed(0))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	su := &simSetup{spec: s, inst: inst, adapter: coord.NewAdapter(inst.Graph, inst.APSP)}
	if su.actor, err = loadActor(s.policy, su.adapter); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t2 := time.Now()
	switch {
	case s.remote:
		err = su.startAgents()
	case su.actor != nil:
		su.dist, err = coord.NewDistributed(su.adapter, su.actor)
		if su.dist != nil {
			su.dist.Stochastic = s.stochastic
		}
	}
	if err != nil {
		su.close()
		return nil, err
	}
	t3 := time.Now()
	runtime.ReadMemStats(&after)
	su.times = setupTimes{
		total:       t3.Sub(t0),
		instantiate: t1.Sub(t0),
		deploy:      t3.Sub(t2),
		deployHeap:  after.TotalAlloc - before.TotalAlloc,
	}
	return su, nil
}

// loadActor returns the workload's policy network, nil for GCASP.
func loadActor(kind policyKind, a *coord.Adapter) (*nn.MLP, error) {
	switch kind {
	case trainedPolicy:
		return nn.LoadVerified(policyBytes, policyHash)
	case untrainedPolicy:
		agent, err := rl.NewAgent(rl.AgentConfig{
			ObsSize:    a.ObsSize(),
			NumActions: a.NumActions(),
			Hidden:     []int{256, 256},
		})
		if err != nil {
			return nil, err
		}
		return agent.Actor, nil
	}
	return nil, nil
}

// startAgents hosts the agent servers in this process over loopback
// TCP, the same Server cmd/agentd runs, and completes one handshake
// with the fleet.
func (su *simSetup) startAgents() error {
	for i := 0; i < numAgents; i++ {
		host, err := coord.NewAgentHost(fmt.Sprintf("bench-agent-%d", i), policyBytes, "", nil)
		if err != nil {
			return err
		}
		srv := agentnet.NewServer(host.NewBackend, agentnet.ServerConfig{IdleTimeout: time.Minute})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		su.servers = append(su.servers, srv)
		su.addrs = append(su.addrs, addr.String())
	}
	var err error
	su.remote, err = su.dialRemote(0)
	return err
}

func (su *simSetup) dialRemote(slot int) (*coord.Remote, error) {
	return coord.NewRemote(su.adapter, su.addrs, slotSeed(slot), coord.RemoteOptions{
		Stochastic: su.spec.stochastic,
		Checkpoint: policyBytes,
		Client: agentnet.ClientConfig{
			Timeout:         5 * time.Second,
			ReconnectBudget: time.Second,
		},
	})
}

// close stops the agent servers and waits for their sessions to end.
func (su *simSetup) close() {
	if su.remote != nil {
		su.remote.Close()
		su.remote = nil
	}
	for _, srv := range su.servers {
		srv.Close()
	}
	su.servers = nil
}

// instance returns the instance of an input slot.
func (su *simSetup) instance(slot int) (*eval.Instance, error) {
	if slot == 0 {
		return su.inst, nil
	}
	return su.spec.scenario().Instantiate(slotSeed(slot))
}

// episode is the outcome of one simulated input.
type episode struct {
	m               *simnet.Metrics
	wall            time.Duration // inside eval.Instance.RunWith only
	failedDecisions int64
}

// runUntraced simulates one slot on the program's own coordinator,
// timing every timerStride-th call at the simulator-coordinator
// boundary into lat (microseconds).
func (su *simSetup) runUntraced(slot int, lat *timing) (episode, error) {
	inst, err := su.instance(slot)
	if err != nil {
		return episode{}, err
	}
	var c simnet.Coordinator
	var remote *coord.Remote
	switch {
	case su.spec.remote:
		if remote, err = su.dialRemote(slot); err != nil {
			return episode{}, err
		}
		defer remote.Close()
		c = remote
	case su.dist != nil:
		su.dist.Reseed(slotSeed(slot))
		c = su.dist
	default:
		c = baselines.GCASP{}
	}
	bt := &boundaryTimer{inner: c, stride: su.spec.timerStride, lat: lat}
	ep, err := su.simulate(inst, bt)
	if remote != nil {
		_, ep.failedDecisions = remote.Pool().DecideStats()
	}
	return ep, err
}

func (su *simSetup) simulate(inst *eval.Instance, c simnet.Coordinator) (episode, error) {
	t0 := time.Now()
	m, err := inst.RunWith(c, eval.RunOptions{MaxBatch: su.spec.maxBatch})
	return episode{m: m, wall: time.Since(t0)}, err
}

// boundaryTimer times coordinator calls at the simulator-coordinator
// boundary with two clock reads per timed call.
type boundaryTimer struct {
	inner  simnet.Coordinator
	stride int
	n      int
	lat    *timing
}

func (b *boundaryTimer) Name() string { return b.inner.Name() }

func (b *boundaryTimer) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	if b.n++; b.n < b.stride {
		return b.inner.Decide(st, f, v, now)
	}
	b.n = 0
	t0 := time.Now()
	a := b.inner.Decide(st, f, v, now)
	b.lat.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	return a
}

// DecideBatch times one cohort call. The simulator calls it only for
// workloads with maxBatch > 1, whose coordinator is a BatchDecider.
func (b *boundaryTimer) DecideBatch(st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64, actions []int) {
	t0 := time.Now()
	b.inner.(simnet.BatchDecider).DecideBatch(st, flows, v, now, actions)
	b.lat.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
}

// check compares an episode with the digest pinned for its slot.
func (su *simSetup) check(slot int, ep episode, err error) error {
	if err != nil {
		return err
	}
	if ep.failedDecisions != 0 {
		return fmt.Errorf("%d decisions failed", ep.failedDecisions)
	}
	want, err := pinnedDigest(su.spec.table, slot)
	if err != nil {
		return err
	}
	if got := fingerprint(ep.m); got != want {
		return fmt.Errorf("slot %d metrics digest %s, pinned %s", slot, got, want)
	}
	return nil
}

// repeatSetup runs setup at least minSetups times and until setupBudget
// has been spent, at most maxSetups times, and returns the last setup
// with every repetition's times. Collecting garbage before each
// repetition keeps the previous one's debris out of its time and lets a
// 1000-node deployment reuse its predecessor's memory.
func repeatSetup[T any](setup func() (T, setupTimes, error), release func(T)) (T, []setupTimes, error) {
	const (
		minSetups   = 3
		maxSetups   = 201
		setupBudget = time.Second
	)
	var last T
	var all []setupTimes
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			release(last)
		}
		var zero T
		last = zero
		runtime.GC()
		su, times, err := setup()
		if err != nil {
			return last, nil, err
		}
		last = su
		all = append(all, times)
		spent += times.total
	}
	return last, all, nil
}

// liveHeapMB is the live Go heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupMetrics reports the medians of the setup phases.
func setupMetrics(rep *report, all []setupTimes, traced bool) {
	total, inst, deploy, heap := meanTiming("s"), meanTiming("s"), meanTiming("s"), meanTiming("MB")
	for _, t := range all {
		total.add(t.total.Seconds())
		inst.add(t.instantiate.Seconds())
		deploy.add(t.deploy.Seconds())
		heap.add(float64(t.deployHeap) / 1e6)
	}
	rep.printf("setup x%d: total %s; instantiate %s; deploy %s\n", len(all), &total, &inst, &deploy)
	if traced {
		rep.set("eval.instantiate_s", inst.median(), "s")
		rep.set("coord.deploy_s", deploy.median(), "s")
		rep.set("coord.deploy_heap_mb", heap.median(), "MB")
		return
	}
	rep.set("setup_s", total.median(), "s")
}

func (s *simSpec) run(cfg runConfig, rep *report) error {
	su, all, err := repeatSetup(func() (*simSetup, setupTimes, error) {
		su, err := s.setup()
		if err != nil {
			return nil, setupTimes{}, err
		}
		return su, su.times, nil
	}, (*simSetup).close)
	if err != nil {
		return err
	}
	defer su.close()
	setupMetrics(rep, all, cfg.trace)
	heap := liveHeapMB()

	order := slotOrder(cfg.seed, s.slots)
	lat := usTiming()
	// The first episode warms caches and lazily built buffers; it is
	// checked but not timed.
	ep, err := su.runUntraced(order[0], &lat)
	rep.op("warm-up episode", su.check(order[0], ep, err))
	lat = usTiming()

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2 // the same episodes run once more, traced
	}
	var done []int
	var tot simTotals
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < budget; i++ {
		slot := order[i%len(order)]
		ep, err := su.runUntraced(slot, &lat)
		rep.op(fmt.Sprintf("episode slot %d", slot), su.check(slot, ep, err))
		if err == nil {
			tot.add(ep)
		}
		done = append(done, slot)
	}
	rep.printf("%d episodes, %d flows, %.3f s simulated wall; success %.4f, %.2f decisions per flow\n",
		tot.episodes, tot.arrived, tot.wall.Seconds(), tot.successRatio(), ratio(float64(tot.decisions), float64(tot.arrived)))
	rep.printf("decide latency (one call in %d timed): %s\n", s.timerStride, &lat)
	if cfg.trace {
		rep.set("decide_p99_us", lat.at(99), "us")
		return su.runTraced(done, tot.wall, rep)
	}
	rep.set("flows_per_s", perSecond(float64(tot.arrived), tot.wall.Seconds()), "1/s")
	rep.set("steps_per_s", perSecond(float64(tot.decisions), tot.wall.Seconds()), "1/s")
	rep.set("decide_p50_us", lat.median(), "us")
	rep.set("peak_heap_mb", heap, "MB")
	return nil
}

// simTotals sums episodes.
type simTotals struct {
	episodes                                int
	arrived, decisions, forwards, processes int
	succeeded, dropped                      int
	failedDecisions                         int64
	wall                                    time.Duration
}

func (t *simTotals) add(ep episode) {
	t.episodes++
	t.arrived += ep.m.Arrived
	t.decisions += ep.m.Decisions
	t.forwards += ep.m.Forwards
	t.processes += ep.m.Processings
	t.succeeded += ep.m.Succeeded
	t.dropped += ep.m.Dropped
	t.failedDecisions += ep.failedDecisions
	t.wall += ep.wall
}

func (t *simTotals) successRatio() float64 {
	return ratio(float64(t.succeeded), float64(t.succeeded+t.dropped))
}
