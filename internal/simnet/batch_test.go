package simnet

import (
	"encoding/json"
	"math/rand"
	"testing"

	"distcoord/internal/graph"
	"distcoord/internal/traffic"
)

// rwCoord is a random-walk BatchDecider for equivalence testing: every
// decision is an independent draw from the deciding node's private
// stream, so a batched run consumes each per-node stream in exactly the
// order a sequential run would — any divergence between the two paths
// shows up as diverging metrics.
type rwCoord struct {
	rngs []*rand.Rand
}

func newRWCoord(n int, seed int64) *rwCoord {
	c := &rwCoord{rngs: make([]*rand.Rand, n)}
	for v := range c.rngs {
		c.rngs[v] = rand.New(rand.NewSource(seed + int64(v)*1000003))
	}
	return c
}

func (c *rwCoord) Name() string { return "test-randomwalk" }

func (c *rwCoord) Decide(st *State, f *Flow, v graph.NodeID, now float64) int {
	return c.rngs[v].Intn(len(st.Graph().Neighbors(v)) + 1)
}

func (c *rwCoord) DecideBatch(st *State, flows []*Flow, v graph.NodeID, now float64, actions []int) {
	for i, f := range flows {
		actions[i] = c.Decide(st, f, v, now)
	}
}

// scaleTestGraph returns a synthetic topology with uniform capacities.
func scaleTestGraph(n int, nodeCap, linkCap float64) *graph.Graph {
	g := graph.SyntheticScale(n, 0x5CA1E)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetNodeCapacity(graph.NodeID(v), nodeCap)
	}
	for l := 0; l < g.NumLinks(); l++ {
		g.SetLinkCapacity(l, linkCap)
	}
	return g
}

// batchTestConfig builds a multi-ingress scenario on a synthetic graph.
func batchTestConfig(arrivals func(int) ArrivalProcess, maxBatch int) Config {
	g := scaleTestGraph(30, 50, 50)
	ingresses := make([]Ingress, 4)
	for i := range ingresses {
		ingresses[i] = Ingress{Node: graph.NodeID(2 + 3*i), Arrivals: arrivals(i)}
	}
	return Config{
		Graph:       g,
		Service:     testService(2.5),
		Ingresses:   ingresses,
		Egress:      1,
		Template:    FlowTemplate{Rate: 1, Duration: 1, Deadline: 60},
		Horizon:     300,
		Coordinator: newRWCoord(g.NumNodes(), 7),
		MaxBatch:    maxBatch,
	}
}

// metricsJSON marshals metrics for byte-level comparison (the unexported
// quantile cache is excluded by encoding/json).
func metricsJSON(t *testing.T, m *Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	return string(b)
}

func runBatchScenario(t *testing.T, cfg Config) (*Metrics, BatchStats) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m, s.BatchStats()
}

// TestBatchedMatchesSequentialPoisson pins the core equivalence: with
// continuous random arrivals (no same-time cohorts), a batched run must
// produce byte-identical metrics to the sequential path, because every
// gather window holds exactly one flow.
func TestBatchedMatchesSequentialPoisson(t *testing.T) {
	arrivals := func(seed int64) func(int) ArrivalProcess {
		return func(i int) ArrivalProcess {
			return traffic.NewPoisson(8, rand.New(rand.NewSource(seed+int64(i))))
		}
	}
	seq, seqStats := runBatchScenario(t, batchTestConfig(arrivals(41), 0))
	bat, batStats := runBatchScenario(t, batchTestConfig(arrivals(41), 16))
	if seq.Arrived == 0 || seq.Decisions == 0 {
		t.Fatalf("degenerate scenario: %+v", seq)
	}
	if a, b := metricsJSON(t, seq), metricsJSON(t, bat); a != b {
		t.Errorf("batched metrics diverged from sequential:\nseq: %s\nbat: %s", a, b)
	}
	if seqStats != (BatchStats{}) {
		t.Errorf("sequential run reported batch stats %+v", seqStats)
	}
	if batStats.Flows != seq.Decisions {
		t.Errorf("batched run routed %d flows through DecideBatch, want all %d decisions",
			batStats.Flows, seq.Decisions)
	}
}

// TestBatchedMatchesSequentialBurst checks equivalence when real
// multi-flow batches form: burst arrivals create same-(node, time)
// cohorts, and the per-node random streams still line up because
// DecideBatch resolves flows in window order.
func TestBatchedMatchesSequentialBurst(t *testing.T) {
	arrivals := func(int) ArrivalProcess { return &traffic.Burst{Interval: 25, K: 8} }
	seq, _ := runBatchScenario(t, batchTestConfig(arrivals, 0))
	bat, stats := runBatchScenario(t, batchTestConfig(arrivals, 16))
	if a, b := metricsJSON(t, seq), metricsJSON(t, bat); a != b {
		t.Errorf("batched metrics diverged from sequential:\nseq: %s\nbat: %s", a, b)
	}
	if stats.MaxSize < 2 {
		t.Errorf("burst traffic formed no multi-flow batch: %+v", stats)
	}
}

// TestMaxBatchCapsCallSize verifies flush-on-full: a 10-flow cohort with
// MaxBatch 4 must split into DecideBatch calls of at most 4 flows.
func TestMaxBatchCapsCallSize(t *testing.T) {
	arrivals := func(i int) ArrivalProcess {
		if i == 0 {
			return &traffic.Burst{Interval: 25, K: 10}
		}
		return traffic.Fixed{Interval: 1e9}
	}
	_, stats := runBatchScenario(t, batchTestConfig(arrivals, 4))
	if stats.MaxSize > 4 {
		t.Errorf("DecideBatch call of %d flows exceeds MaxBatch 4", stats.MaxSize)
	}
	if stats.MaxSize != 4 {
		t.Errorf("10-flow bursts with MaxBatch 4 should produce a full call, got max %d", stats.MaxSize)
	}
}

// TestMaxBatchOneStaysSequential pins that MaxBatch ≤ 1 never engages
// the batcher, even for a batch-capable coordinator.
func TestMaxBatchOneStaysSequential(t *testing.T) {
	for _, mb := range []int{0, 1} {
		arrivals := func(int) ArrivalProcess { return &traffic.Burst{Interval: 25, K: 8} }
		_, stats := runBatchScenario(t, batchTestConfig(arrivals, mb))
		if stats != (BatchStats{}) {
			t.Errorf("MaxBatch=%d engaged the batcher: %+v", mb, stats)
		}
	}
}

// TestBatchFallsBackWithoutCapability pins the silent sequential
// fallback for coordinators without DecideBatch.
func TestBatchFallsBackWithoutCapability(t *testing.T) {
	g := lineGraph(3, 10, 10)
	cfg := oneFlow(g, testService(5), 2, 100, spCoord{})
	cfg.Ingresses = []Ingress{{Node: 0, Arrivals: traffic.Fixed{Interval: 10}}}
	cfg.Horizon = 11
	cfg.MaxTime = 0
	cfg.MaxBatch = 16
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.batcher != nil {
		t.Fatal("batcher engaged for a coordinator without BatchDecider")
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestNegativeMaxBatchRejected pins config validation.
func TestNegativeMaxBatchRejected(t *testing.T) {
	cfg := oneFlow(lineGraph(2, 10, 10), testService(1), 1, 100, spCoord{})
	cfg.MaxBatch = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted negative MaxBatch")
	}
}

// TestBatchedWithFaultsMatchesSequential runs the burst scenario under a
// fault schedule: fault events end gather windows, and dead nodes drop
// flows in the pre-check phase, identically on both paths.
func TestBatchedWithFaultsMatchesSequential(t *testing.T) {
	arrivals := func(int) ArrivalProcess { return &traffic.Burst{Interval: 25, K: 8} }
	faults := []Fault{
		{Time: 60, Kind: FaultNodeDown, Node: 5},
		{Time: 120, Kind: FaultNodeUp, Node: 5},
		{Time: 90, Kind: FaultLinkDown, Link: 3},
		{Time: 150, Kind: FaultLinkUp, Link: 3},
	}
	mk := func(maxBatch int) Config {
		cfg := batchTestConfig(arrivals, maxBatch)
		cfg.Faults = faults
		return cfg
	}
	seq, _ := runBatchScenario(t, mk(0))
	bat, stats := runBatchScenario(t, mk(16))
	if a, b := metricsJSON(t, seq), metricsJSON(t, bat); a != b {
		t.Errorf("batched metrics diverged under faults:\nseq: %s\nbat: %s", a, b)
	}
	if stats.MaxSize < 2 {
		t.Errorf("burst traffic formed no multi-flow batch under faults: %+v", stats)
	}
}

// TestBatchWindowAccountingWithFaultAtWindowTimestamp is the window
// accounting regression: faults landing exactly on a gather-window
// timestamp (burst cohorts arrive at t = 25, 50, 75, ...) must neither
// skew BatchStats invariants nor make the batched path diverge from the
// sequential one. A node-down at an ingress's own
// burst instant makes the same-time cohort precheck-drop without any
// decision (an empty window at that node), and a surge arrival at a
// window timestamp injects a sequentially decided flow between windows.
func TestBatchWindowAccountingWithFaultAtWindowTimestamp(t *testing.T) {
	arrivals := func(int) ArrivalProcess { return &traffic.Burst{Interval: 25, K: 8} }
	faults := []Fault{
		{Time: 50, Kind: FaultNodeDown, Node: 2}, // node 2 is the first ingress
		{Time: 75, Kind: FaultExtraArrival, Node: 5},
		{Time: 100, Kind: FaultNodeUp, Node: 2},
		{Time: 125, Kind: FaultInstanceKill, Node: 5},
	}
	mk := func(maxBatch int) Config {
		cfg := batchTestConfig(arrivals, maxBatch)
		cfg.Faults = faults
		return cfg
	}
	seq, _ := runBatchScenario(t, mk(0))
	bat, stats := runBatchScenario(t, mk(16))
	if a, b := metricsJSON(t, seq), metricsJSON(t, bat); a != b {
		t.Errorf("batched metrics diverged with faults at window timestamps:\nseq: %s\nbat: %s", a, b)
	}
	// Window accounting invariants: every counted window resolved at
	// least one flow through at least one call, no call exceeded the cap,
	// and only coordinator decisions flow through the batcher (the surge
	// flow's decisions are sequential, so Flows < Decisions).
	if stats.Windows == 0 || stats.MaxSize < 2 {
		t.Fatalf("degenerate batching: %+v", stats)
	}
	if stats.Calls < stats.Windows {
		t.Errorf("window accounting: %d windows but only %d calls", stats.Windows, stats.Calls)
	}
	if stats.Flows < stats.Calls {
		t.Errorf("window accounting: %d calls but only %d flows", stats.Calls, stats.Flows)
	}
	if stats.MaxSize > 16 {
		t.Errorf("DecideBatch call of %d flows exceeds MaxBatch 16", stats.MaxSize)
	}
	if stats.Flows >= bat.Decisions {
		t.Errorf("batcher claims %d flows but only %d decisions happened (surge flows decide sequentially)",
			stats.Flows, bat.Decisions)
	}
}
