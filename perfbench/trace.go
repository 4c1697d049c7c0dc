package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distcoord/internal/baselines"
	"distcoord/internal/coord"
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/simnet"
)

// ledger attributes a traced wall time to layers. Each layer's share is
// the time spent inside calls to its public functions; the simulator's
// share is the remainder, so the layers sum to the wall exactly.
type ledger struct {
	wall  int64
	names []string
	ns    map[string]int64
}

func newLedger() *ledger { return &ledger{ns: map[string]int64{}} }

func (l *ledger) add(name string, ns int64) {
	if _, ok := l.ns[name]; !ok {
		l.names = append(l.names, name)
	}
	l.ns[name] += ns
}

// layerNS is the time one layer spent inside coordinator calls.
type layerNS struct {
	name string
	ns   int64
}

// addEpisode books one traced episode: wall is its simulation wall
// time, and layers tile the time spent inside coordinator calls.
func (l *ledger) addEpisode(wall time.Duration, layers []layerNS) {
	l.wall += wall.Nanoseconds()
	var inCalls int64
	for _, x := range layers {
		inCalls += x.ns
	}
	l.add("simnet.self", wall.Nanoseconds()-inCalls)
	for _, x := range layers {
		l.add(x.name, x.ns)
	}
}

func (l *ledger) sum() int64 {
	var s int64
	for _, n := range l.ns {
		s += n
	}
	return s
}

func (l *ledger) print(rep *report) {
	rep.printf("ledger over %.3f s traced wall:\n", float64(l.wall)/1e9)
	for _, name := range l.names {
		rep.printf("  %-22s %12.3f ms %7.2f%%\n", name, float64(l.ns[name])/1e6, 100*ratio(float64(l.ns[name]), float64(l.wall)))
	}
	rep.printf("  %-22s %12.3f ms (layers sum %d ns, wall %d ns)\n", "total", float64(l.sum())/1e6, l.sum(), l.wall)
}

// tracer is a coordinator that times the calls it makes into the
// program's layers. drain returns the per-layer time spent inside its
// calls since the last drain.
type tracer interface {
	simnet.Coordinator
	drain() []layerNS
	failures() int64
}

// tracedDRL decides like coord.Distributed, composed from the public
// layer calls it times: Adapter.ObserveInto builds the observation and
// PolicyBank.DecideObs or DecideRows picks the action. Its bank is
// reseeded like Distributed, so it decides identically.
type tracedDRL struct {
	adapter    *coord.Adapter
	bank       *coord.PolicyBank
	stochastic bool

	obs, rows           []float64
	observeNS, decideNS int64
	observe, decide     timing // ns per observation row
	calls, rowsDecided  int
	errs                int64
	capture             rowCapture
}

func newTracedDRL(a *coord.Adapter, actor *nn.MLP, stochastic bool) (*tracedDRL, error) {
	bank, err := coord.NewPolicyBank(actor, a.Graph().NumNodes(), nil, a.ObsSize(), a.NumActions())
	if err != nil {
		return nil, err
	}
	return &tracedDRL{
		adapter:    a,
		bank:       bank,
		stochastic: stochastic,
		observe:    nsTiming(),
		decide:     nsTiming(),
		capture:    rowCapture{width: a.ObsSize(), every: 16, maxRows: 2048},
	}, nil
}

func (t *tracedDRL) Name() string { return "DistDRL" }

func (t *tracedDRL) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	t0 := time.Now()
	t.obs = t.adapter.ObserveInto(t.obs, st, f, v, now)
	t1 := time.Now()
	a, err := t.bank.DecideObs(int(v), t.obs, t.stochastic)
	t2 := time.Now()
	t.book(t1.Sub(t0), t2.Sub(t1), 1)
	t.capture.single(t.obs)
	if err != nil {
		t.errs++
		return -1
	}
	return a
}

func (t *tracedDRL) DecideBatch(st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64, actions []int) {
	k := len(flows)
	if k == 0 {
		return
	}
	w := t.adapter.ObsSize()
	if cap(t.rows) < k*w {
		t.rows = make([]float64, k*w)
	}
	rows := t.rows[:k*w]
	t0 := time.Now()
	for r, f := range flows {
		t.adapter.ObserveInto(rows[r*w:r*w:(r+1)*w], st, f, v, now)
	}
	t1 := time.Now()
	err := t.bank.DecideRows(int(v), rows, k, t.stochastic, actions)
	t2 := time.Now()
	t.book(t1.Sub(t0), t2.Sub(t1), k)
	t.capture.cohort(rows, k)
	if err != nil {
		t.errs++
		for i := range actions[:k] {
			actions[i] = -1
		}
	}
}

func (t *tracedDRL) book(observe, decide time.Duration, k int) {
	t.observeNS += observe.Nanoseconds()
	t.decideNS += decide.Nanoseconds()
	t.observe.add(float64(observe.Nanoseconds()) / float64(k))
	t.decide.add(float64(decide.Nanoseconds()) / float64(k))
	t.calls++
	t.rowsDecided += k
}

func (t *tracedDRL) drain() []layerNS {
	l := []layerNS{{"coord.observe", t.observeNS}, {"coord.decide", t.decideNS}}
	t.observeNS, t.decideNS = 0, 0
	return l
}

func (t *tracedDRL) failures() int64 { return t.errs }

// tracedGCASP times every baselines.GCASP decision for the ledger and
// keeps one sample in sampleEvery: a saturated run makes millions.
type tracedGCASP struct {
	ns     int64
	n      int
	decide timing
}

const sampleEvery = 16

func (t *tracedGCASP) Name() string { return "GCASP" }

func (t *tracedGCASP) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	t0 := time.Now()
	a := baselines.GCASP{}.Decide(st, f, v, now)
	d := time.Since(t0).Nanoseconds()
	t.ns += d
	if t.n++; t.n%sampleEvery == 0 {
		t.decide.add(float64(d))
	}
	return a
}

func (t *tracedGCASP) drain() []layerNS {
	l := []layerNS{{"baselines.decide", t.ns}}
	t.ns = 0
	return l
}

func (t *tracedGCASP) failures() int64 { return 0 }

// agentnetSpans names the sub-spans of a remote decision round trip, in
// the order of simnet.DecideTiming.
var agentnetSpans = [...]string{"agentnet.send", "agentnet.net", "agentnet.queue", "agentnet.infer", "agentnet.return"}

// tracedRemote times each coord.Remote decision and splits its round
// trip with the decomposition Remote.LastDecideTiming reports.
type tracedRemote struct {
	r      *coord.Remote
	callNS int64
	spanNS [len(agentnetSpans)]int64
	spans  [len(agentnetSpans)]timing
}

func newTracedRemote() *tracedRemote {
	t := &tracedRemote{}
	for i := range t.spans {
		t.spans[i] = nsTiming()
	}
	return t
}

func (t *tracedRemote) Name() string { return t.r.Name() }

func (t *tracedRemote) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	t0 := time.Now()
	a := t.r.Decide(st, f, v, now)
	t.callNS += time.Since(t0).Nanoseconds()
	if tm, ok := t.r.LastDecideTiming(); ok {
		for i, ns := range [...]int64{tm.SendNS, tm.NetNS, tm.QueueNS, tm.InferNS, tm.ReturnNS} {
			t.spanNS[i] += ns
			t.spans[i].add(float64(ns))
		}
	}
	return a
}

// drain books the part of each call outside the round trip, which
// includes building the observation, to coord.remote.
func (t *tracedRemote) drain() []layerNS {
	l := []layerNS{{"coord.remote", t.callNS}}
	for i, ns := range t.spanNS {
		l[0].ns -= ns
		l = append(l, layerNS{agentnetSpans[i], ns})
		t.spanNS[i] = 0
	}
	t.callNS = 0
	return l
}

func (t *tracedRemote) failures() int64 {
	_, failed := t.r.Pool().DecideStats()
	return failed
}

// rowCapture keeps a sample of the observation rows a traced run
// decided on, for replay through the nn layer.
type rowCapture struct {
	width, every, maxRows int
	n                     int
	rows                  []float64   // single rows, flat
	cohorts               [][]float64 // batched cohorts, flat rows each
}

func (c *rowCapture) full() bool { return len(c.rows) >= c.maxRows*c.width }

func (c *rowCapture) single(obs []float64) {
	if c.n++; c.n%c.every != 0 || c.full() {
		return
	}
	c.rows = append(c.rows, obs...)
}

func (c *rowCapture) cohort(rows []float64, k int) {
	if c.n++; c.n%c.every != 0 || c.full() {
		return
	}
	c.rows = append(c.rows, rows...)
	if k > 1 {
		c.cohorts = append(c.cohorts, append([]float64(nil), rows...))
	}
}

// nnSplit is the nn layer's cost per row, measured by replaying
// captured observation rows. Each sample is the mean over a chunk of
// rows, so clock reads stay small against the calls they time.
type nnSplit struct {
	forward, forwardBatch, softmax, sample timing
}

// replayNN replays captured rows through MLP.ForwardInto, SoftmaxInto
// and SampleCategorical one row at a time, and through ForwardBatchInto
// in the captured cohorts (in groups of 16 rows when the run decided
// rows one at a time).
func replayNN(actor *nn.MLP, c *rowCapture) nnSplit {
	const chunk = 32
	const batchRows = 16
	s := nnSplit{forward: meanTiming("ns"), forwardBatch: meanTiming("ns"), softmax: meanTiming("ns"), sample: meanTiming("ns")}
	w, na := actor.InputSize(), actor.OutputSize()
	n := len(c.rows) / w
	logits := make([]float64, n*na)
	probs := make([]float64, n*na)
	actions := make([]int, n)
	ws := actor.NewWorkspace()
	rng := rand.New(rand.NewSource(1))
	chunks := func(t *timing, f func(i int)) {
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				f(i)
			}
			t.add(float64(time.Since(t0).Nanoseconds()) / float64(hi-lo))
		}
	}
	forward := func(i int) { copy(logits[i*na:(i+1)*na], actor.ForwardInto(ws, c.rows[i*w:(i+1)*w])) }
	// A first untimed pass brings the weights into cache, as the live
	// run's steady state has them.
	for i := 0; i < n; i++ {
		forward(i)
	}
	chunks(&s.forward, forward)
	chunks(&s.softmax, func(i int) { nn.SoftmaxInto(logits[i*na:(i+1)*na], probs[i*na:(i+1)*na]) })
	chunks(&s.sample, func(i int) { actions[i] = nn.SampleCategorical(rng, probs[i*na:(i+1)*na]) })

	cohorts := c.cohorts
	if len(cohorts) == 0 {
		for lo := 0; lo+batchRows <= n; lo += batchRows {
			cohorts = append(cohorts, c.rows[lo*w:(lo+batchRows)*w])
		}
	}
	bws := actor.NewBatchWorkspace()
	for _, rows := range cohorts {
		k := len(rows) / w
		t0 := time.Now()
		actor.ForwardBatchInto(bws, rows, k)
		s.forwardBatch.add(float64(time.Since(t0).Nanoseconds()) / float64(k))
	}
	return s
}

// runTraced runs the untraced run's episodes once more, traced, checks
// them against the same pinned digests, and reports the ledger.
func (su *simSetup) runTraced(slots []int, untracedWall time.Duration, rep *report) error {
	var drl *tracedDRL
	var gcasp *tracedGCASP
	var remote *tracedRemote
	var tr tracer
	switch {
	case su.spec.remote:
		remote = newTracedRemote()
		tr = remote
	case su.actor != nil:
		// The traced bank replaces the in-process deployment rather than
		// doubling a 1000-node deployment's memory.
		su.dist = nil
		runtime.GC()
		var err error
		if drl, err = newTracedDRL(su.adapter, su.actor, su.spec.stochastic); err != nil {
			return err
		}
		tr = drl
	default:
		gcasp = &tracedGCASP{decide: nsTiming()}
		tr = gcasp
	}

	led := newLedger()
	var tot simTotals
	for _, slot := range slots {
		ep, err := su.runTracedEpisode(slot, tr, drl, remote)
		rep.op(fmt.Sprintf("traced episode slot %d", slot), su.check(slot, ep, err))
		layers := tr.drain()
		if err != nil {
			continue
		}
		tot.add(ep)
		led.addEpisode(ep.wall, layers)
	}
	if led.sum() != led.wall {
		return fmt.Errorf("ledger layers sum to %d ns, traced wall is %d ns", led.sum(), led.wall)
	}
	led.print(rep)
	flows := float64(tot.arrived)
	rep.printf("%d traced episodes, %d flows; untraced wall %.3f s, traced wall %.3f s\n",
		tot.episodes, tot.arrived, untracedWall.Seconds(), tot.wall.Seconds())
	rep.set("trace.overhead_pct", 100*(ratio(tot.wall.Seconds(), untracedWall.Seconds())-1), "%")
	rep.set("simnet.self_ns_per_flow", ratio(float64(led.ns["simnet.self"]), flows), "ns")
	rep.set("simnet.decisions_per_flow", ratio(float64(tot.decisions), flows), "count")
	rep.set("simnet.forwards_per_flow", ratio(float64(tot.forwards), flows), "count")
	rep.set("simnet.processings_per_flow", ratio(float64(tot.processes), flows), "count")
	rep.set("simnet.success_ratio", tot.successRatio(), "ratio")

	switch {
	case drl != nil:
		rep.printf("coord.observe per row: %s\n", &drl.observe)
		rep.printf("coord.decide per row: %s\n", &drl.decide)
		rep.set("coord.observe_ns", drl.observe.median(), "ns")
		rep.set("coord.decide_ns", drl.decide.median(), "ns")
		rep.set("coord.batch_rows", ratio(float64(drl.rowsDecided), float64(drl.calls)), "count")
		reportNN(rep, replayNN(su.actor, &drl.capture))
	case gcasp != nil:
		rep.printf("baselines.decide per call (two clock reads included): %s\n", &gcasp.decide)
		rep.set("baselines.decide_ns", gcasp.decide.median(), "ns")
	case remote != nil:
		for i, name := range agentnetSpans {
			rep.printf("%s per decision: %s\n", name, &remote.spans[i])
			rep.set(name+"_ns", remote.spans[i].median(), "ns")
		}
		rep.set("agentnet.failed_decisions", float64(tot.failedDecisions), "count")
	}
	return nil
}

// runTracedEpisode simulates one slot under the tracer, reseeded or
// redialed for the slot exactly as the untraced run is.
func (su *simSetup) runTracedEpisode(slot int, tr tracer, drl *tracedDRL, remote *tracedRemote) (episode, error) {
	inst, err := su.instance(slot)
	if err != nil {
		return episode{}, err
	}
	switch {
	case drl != nil:
		drl.bank.Reseed(slotSeed(slot))
		drl.errs = 0
	case remote != nil:
		r, err := su.dialRemote(slot)
		if err != nil {
			return episode{}, err
		}
		defer r.Close()
		remote.r = r
	}
	ep, err := su.simulate(inst, tr)
	ep.failedDecisions = tr.failures()
	return ep, err
}

// reportNN reports the nn split replayed from captured rows.
func reportNN(rep *report, s nnSplit) {
	rep.printf("nn.forward per row: %s\n", &s.forward)
	rep.printf("nn.forward_batch per row: %s\n", &s.forwardBatch)
	rep.printf("nn.softmax per row: %s\n", &s.softmax)
	rep.printf("nn.sample per row: %s\n", &s.sample)
	rep.set("nn.forward_ns", s.forward.median(), "ns")
	rep.set("nn.forward_batch_ns_per_row", s.forwardBatch.median(), "ns")
	rep.set("nn.softmax_ns", s.softmax.median(), "ns")
	rep.set("nn.sample_ns", s.sample.median(), "ns")
}
