package simnet

import (
	"distcoord/internal/graph"
)

// BatchDecider is an optional Coordinator capability for batched
// inference: resolve the decisions of several flows pending at the same
// node and event time with one call. Implementations must fill
// actions[i] with the decision for flows[i], resolve flows in slice
// order, and draw any per-node randomness in that same order, so that a
// batch of one is indistinguishable from a plain Decide call.
//
// Batching is enabled per run via Config.MaxBatch; coordinators without
// this capability silently fall back to sequential Decide calls. All
// observations of one batch read the network state as of the start of
// the gather window — members of a batch do not see each other's
// not-yet-applied decisions. The simulator applies the returned actions
// afterward, in window order, against live state.
type BatchDecider interface {
	DecideBatch(st *State, flows []*Flow, v graph.NodeID, now float64, actions []int)
}

// BatchStats summarizes the batching behavior of a run. It is
// diagnostic output only and deliberately kept out of Metrics, so a
// batched and a sequential run of the same scenario produce identical
// Metrics.
type BatchStats struct {
	// Windows is the number of gather windows resolved (each covers one
	// (time, run of decision events) pair and holds ≥ 1 flow).
	Windows int
	// Calls is the number of DecideBatch invocations.
	Calls int
	// Flows is the total number of flows routed through DecideBatch.
	Flows int
	// MaxSize is the largest single DecideBatch call.
	MaxSize int
}

// pendingDecision is one flow of the current gather window that passed
// the pre-decision checks and awaits a batched decision.
type pendingDecision struct {
	f      *Flow
	v      graph.NodeID
	next   int // index+1 of the next entry at the same node; 0 ends the chain
	action int
}

// decisionBatcher gathers the decision-bearing events of one event
// timestamp, resolves them per node through a BatchDecider, and applies
// the actions in window order. All buffers are reused across windows,
// so the steady state performs no allocations.
type decisionBatcher struct {
	dec BatchDecider
	max int // cap per DecideBatch call (Config.MaxBatch, ≥ 2)

	pend  []pendingDecision // the window, in event order
	nodes []graph.NodeID    // distinct nodes of the window, first-appearance order
	// headAt/tailAt chain the window entries of each node (index+1 into
	// pend; 0 = none). Only the entries for b.nodes are live; they are
	// cleared when the window resolves.
	headAt []int
	tailAt []int

	flows   []*Flow // per-call scratch, ≤ max entries
	idx     []int   // pend index of each scratch entry
	actions []int

	stats BatchStats
}

func newDecisionBatcher(dec BatchDecider, max, numNodes int) *decisionBatcher {
	return &decisionBatcher{
		dec:     dec,
		max:     max,
		headAt:  make([]int, numNodes),
		tailAt:  make([]int, numNodes),
		flows:   make([]*Flow, 0, max),
		idx:     make([]int, 0, max),
		actions: make([]int, max),
	}
}

// add appends flow f (pending a decision at node v) to the current
// gather window.
func (b *decisionBatcher) add(f *Flow, v graph.NodeID) {
	b.pend = append(b.pend, pendingDecision{f: f, v: v})
	ref := len(b.pend) // index+1
	if b.headAt[v] == 0 {
		b.headAt[v] = ref
		b.nodes = append(b.nodes, v)
	} else {
		b.pend[b.tailAt[v]-1].next = ref
	}
	b.tailAt[v] = ref
}

// resolve decides the gathered window and applies the actions. Decisions
// run per node in first-appearance order, chunked to at most max flows
// per DecideBatch call; every observation reads the pre-window state
// (DecideBatch must not mutate simulation state). Actions then apply in
// window order, against live state — exactly the apply semantics of the
// sequential path.
func (b *decisionBatcher) resolve(s *Sim, now float64) {
	if len(b.pend) == 0 {
		return
	}
	b.stats.Windows++
	for _, v := range b.nodes {
		ref := b.headAt[v]
		for ref != 0 {
			b.flows = b.flows[:0]
			b.idx = b.idx[:0]
			for ref != 0 && len(b.flows) < b.max {
				p := &b.pend[ref-1]
				b.flows = append(b.flows, p.f)
				b.idx = append(b.idx, ref-1)
				ref = p.next
			}
			acts := b.actions[:len(b.flows)]
			b.dec.DecideBatch(s.st, b.flows, v, now, acts)
			for i, pi := range b.idx {
				b.pend[pi].action = acts[i]
			}
			b.stats.Calls++
			b.stats.Flows += len(b.flows)
			if len(b.flows) > b.stats.MaxSize {
				b.stats.MaxSize = len(b.flows)
			}
		}
		b.headAt[v], b.tailAt[v] = 0, 0
	}
	b.nodes = b.nodes[:0]
	for i := range b.pend {
		s.applyDecision(b.pend[i].f, b.pend[i].v, now, b.pend[i].action)
		b.pend[i].f = nil // release for the GC between windows
	}
	b.pend = b.pend[:0]
}

// joinable reports whether an event kind carries a coordinator decision
// and may therefore join a gather window. All other kinds (resource
// releases, ticks, faults, idle checks) mutate state and end the window.
func joinable(k eventKind) bool {
	return k == evGenArrival || k == evHeadArrive || k == evProcDone
}

// BatchStats returns the batching diagnostics of the run so far. It is
// all zeros when batching is disabled (Config.MaxBatch ≤ 1 or a
// coordinator without the BatchDecider capability).
func (s *Sim) BatchStats() BatchStats {
	if s.batcher == nil {
		return BatchStats{}
	}
	return s.batcher.stats
}
