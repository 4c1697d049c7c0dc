package baselines

import (
	"distcoord/internal/graph"
	"distcoord/internal/simnet"
)

// GCASP is the fully distributed heuristic of the authors' prior work
// [11]: like the distributed DRL approach, every node decides locally for
// each incoming flow. It favors processing along the shortest path but
// dynamically reroutes around bottlenecks, searching neighbors for free
// compute and link resources and respecting the remaining deadline.
type GCASP struct{}

// Name implements simnet.Coordinator.
func (GCASP) Name() string { return "GCASP" }

// Decide implements simnet.Coordinator using only v-local information:
// the flow's attributes, v's free capacity, and the free resources of
// direct neighbors and outgoing links.
func (GCASP) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	if !f.Processed() {
		need := f.Current().Resource(f.Rate)
		if st.FreeNode(v) >= need {
			return 0 // greedy: process as early as possible
		}
		// Bottleneck: search a neighbor with spare compute, preferring
		// neighbors that keep the flow deliverable within its deadline
		// and lie toward the egress.
		if a := bestNeighbor(st, f, v, now, need); a != 0 {
			return a
		}
		// No neighbor with enough compute either: keep searching by
		// moving to the emptiest reachable neighbor instead of marching
		// to the egress, where an unprocessed flow would be lost.
		if a := emptiestNeighbor(st, f, v, now); a != 0 {
			return a
		}
		return forwardTowards(st, v, f.Egress)
	}
	// Fully processed: head straight to the egress; route around a full
	// shortest-path link if possible.
	if a := forwardTowards(st, v, f.Egress); a != 0 {
		ad := st.Graph().Neighbors(v)[a-1]
		if st.FreeLink(ad.Link) >= f.Rate {
			return a
		}
	}
	if a := bestNeighbor(st, f, v, now, 0); a != 0 {
		return a
	}
	return forwardTowards(st, v, f.Egress)
}

// emptiestNeighbor returns the deadline-feasible neighbor with the most
// free compute, regardless of whether the requested component fits there
// right now — resources may free up by the time the flow arrives.
func emptiestNeighbor(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	remaining := f.Remaining(now)
	bestAction := 0
	bestFree := -1.0
	for i, ad := range st.Graph().Neighbors(v) {
		if st.FreeLink(ad.Link) < f.Rate {
			continue
		}
		if remaining-st.APSP().DistVia(v, ad, f.Egress) <= 0 {
			continue
		}
		if free := st.FreeNode(ad.Neighbor); free > bestFree {
			bestAction, bestFree = i+1, free
		}
	}
	return bestAction
}

// bestNeighbor scores v's neighbors for carrying flow f onward and
// returns the best as an action, or 0 when no neighbor is usable. A
// usable neighbor has link headroom for λ_f, deadline slack on a
// shortest path via it, and — when need > 0 — free compute for the
// requested component.
func bestNeighbor(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64, need float64) int {
	remaining := f.Remaining(now)
	bestAction := 0
	bestScore := 0.0
	for i, ad := range st.Graph().Neighbors(v) {
		if st.FreeLink(ad.Link) < f.Rate {
			continue
		}
		slack := remaining - st.APSP().DistVia(v, ad, f.Egress)
		if slack <= 0 {
			continue
		}
		freeCompute := st.FreeNode(ad.Neighbor)
		if need > 0 && freeCompute < need {
			continue
		}
		// Prefer close-to-egress neighbors with spare compute; slack
		// dominates, compute breaks ties toward emptier nodes.
		score := slack/f.Deadline + 0.1*freeCompute
		if bestAction == 0 || score > bestScore {
			bestAction, bestScore = i+1, score
		}
	}
	return bestAction
}
