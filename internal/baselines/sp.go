// Package baselines implements the comparison algorithms of Sec. V-A3:
// the simple shortest-path greedy ("SP"), the fully distributed GCASP
// heuristic of [11], and a centralized coordinator with periodically
// updated forwarding rules from delayed global monitoring, standing in
// for the centralized DRL approach of [10] (DESIGN.md, substitution 5).
package baselines

import (
	"distcoord/internal/graph"
	"distcoord/internal/simnet"
)

// SP is the simple greedy baseline: it processes flows at nodes along the
// shortest path from ingress to egress and never deviates from that path.
// When resources along the path run out, flows drop — the behavior the
// paper's Fig. 6 discussion attributes to SP.
type SP struct{}

// Name implements simnet.Coordinator.
func (SP) Name() string { return "SP" }

// Decide implements simnet.Coordinator: process locally whenever the
// current shortest-path node has free capacity (or is the egress, where
// processing is forced); otherwise continue along the shortest path.
func (SP) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	if !f.Processed() {
		need := f.Current().Resource(f.Rate)
		if st.FreeNode(v) >= need || v == f.Egress {
			// At the egress there is no further path node: insist on
			// processing even if it drops — SP does not reroute.
			return 0
		}
	}
	return forwardTowards(st, v, f.Egress)
}

// forwardTowards returns the action forwarding to the shortest-path next
// hop from v to dst, or 0 when there is none (keeps the flow, which for a
// disconnected destination eventually expires).
func forwardTowards(st *simnet.State, v, dst graph.NodeID) int {
	hop := st.APSP().NextHop(v, dst)
	if hop == graph.None {
		return 0
	}
	for i, ad := range st.Graph().Neighbors(v) {
		if ad.Neighbor == hop {
			return i + 1
		}
	}
	return 0
}
