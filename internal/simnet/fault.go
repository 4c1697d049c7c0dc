package simnet

import (
	"fmt"

	"distcoord/internal/graph"
)

// FaultKind discriminates scheduled perturbation events. Fault schedules
// are built ahead of a run (typically by internal/chaos, seed-derived and
// reproducible) and applied by the simulator's event loop, so identical
// configurations replay identically.
type FaultKind int

// Fault kinds. Down/kill/surge events are disruptive; Up events are the
// matching recoveries.
const (
	FaultNodeDown     FaultKind = iota // node crashes: capacity → 0, instances killed, flows at the node dropped
	FaultNodeUp                        // node recovers (instances must restart, paying their startup delay)
	FaultLinkDown                      // link fails: flows in transit are dropped, routing recomputed
	FaultLinkUp                        // link recovers at full capacity
	FaultLinkDegrade                   // link capacity is scaled by Factor (routing unchanged)
	FaultInstanceKill                  // component instances at a node crash; flows being processed there drop
	FaultExtraArrival                  // one additional flow arrives at Node (traffic surge bursts)
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNodeDown:
		return "node-down"
	case FaultNodeUp:
		return "node-up"
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultLinkDegrade:
		return "link-degrade"
	case FaultInstanceKill:
		return "instance-kill"
	case FaultExtraArrival:
		return "extra-arrival"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Disruptive reports whether the event perturbs the network (as opposed
// to recovering it); recovery analysis keys on disruptive events.
func (k FaultKind) Disruptive() bool {
	switch k {
	case FaultNodeDown, FaultLinkDown, FaultLinkDegrade, FaultInstanceKill:
		return true
	}
	return false
}

// Fault is one scheduled perturbation. Which fields apply depends on
// Kind: Node for node events, extra arrivals, and instance kills; Link
// for link events; Factor for degradation; Component for instance kills
// (empty: every instance at the node).
type Fault struct {
	Time      float64
	Kind      FaultKind
	Node      graph.NodeID
	Link      int
	Factor    float64
	Component string
}

// validateFaults range-checks a fault schedule against the graph.
func validateFaults(g *graph.Graph, faults []Fault) error {
	for i, ft := range faults {
		if ft.Time < 0 {
			return fmt.Errorf("simnet: fault[%d] has negative time %f", i, ft.Time)
		}
		switch ft.Kind {
		case FaultNodeDown, FaultNodeUp, FaultInstanceKill, FaultExtraArrival:
			if int(ft.Node) < 0 || int(ft.Node) >= g.NumNodes() {
				return fmt.Errorf("simnet: fault[%d] node %d out of range", i, ft.Node)
			}
		case FaultLinkDown, FaultLinkUp:
			if ft.Link < 0 || ft.Link >= g.NumLinks() {
				return fmt.Errorf("simnet: fault[%d] link %d out of range", i, ft.Link)
			}
		case FaultLinkDegrade:
			if ft.Link < 0 || ft.Link >= g.NumLinks() {
				return fmt.Errorf("simnet: fault[%d] link %d out of range", i, ft.Link)
			}
			if ft.Factor < 0 || ft.Factor > 1 {
				return fmt.Errorf("simnet: fault[%d] degrade factor %f outside [0,1]", i, ft.Factor)
			}
		default:
			return fmt.Errorf("simnet: fault[%d] has unknown kind %d", i, int(ft.Kind))
		}
	}
	return nil
}

// applyFault mutates network state for one scheduled perturbation and
// performs the flow-level consequences (dropping flows that the fault
// kills). Recoveries and no-op repeats (downing a dead node) are applied
// idempotently.
func (s *Sim) applyFault(ft Fault, now float64) {
	switch ft.Kind {
	case FaultNodeDown:
		if !s.st.NodeAlive(ft.Node) {
			return
		}
		s.st.setNodeAlive(ft.Node, false)
		s.st.clearInstances(ft.Node)
		s.dropResidentAt(ft.Node, now)
		s.metrics.Faults++
		s.notifyTopology(now)
	case FaultNodeUp:
		if s.st.NodeAlive(ft.Node) {
			return
		}
		s.st.setNodeAlive(ft.Node, true)
		s.notifyTopology(now)
	case FaultLinkDown:
		if !s.st.LinkAlive(ft.Link) {
			return
		}
		s.st.setLinkAlive(ft.Link, false)
		s.dropInFlight(ft.Link, now)
		s.metrics.Faults++
		s.notifyTopology(now)
	case FaultLinkUp:
		s.st.scaleLink(ft.Link, 1)
		if s.st.LinkAlive(ft.Link) {
			return
		}
		s.st.setLinkAlive(ft.Link, true)
		s.notifyTopology(now)
	case FaultLinkDegrade:
		s.st.scaleLink(ft.Link, ft.Factor)
		s.metrics.Faults++
	case FaultInstanceKill:
		s.killInstances(ft.Node, ft.Component, now)
		s.metrics.Faults++
	case FaultExtraArrival:
		s.injectFlow(ft.Node, now)
	}
}

// notifyTopology tells a topology-observing coordinator that liveness
// changed; the state's routing view is already recomputed at this point.
func (s *Sim) notifyTopology(now float64) {
	if s.caps.Topology != nil {
		s.caps.Topology.OnTopologyChange(s.st, now)
	}
}

// dropResidentAt drops every flow physically at a crashed node: flows
// being processed there (pending evProcDone) and fully processed flows
// kept there. Flows still in transit toward the node are NOT dropped
// here — they fail on arrival if the node is still down, and survive if
// it recovered first.
func (s *Sim) dropResidentAt(v graph.NodeID, now float64) {
	for _, f := range s.collectVictims(func(e *event) bool {
		switch e.kind {
		case evProcDone:
			return e.node == v
		case evHeadArrive:
			return e.node == v && e.link < 0 // kept at v, not in transit
		}
		return false
	}) {
		s.drop(f, v, DropNodeFailure, now)
	}
}

// dropInFlight drops every flow whose head is currently propagating over
// the failed link. Each such flow has exactly one pending evHeadArrive
// tagged with the link, so it is accounted for as exactly one drop.
func (s *Sim) dropInFlight(l int, now float64) {
	link := s.cfg.Graph.Link(l)
	for _, f := range s.collectVictims(func(e *event) bool {
		return e.kind == evHeadArrive && e.link == l
	}) {
		s.drop(f, link.A, DropLinkFailure, now)
	}
}

// killInstances removes component instances at v (comp "" means all) and
// drops the flows currently being processed on them.
func (s *Sim) killInstances(v graph.NodeID, comp string, now float64) {
	for _, f := range s.collectVictims(func(e *event) bool {
		if e.kind != evProcDone || e.node != v {
			return false
		}
		cur := e.flow.Current()
		return comp == "" || (cur != nil && cur.Name == comp)
	}) {
		s.drop(f, v, DropInstanceKill, now)
	}
	s.st.removeInstances(v, comp)
}

// collectVictims returns the distinct, still-live flows of pending
// events matching the predicate, scanning the event queue. Collection is
// separated from dropping because drop notifies listeners, which must
// not observe a half-scanned queue.
func (s *Sim) collectVictims(match func(*event) bool) []*Flow {
	var victims []*Flow
	seen := map[int]bool{}
	collect := func(e *event) {
		if e.flow == nil || e.flow.done || seen[e.flow.ID] {
			return
		}
		if match(e) {
			victims = append(victims, e.flow)
			seen[e.flow.ID] = true
		}
	}
	for i := range s.queue.items {
		collect(&s.queue.items[i])
	}
	return victims
}

// injectFlow generates one surge flow at node v (the fault-schedule
// analogue of generateFlow, without scheduling a follow-up arrival).
func (s *Sim) injectFlow(v graph.NodeID, now float64) {
	fl := &Flow{
		ID:       s.nextID,
		Service:  s.pickService(),
		Ingress:  v,
		Egress:   s.cfg.Egress,
		Rate:     s.cfg.Template.Rate,
		Duration: s.cfg.Template.Duration,
		Deadline: s.cfg.Template.Deadline,
		Arrival:  now,
	}
	s.nextID++
	s.metrics.Arrived++
	s.trace(TraceArrival, fl, v, now, -1, -1, DropNone)
	s.handleFlowAt(fl, v, now)
}
