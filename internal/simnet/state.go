package simnet

import (
	"distcoord/internal/graph"
)

// capEps absorbs floating point drift in capacity ledgers.
const capEps = 1e-9

// Instance is a placed component instance at a node (x_{c,v} = 1).
type Instance struct {
	Comp *Component
	// ReadyAt is when the instance finishes starting up (d_c^up).
	ReadyAt float64
	// BusyUntil is the latest time any accepted flow still occupies the
	// instance; the idle timeout counts from here.
	BusyUntil float64
}

// State is the live network state during a simulation: capacity ledgers
// for nodes and links, node/link liveness under fault injection, the
// current routing view, and placed instances. Coordinators receive it
// read-only via its accessor methods; distributed algorithms must only
// inspect the current node and its direct neighbors.
type State struct {
	g    *graph.Graph
	apsp *graph.APSP // current routing view; re-derived on topology change

	usedNode  []float64
	usedLink  []float64
	nodeDown  []bool
	linkDown  []bool
	linkScale []float64              // capacity scaling under degradation; 1 = nominal
	instances []map[string]*Instance // per node, keyed by component name
	now       float64
}

// NewState returns a fresh state for the given (capacity-assigned) graph.
// The APSP may be shared across runs on the same topology; it is the
// fault-free routing view, replaced by a masked recomputation whenever a
// node or link changes liveness.
func NewState(g *graph.Graph, apsp *graph.APSP) *State {
	st := &State{
		g:         g,
		apsp:      apsp,
		usedNode:  make([]float64, g.NumNodes()),
		usedLink:  make([]float64, g.NumLinks()),
		nodeDown:  make([]bool, g.NumNodes()),
		linkDown:  make([]bool, g.NumLinks()),
		linkScale: make([]float64, g.NumLinks()),
		instances: make([]map[string]*Instance, g.NumNodes()),
	}
	for i := range st.linkScale {
		st.linkScale[i] = 1
	}
	for i := range st.instances {
		st.instances[i] = make(map[string]*Instance)
	}
	return st
}

// Graph returns the substrate network.
func (st *State) Graph() *graph.Graph { return st.g }

// APSP returns the current routing view: the fault-free all-pairs
// shortest paths until the first topology change, then a recomputation
// over the surviving network. Coordinators reading distances through it
// automatically follow topology changes.
func (st *State) APSP() *graph.APSP { return st.apsp }

// NodeAlive reports whether node v is up.
func (st *State) NodeAlive(v graph.NodeID) bool { return !st.nodeDown[v] }

// LinkAlive reports whether link l and both its endpoints are up.
func (st *State) LinkAlive(l int) bool {
	if st.linkDown[l] {
		return false
	}
	lk := st.g.Link(l)
	return !st.nodeDown[lk.A] && !st.nodeDown[lk.B]
}

// NodeCapacity returns the effective compute capacity of v: cap_v, or 0
// while the node is down.
func (st *State) NodeCapacity(v graph.NodeID) float64 {
	if st.nodeDown[v] {
		return 0
	}
	return st.g.Node(v).Capacity
}

// LinkCapacity returns the effective data rate capacity of link l:
// cap_l scaled by any active degradation, or 0 while the link (or an
// endpoint) is down.
func (st *State) LinkCapacity(l int) float64 {
	if !st.LinkAlive(l) {
		return 0
	}
	return st.g.Link(l).Capacity * st.linkScale[l]
}

// setNodeAlive flips node liveness and re-derives routing.
func (st *State) setNodeAlive(v graph.NodeID, alive bool) {
	st.nodeDown[v] = !alive
	st.refreshRouting()
}

// setLinkAlive flips link liveness and re-derives routing.
func (st *State) setLinkAlive(l int, alive bool) {
	st.linkDown[l] = !alive
	st.refreshRouting()
}

// scaleLink sets the degradation factor of link l (1 restores nominal
// capacity). Flows already on the link keep flowing; admission uses the
// scaled capacity.
func (st *State) scaleLink(l int, factor float64) { st.linkScale[l] = factor }

// refreshRouting recomputes shortest paths over the currently live
// topology (one Dijkstra per node, only on liveness changes — fault
// events are rare next to flow events).
func (st *State) refreshRouting() {
	st.apsp = graph.NewAPSPMasked(st.g, st.LinkAlive)
}

// clearInstances kills every placed instance at v (node crash).
func (st *State) clearInstances(v graph.NodeID) {
	st.instances[v] = make(map[string]*Instance)
}

// removeInstances kills v's instance of the named component, or all of
// v's instances when comp is empty.
func (st *State) removeInstances(v graph.NodeID, comp string) {
	if comp == "" {
		st.clearInstances(v)
		return
	}
	delete(st.instances[v], comp)
}

// Now returns the current simulation time.
func (st *State) Now() float64 { return st.now }

// UsedNode returns r_v(t), the compute resources currently in use at v.
func (st *State) UsedNode(v graph.NodeID) float64 { return st.usedNode[v] }

// FreeNode returns cap_v − r_v(t) over the effective capacity (0 while
// the node is down, so a dead node never reads as having headroom).
func (st *State) FreeNode(v graph.NodeID) float64 {
	return st.NodeCapacity(v) - st.usedNode[v]
}

// UsedLink returns r_l(t), the data rate currently allocated on link l
// (both directions share the capacity).
func (st *State) UsedLink(l int) float64 { return st.usedLink[l] }

// FreeLink returns cap_l − r_l(t) over the effective (possibly degraded)
// capacity.
func (st *State) FreeLink(l int) float64 {
	return st.LinkCapacity(l) - st.usedLink[l]
}

// Instance returns the instance of component comp placed at v, or nil.
func (st *State) Instance(v graph.NodeID, comp *Component) *Instance {
	if comp == nil {
		return nil
	}
	return st.instances[v][comp.Name]
}

// HasInstance reports x_{c,v}(t) for the flow's currently requested
// component; it is always false for fully processed flows.
func (st *State) HasInstance(v graph.NodeID, comp *Component) bool {
	return st.Instance(v, comp) != nil
}

// InstanceCount returns the number of distinct component instances placed
// at v (diagnostics).
func (st *State) InstanceCount(v graph.NodeID) int { return len(st.instances[v]) }

// TotalInstances returns the number of placed instances network-wide.
func (st *State) TotalInstances() int {
	n := 0
	for _, m := range st.instances {
		n += len(m)
	}
	return n
}

// nodeFits reports whether processing demand fits at v.
func (st *State) nodeFits(v graph.NodeID, demand float64) bool {
	return st.usedNode[v]+demand <= st.NodeCapacity(v)+capEps
}

// linkFits reports whether an additional rate fits on link l.
func (st *State) linkFits(l int, rate float64) bool {
	return st.usedLink[l]+rate <= st.LinkCapacity(l)+capEps
}

// allocNode reserves compute resources at v.
func (st *State) allocNode(v graph.NodeID, demand float64) { st.usedNode[v] += demand }

// releaseNode frees compute resources at v, clamping tiny negative drift.
func (st *State) releaseNode(v graph.NodeID, demand float64) {
	st.usedNode[v] -= demand
	if st.usedNode[v] < 0 {
		st.usedNode[v] = 0
	}
}

// allocLink reserves data rate on link l.
func (st *State) allocLink(l int, rate float64) { st.usedLink[l] += rate }

// releaseLink frees data rate on link l, clamping tiny negative drift.
func (st *State) releaseLink(l int, rate float64) {
	st.usedLink[l] -= rate
	if st.usedLink[l] < 0 {
		st.usedLink[l] = 0
	}
}

// placeInstance ensures an instance of comp exists at v, returning it and
// whether it was newly placed (scaling/placement derived from
// scheduling, Sec. IV-A).
func (st *State) placeInstance(v graph.NodeID, comp *Component, now float64) (inst *Instance, created bool) {
	if inst := st.instances[v][comp.Name]; inst != nil {
		return inst, false
	}
	inst = &Instance{Comp: comp, ReadyAt: now + comp.StartupDelay}
	st.instances[v][comp.Name] = inst
	return inst, true
}

// removeInstanceIfIdle removes v's instance of comp when it has been idle
// for its full idle timeout at time now. Returns whether it was removed.
func (st *State) removeInstanceIfIdle(v graph.NodeID, comp *Component, now float64) bool {
	inst := st.instances[v][comp.Name]
	if inst == nil {
		return false
	}
	if now+capEps >= inst.BusyUntil+comp.IdleTimeout {
		delete(st.instances[v], comp.Name)
		return true
	}
	return false
}
