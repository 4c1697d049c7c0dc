package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"distcoord/internal/graph"
)

// ArrivalProcess yields flow inter-arrival times; the traffic package
// provides implementations.
type ArrivalProcess interface {
	Next() float64
}

// Ingress attaches an arrival process to an ingress node.
type Ingress struct {
	Node     graph.NodeID
	Arrivals ArrivalProcess
}

// FlowTemplate fixes the per-flow parameters of generated flows (the base
// scenario uses unit rate, unit duration, deadline 100; Sec. V-A1).
type FlowTemplate struct {
	Rate     float64 // λ_f
	Duration float64 // δ_f
	Deadline float64 // τ_f
}

// WeightedService is one entry of a multi-service mix: flows request
// Service with probability proportional to Weight.
type WeightedService struct {
	Service *Service
	Weight  float64
}

// Config parameterizes one simulation run.
type Config struct {
	Graph *graph.Graph
	APSP  *graph.APSP // optional; computed from Graph when nil

	// Service is the single service all flows request. For multi-service
	// scenarios set Services instead (Service is then ignored).
	Service *Service
	// Services, when non-empty, defines a weighted service mix: each
	// generated flow samples its requested service from it
	// (deterministically from ServiceSeed).
	Services []WeightedService
	// ServiceSeed drives the service sampling for multi-service mixes.
	ServiceSeed int64

	Ingresses []Ingress
	Egress    graph.NodeID
	Template  FlowTemplate

	// Horizon T: flows are generated for t in [0, T).
	Horizon float64

	Coordinator Coordinator
	// Listener optionally observes simulation events in addition to any
	// FlowObserver capability of the coordinator (metrics collection,
	// chaos monitoring). Setting it to the coordinator itself is
	// deduplicated.
	Listener Listener

	// Faults is an optional schedule of perturbation events (node/link
	// outages, degradation, instance kills, surge arrivals), applied by
	// the event loop at their scheduled times. Build schedules with
	// internal/chaos for seed-derived, reproducible fault scenarios.
	Faults []Fault

	// Tracer, when non-nil, receives per-flow trace events (arrival,
	// decision, processing, forwarding, drop, completion) for offline
	// analysis. The hot path nil-checks it, so leaving it unset costs
	// nothing.
	Tracer FlowTracer

	// KeepStep is how long a fully processed flow waits when kept at a
	// node (action 0 on c_f = ∅) before the agent is queried again.
	// Defaults to 1 time step.
	KeepStep float64

	// MaxTime hard-stops the event loop; it defaults to
	// Horizon + 10·Deadline, enough for all generated flows to finish
	// or expire.
	MaxTime float64

	// MaxBatch enables batched decision resolution when > 1 and the
	// coordinator implements BatchDecider: decision events sharing one
	// event timestamp are gathered and resolved per node with up to
	// MaxBatch flows per DecideBatch call. 0 (the default) and 1 run the
	// plain sequential path; coordinators without the capability fall
	// back to it silently.
	MaxBatch int
}

// validate fills defaults and rejects malformed configurations.
func (c *Config) validate() error {
	if c.Graph == nil {
		return errors.New("simnet: Config.Graph is nil")
	}
	if len(c.Services) == 0 {
		if c.Service == nil {
			return errors.New("simnet: Config.Service is nil")
		}
		c.Services = []WeightedService{{Service: c.Service, Weight: 1}}
	}
	total := 0.0
	for i, ws := range c.Services {
		if ws.Service == nil {
			return fmt.Errorf("simnet: Services[%d].Service is nil", i)
		}
		if err := ws.Service.Validate(); err != nil {
			return err
		}
		if ws.Weight < 0 {
			return fmt.Errorf("simnet: Services[%d] has negative weight", i)
		}
		total += ws.Weight
	}
	if total <= 0 {
		return errors.New("simnet: service mix has zero total weight")
	}
	if c.Coordinator == nil {
		return errors.New("simnet: Config.Coordinator is nil")
	}
	if len(c.Ingresses) == 0 {
		return errors.New("simnet: no ingress nodes")
	}
	n := c.Graph.NumNodes()
	for _, in := range c.Ingresses {
		if int(in.Node) < 0 || int(in.Node) >= n {
			return fmt.Errorf("simnet: ingress node %d out of range", in.Node)
		}
		if in.Arrivals == nil {
			return fmt.Errorf("simnet: ingress %d has no arrival process", in.Node)
		}
	}
	if int(c.Egress) < 0 || int(c.Egress) >= n {
		return fmt.Errorf("simnet: egress node %d out of range", c.Egress)
	}
	if c.Horizon <= 0 {
		return errors.New("simnet: Horizon must be positive")
	}
	if c.Template.Rate <= 0 || c.Template.Duration <= 0 || c.Template.Deadline <= 0 {
		return errors.New("simnet: flow template fields must be positive")
	}
	if c.KeepStep <= 0 {
		c.KeepStep = 1
	}
	if c.MaxBatch < 0 {
		return errors.New("simnet: MaxBatch must be non-negative")
	}
	if c.MaxTime <= 0 {
		c.MaxTime = c.Horizon + 10*c.Template.Deadline
	}
	return validateFaults(c.Graph, c.Faults)
}

// Sim runs one simulation. Create with New, drive with Run. It owns the
// event heap, the network state, the metrics, and the service RNG.
type Sim struct {
	cfg Config

	st      *State
	queue   eventQueue
	metrics *Metrics

	// caps holds the coordinator's optional capabilities, resolved once
	// by New.
	caps      Caps
	listeners []Listener // Config.Listener plus the coordinator's FlowObserver capability, deduplicated
	// batcher is non-nil when Config.MaxBatch > 1 and the coordinator has
	// the BatchDecider capability.
	batcher *decisionBatcher

	nextID   int
	svcRng   *rand.Rand
	svcTotal float64
}

// New prepares a simulation run. The configured graph's capacities must
// already be assigned (Config.Graph is not modified). Optional coordinator
// capabilities (FlowObserver, Ticker, Resetter, TopologyObserver) are
// discovered here, once, through the Capabilities seam.
func New(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.APSP == nil {
		cfg.APSP = graph.NewAPSP(cfg.Graph)
	}
	s := &Sim{
		cfg:     cfg,
		st:      NewState(cfg.Graph, cfg.APSP),
		metrics: newMetrics(),
		svcRng:  rand.New(rand.NewSource(cfg.ServiceSeed)),
	}
	for _, ws := range cfg.Services {
		s.svcTotal += ws.Weight
	}
	caps := Capabilities(cfg.Coordinator)
	if caps.Ticker != nil && caps.Ticker.Interval() <= 0 {
		return nil, fmt.Errorf("simnet: coordinator %q has non-positive tick interval", cfg.Coordinator.Name())
	}
	s.caps = caps
	if cfg.MaxBatch > 1 && caps.Batch != nil {
		s.batcher = newDecisionBatcher(caps.Batch, cfg.MaxBatch, cfg.Graph.NumNodes())
	}
	if cfg.Listener != nil {
		s.listeners = append(s.listeners, cfg.Listener)
	}
	// A learning coordinator (FlowObserver capability) is auto-attached;
	// when the same value is also configured as Config.Listener it is
	// already in the slice and must not be delivered events twice.
	if l := caps.Flow; l != nil && Listener(l) != cfg.Listener {
		s.listeners = append(s.listeners, l)
	}
	return s, nil
}

// onAction delivers a coordinator decision outcome to all listeners.
func (s *Sim) onAction(f *Flow, v graph.NodeID, now float64, action int, res ActionResult) {
	for _, l := range s.listeners {
		l.OnAction(f, v, now, action, res)
	}
}

// onTraversed delivers a chain-progress event to all listeners.
func (s *Sim) onTraversed(f *Flow, v graph.NodeID, now float64) {
	for _, l := range s.listeners {
		l.OnTraversed(f, v, now)
	}
}

// onFlowEnd delivers a flow termination to all listeners.
func (s *Sim) onFlowEnd(f *Flow, success bool, cause DropCause, now float64) {
	for _, l := range s.listeners {
		l.OnFlowEnd(f, success, cause, now)
	}
}

// pickService samples a service from the configured mix.
func (s *Sim) pickService() *Service {
	if len(s.cfg.Services) == 1 {
		return s.cfg.Services[0].Service
	}
	u := s.svcRng.Float64() * s.svcTotal
	acc := 0.0
	for _, ws := range s.cfg.Services {
		acc += ws.Weight
		if u < acc {
			return ws.Service
		}
	}
	return s.cfg.Services[len(s.cfg.Services)-1].Service
}

// State exposes the live network state (used by tests and adapters).
func (s *Sim) State() *State { return s.st }

// Metrics returns the accumulated metrics.
func (s *Sim) Metrics() *Metrics { return s.metrics }

// Run executes the simulation to completion: flows are generated over
// [0, Horizon) and the event loop drains until every flow succeeded or
// dropped (bounded by MaxTime).
func (s *Sim) Run() (*Metrics, error) {
	s.start()
	for s.queue.Len() > 0 && s.queue.peek().t <= s.cfg.MaxTime {
		e := s.queue.pop()
		if e.t < s.st.now-capEps {
			return nil, fmt.Errorf("simnet: event time went backwards: %f < %f", e.t, s.st.now)
		}
		s.st.now = math.Max(s.st.now, e.t)
		if s.batcher != nil && joinable(e.kind) {
			// Gather the run of decision-bearing events at this timestamp
			// into one window, then resolve it with batched inference. Any
			// other event kind — or a later timestamp — ends the window.
			s.gatherDecision(e)
			for s.queue.Len() > 0 {
				h := s.queue.peek()
				if h.t != e.t || !joinable(h.kind) {
					break
				}
				s.gatherDecision(s.queue.pop())
			}
			s.batcher.resolve(s, e.t)
			continue
		}
		s.dispatch(e)
	}
	// Any flow still alive at MaxTime would be a leak; with the default
	// MaxTime this cannot happen, but surface it rather than hide it.
	if s.metrics.Pending() != 0 {
		return s.metrics, fmt.Errorf("simnet: %d flows still pending at MaxTime", s.metrics.Pending())
	}
	return s.metrics, nil
}

// start resets per-run coordinator state and seeds the initial events:
// the first arrival of every ingress, the coordinator ticks, and the
// fault schedule.
func (s *Sim) start() {
	if s.caps.Resetter != nil {
		s.caps.Resetter.Reset(s.st)
	}
	for i, in := range s.cfg.Ingresses {
		first := in.Arrivals.Next()
		if first < s.cfg.Horizon {
			s.queue.push(event{t: first, kind: evGenArrival, ingress: i})
		}
	}
	if s.caps.Ticker != nil {
		s.queue.push(event{t: 0, kind: evTick})
	}
	// Schedule the fault injections. Pushing them in schedule order keeps
	// equal-time faults deterministically ordered via event sequencing.
	for i, ft := range s.cfg.Faults {
		s.queue.push(event{t: ft.Time, kind: evFault, ingress: i, link: -1})
	}
}

func (s *Sim) dispatch(e event) {
	switch e.kind {
	case evGenArrival:
		s.generateFlow(e)
	case evHeadArrive:
		s.handleFlowAt(e.flow, e.node, e.t)
	case evProcDone:
		s.finishProcessing(e)
	case evReleaseNode:
		s.st.releaseNode(e.node, e.amount)
	case evReleaseLink:
		s.st.releaseLink(e.link, e.amount)
	case evIdleCheck:
		s.st.removeInstanceIfIdle(e.node, e.comp, e.t)
	case evTick:
		s.caps.Ticker.Tick(s.st, e.t)
		next := e.t + s.caps.Ticker.Interval()
		if next <= s.cfg.Horizon {
			s.queue.push(event{t: next, kind: evTick})
		}
	case evFault:
		s.applyFault(s.cfg.Faults[e.ingress], e.t)
	}
}

// generateFlow creates the next flow at ingress e.ingress and schedules
// the subsequent arrival.
func (s *Sim) generateFlow(e event) {
	f := s.newFlow(e)
	s.handleFlowAt(f, f.Ingress, e.t)
	s.scheduleNextArrival(e)
}

// newFlow instantiates the flow of arrival event e and records it.
func (s *Sim) newFlow(e event) *Flow {
	in := s.cfg.Ingresses[e.ingress]
	f := &Flow{
		ID:       s.nextID,
		Service:  s.pickService(),
		Ingress:  in.Node,
		Egress:   s.cfg.Egress,
		Rate:     s.cfg.Template.Rate,
		Duration: s.cfg.Template.Duration,
		Deadline: s.cfg.Template.Deadline,
		Arrival:  e.t,
	}
	s.nextID++
	s.metrics.Arrived++
	s.trace(TraceArrival, f, in.Node, e.t, -1, -1, DropNone)
	return f
}

// scheduleNextArrival draws the next inter-arrival gap of e's ingress
// and schedules the following generation event.
func (s *Sim) scheduleNextArrival(e event) {
	next := e.t + s.cfg.Ingresses[e.ingress].Arrivals.Next()
	if next < s.cfg.Horizon {
		s.queue.push(event{t: next, kind: evGenArrival, ingress: e.ingress})
	}
}

// handleFlowAt is the sequential decision point: flow f's head is at
// node v at time now. It checks expiry and completion, then queries the
// coordinator and applies the chosen action.
func (s *Sim) handleFlowAt(f *Flow, v graph.NodeID, now float64) {
	if !s.precheck(f, v, now) {
		return
	}
	action := s.cfg.Coordinator.Decide(s.st, f, v, now)
	s.applyDecision(f, v, now, action)
}

// gatherDecision runs the pre-decision part of a decision-bearing event
// and enqueues the flow into the current gather window. It mirrors the
// sequential handlers exactly, except that the coordinator query and
// action application are deferred to the window's batched resolve — and
// that a burst arrival's follow-up generation event is scheduled before
// (not after) the decision applies, so same-time arrivals can join the
// window.
func (s *Sim) gatherDecision(e event) {
	switch e.kind {
	case evGenArrival:
		f := s.newFlow(e)
		s.scheduleNextArrival(e)
		if s.precheck(f, f.Ingress, e.t) {
			s.batcher.add(f, f.Ingress)
		}
	case evHeadArrive:
		if s.precheck(e.flow, e.node, e.t) {
			s.batcher.add(e.flow, e.node)
		}
	case evProcDone:
		f := e.flow
		if f.done {
			return
		}
		f.CompIdx++
		s.onTraversed(f, e.node, e.t)
		if s.precheck(f, e.node, e.t) {
			s.batcher.add(f, e.node)
		}
	}
}

// precheck applies the checks that precede any coordinator query and
// reports whether flow f still needs a decision at v. A false return
// means the flow's fate was already settled (dropped, expired,
// completed, or a stale event for a finished flow).
func (s *Sim) precheck(f *Flow, v graph.NodeID, now float64) bool {
	if f.done {
		return false
	}
	if !s.st.NodeAlive(v) {
		// The head reached a crashed node: flows in transit when the node
		// went down fail on arrival (unless the node recovered first).
		s.drop(f, v, DropNodeFailure, now)
		return false
	}
	if f.Remaining(now) <= capEps {
		s.drop(f, v, DropExpired, now)
		return false
	}
	if f.Processed() && v == f.Egress {
		s.complete(f, now)
		return false
	}
	return true
}

// applyDecision records a coordinator decision for flow f at node v and
// applies it against live state.
func (s *Sim) applyDecision(f *Flow, v graph.NodeID, now float64, action int) {
	f.Decisions++
	s.metrics.Decisions++
	s.traceDecision(f, v, now, action)

	if action == 0 {
		s.processLocally(f, v, now)
		return
	}
	s.forward(f, v, action, now)
}

// processLocally applies action 0: process the requested component at v,
// or, for a fully processed flow, keep it for one time step.
func (s *Sim) processLocally(f *Flow, v graph.NodeID, now float64) {
	if f.Processed() {
		// Keeping a fully processed flow wastes deadline budget and
		// incurs the −1/D_G penalty at the listener (Sec. IV-B3).
		s.metrics.Keeps++
		s.trace(TraceKeep, f, v, now, 0, -1, DropNone)
		s.onAction(f, v, now, 0, ActionResult{Kind: ActionKept})
		s.queue.push(event{t: now + s.cfg.KeepStep, kind: evHeadArrive, flow: f, node: v, link: -1})
		return
	}

	comp := f.Current()
	need := comp.Resource(f.Rate)
	if !s.st.nodeFits(v, need) {
		s.onAction(f, v, now, 0, ActionResult{Kind: ActionDropped, Drop: DropNodeCapacity})
		s.drop(f, v, DropNodeCapacity, now)
		return
	}

	inst, _ := s.st.placeInstance(v, comp, now)
	procStart := math.Max(now, inst.ReadyAt)
	procEnd := procStart + comp.ProcDelay
	release := procEnd + f.Duration

	s.st.allocNode(v, need)
	s.queue.push(event{t: release, kind: evReleaseNode, node: v, amount: need})

	if release > inst.BusyUntil {
		inst.BusyUntil = release
	}
	s.queue.push(event{t: release + comp.IdleTimeout, kind: evIdleCheck, node: v, comp: comp})
	s.queue.push(event{t: procEnd, kind: evProcDone, flow: f, node: v})

	s.metrics.Processings++
	s.traceWait(TraceProcess, f, v, now, 0, -1, DropNone, procStart-now)
	s.onAction(f, v, now, 0, ActionResult{Kind: ActionProcessed})
}

// finishProcessing advances the flow to its next chain component and
// re-enters the decision loop at the same node.
func (s *Sim) finishProcessing(e event) {
	f := e.flow
	if f.done {
		return
	}
	f.CompIdx++
	s.onTraversed(f, e.node, e.t)
	s.handleFlowAt(f, e.node, e.t)
}

// forward applies action a > 0: send the flow to v's a-th neighbor.
func (s *Sim) forward(f *Flow, v graph.NodeID, a int, now float64) {
	neighbors := s.cfg.Graph.Neighbors(v)
	if a < 0 || a > len(neighbors) {
		s.onAction(f, v, now, a, ActionResult{Kind: ActionDropped, Drop: DropInvalidAction})
		s.drop(f, v, DropInvalidAction, now)
		return
	}
	ad := neighbors[a-1]
	link := s.cfg.Graph.Link(ad.Link)
	if !s.st.LinkAlive(ad.Link) {
		s.onAction(f, v, now, a, ActionResult{Kind: ActionDropped, Drop: DropLinkFailure})
		s.drop(f, v, DropLinkFailure, now)
		return
	}
	if !s.st.linkFits(ad.Link, f.Rate) {
		s.onAction(f, v, now, a, ActionResult{Kind: ActionDropped, Drop: DropLinkCapacity})
		s.drop(f, v, DropLinkCapacity, now)
		return
	}

	s.st.allocLink(ad.Link, f.Rate)
	// The stream consumes the link's data rate while it is being
	// injected (its duration δ_f); propagation d_l only delays the head
	// and does not occupy capacity. The head-arrival event is tagged with
	// the transit link so a link failure can drop it mid-flight.
	s.queue.push(event{t: now + f.Duration, kind: evReleaseLink, link: ad.Link, amount: f.Rate})
	s.queue.push(event{t: now + link.Delay, kind: evHeadArrive, flow: f, node: ad.Neighbor, link: ad.Link})

	f.Hops++
	s.metrics.Forwards++
	s.trace(TraceForward, f, v, now, a, ad.Link, DropNone)
	s.onAction(f, v, now, a, ActionResult{Kind: ActionForwarded, Link: ad.Link})
}

// complete records a successful flow.
func (s *Sim) complete(f *Flow, now float64) {
	f.done = true
	s.metrics.Succeeded++
	d := now - f.Arrival
	s.metrics.SumDelay += d
	s.metrics.Delays = append(s.metrics.Delays, d)
	if d > s.metrics.MaxDelay {
		s.metrics.MaxDelay = d
	}
	s.trace(TraceComplete, f, f.Egress, now, -1, -1, DropNone)
	s.onFlowEnd(f, true, DropNone, now)
}

// drop records a flow dropped at node v.
func (s *Sim) drop(f *Flow, v graph.NodeID, cause DropCause, now float64) {
	f.done = true
	s.metrics.Dropped++
	s.metrics.DropsBy[cause]++
	s.trace(TraceDrop, f, v, now, -1, -1, cause)
	s.onFlowEnd(f, false, cause, now)
}
