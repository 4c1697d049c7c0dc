package simnet

// Caps is the resolved set of optional Coordinator capabilities: one
// typed, possibly-nil handle per capability interface. It exists so the
// question "what can this coordinator do?" is answered in exactly one
// place — Capabilities — instead of ad-hoc type assertions scattered
// across the engine. Every nil field simply means "capability absent".
//
// The struct must stay in one-to-one correspondence with the exported
// capability interfaces of this package (the ones documented as
// "optional Coordinator capability"); TestCapsExhaustive pins that.
type Caps struct {
	// Flow is the coordinator-as-listener capability (FlowObserver):
	// learning coordinators observe action outcomes and flow ends.
	Flow FlowObserver
	// Ticker updates internal rules periodically from monitoring data.
	Ticker Ticker
	// Resetter clears per-run coordinator state between runs.
	Resetter Resetter
	// Topology is notified when fault injection changes liveness.
	Topology TopologyObserver
	// Batch resolves same-(node, time) decision cohorts in one call.
	Batch BatchDecider
	// Timing reports the wall-time decomposition of remote decision
	// round trips for trace attribution.
	Timing DecisionTimer
}

// DecisionTimer is an optional Coordinator capability: a coordinator
// whose decisions cross a process boundary (coord.Remote) reports the
// sub-span decomposition of its most recent decision round trip. The
// engine consults it only while a flow tracer is installed, attaching
// the decomposition to TraceDecision events so trace analysis can split
// a decision segment into client-send / network / agent-queue /
// inference / return sub-spans that exactly tile it.
type DecisionTimer interface {
	// LastDecideTiming returns the decomposition of the most recent
	// decision round trip, and false while none has happened yet.
	LastDecideTiming() (DecideTiming, bool)
}

// CapsProvider is implemented by coordinators whose capability set is
// not a property of their Go type: a networked coordinator (coord.Remote)
// learns at handshake time which capabilities its agents negotiated, so
// it reports them explicitly instead of growing a parallel set of type
// switches. Capabilities prefers a provider's self-report over type
// assertions.
//
// A provider must only report handles that are actually functional —
// e.g. Batch only when every connected agent acknowledged the batched
// decision capability on the wire.
type CapsProvider interface {
	Coordinator
	// Capabilities returns the coordinator's effective capability set.
	Capabilities() Caps
}

// Capabilities resolves the optional capabilities of c. This is the
// single capability-resolution seam of the engine: simulation
// construction (New) routes through it, so a new capability is wired in
// exactly one place.
func Capabilities(c Coordinator) Caps {
	if p, ok := c.(CapsProvider); ok {
		return p.Capabilities()
	}
	var caps Caps
	if fo, ok := c.(FlowObserver); ok {
		caps.Flow = fo
	}
	if tk, ok := c.(Ticker); ok {
		caps.Ticker = tk
	}
	if r, ok := c.(Resetter); ok {
		caps.Resetter = r
	}
	if to, ok := c.(TopologyObserver); ok {
		caps.Topology = to
	}
	if bd, ok := c.(BatchDecider); ok {
		caps.Batch = bd
	}
	if dt, ok := c.(DecisionTimer); ok {
		caps.Timing = dt
	}
	return caps
}
