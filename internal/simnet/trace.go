package simnet

import (
	"encoding/json"
	"fmt"
	"strings"

	"distcoord/internal/graph"
)

// TraceKind discriminates per-flow trace events.
type TraceKind int

// Trace event kinds, covering the full flow lifecycle.
const (
	TraceArrival  TraceKind = iota // flow generated at its ingress
	TraceDecision                  // coordinator queried; Action holds its choice
	TraceProcess                   // processing of the current component started
	TraceForward                   // flow sent over Link toward a neighbor
	TraceKeep                      // fully processed flow held for one step
	TraceDrop                      // flow dropped; Drop holds the cause
	TraceComplete                  // flow reached its egress fully processed
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceArrival:
		return "arrival"
	case TraceDecision:
		return "decision"
	case TraceProcess:
		return "process"
	case TraceForward:
		return "forward"
	case TraceKeep:
		return "keep"
	case TraceDrop:
		return "drop"
	case TraceComplete:
		return "complete"
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
}

// DecideTiming decomposes one remote decision round trip into sub-spans
// in integer nanoseconds of wall time. It is the simulator-side mirror
// of agentnet.RPCTiming (simnet must stay independent of the transport
// package, so the fields are duplicated rather than imported) and
// carries the same exact-tiling invariant:
//
//	SendNS + NetNS + QueueNS + InferNS + ReturnNS == TotalNS
//
// attached to TraceDecision events so flow analysis can split a
// decision segment into client-send / network / agent-queue / inference
// / return without any rounding slack. A zero TotalNS means "no remote
// round trip" (in-process decision); exports omit the block then.
type DecideTiming struct {
	TotalNS  int64 `json:"total_ns"`
	SendNS   int64 `json:"send_ns"`
	NetNS    int64 `json:"net_ns"`
	QueueNS  int64 `json:"queue_ns"`
	InferNS  int64 `json:"infer_ns"`
	ReturnNS int64 `json:"return_ns"`
}

// Sum returns the sum of the five sub-spans — equal to TotalNS whenever
// the decomposition is well-formed.
func (t DecideTiming) Sum() int64 {
	return t.SendNS + t.NetNS + t.QueueNS + t.InferNS + t.ReturnNS
}

// TraceEvent is one per-flow simulator event. It is a plain value — the
// simulator constructs it on the stack only when a tracer is installed,
// so disabled tracing adds no allocations to the decision path.
type TraceEvent struct {
	Time    float64
	Kind    TraceKind
	FlowID  int
	Node    graph.NodeID
	CompIdx int       // index of the currently requested component
	Action  int       // coordinator action; -1 when not applicable
	Link    int       // traversed link for TraceForward; -1 otherwise
	Drop    DropCause // cause for TraceDrop; DropNone otherwise
	// Wait, on TraceProcess events, is how long the flow waits before
	// processing actually starts (instance startup / readiness delay):
	// processing occupies [Time+Wait, nextEventTime]. It lets trace
	// analysis split a processing segment into queue-wait and service
	// time without knowing the service definitions.
	Wait float64
	// RPC, on TraceDecision events of remote runs, is the wall-time
	// decomposition of the decision round trip. Zero (TotalNS == 0) for
	// in-process coordinators.
	RPC DecideTiming
}

// traceEventJSON is the export schema: compact keys, symbolic kind and
// drop cause, optional fields omitted.
type traceEventJSON struct {
	Time    float64  `json:"t"`
	Kind    string   `json:"kind"`
	FlowID  int      `json:"flow"`
	Node    int      `json:"node"`
	CompIdx int      `json:"comp"`
	Action  *int     `json:"action,omitempty"`
	Link    *int     `json:"link,omitempty"`
	Drop    string   `json:"drop,omitempty"`
	Wait    *float64 `json:"wait,omitempty"`
	// RPC uses int64 nanosecond fields, so the exact tiling invariant
	// survives the JSON round trip bit-for-bit (float64 would hold these
	// magnitudes exactly too, but integers make the contract obvious).
	RPC *DecideTiming `json:"rpc,omitempty"`
}

// MarshalJSON implements json.Marshaler with symbolic kinds and causes,
// so JSONL flow traces are self-describing.
func (e TraceEvent) MarshalJSON() ([]byte, error) {
	out := traceEventJSON{
		Time:    e.Time,
		Kind:    e.Kind.String(),
		FlowID:  e.FlowID,
		Node:    int(e.Node),
		CompIdx: e.CompIdx,
	}
	if e.Action >= 0 {
		out.Action = &e.Action
	}
	if e.Link >= 0 {
		out.Link = &e.Link
	}
	if e.Drop != DropNone {
		out.Drop = e.Drop.String()
	}
	if e.Wait > 0 {
		out.Wait = &e.Wait
	}
	if e.RPC.TotalNS != 0 {
		out.RPC = &e.RPC
	}
	return json.Marshal(out)
}

// The decode maps are derived from the String() methods at package
// initialization, so adding an enum value (with its String case) can
// never desynchronize encoding from decoding again — the historical bug
// was a hand-written cause map missing "instance-kill".
var (
	traceKindByName = enumByName(func(i int) string {
		s := TraceKind(i).String()
		if strings.HasPrefix(s, "TraceKind(") {
			return ""
		}
		return s
	})
	dropCauseByName = enumByName(func(i int) string {
		s := DropCause(i).String()
		if strings.HasPrefix(s, "DropCause(") {
			return ""
		}
		return s
	})
)

// enumByName probes an iota enum's String method from 0 upward until it
// reports an unknown value ("" from the probe) and returns name → value.
func enumByName(name func(int) string) map[string]int {
	m := make(map[string]int)
	for i := 0; ; i++ {
		s := name(i)
		if s == "" {
			return m
		}
		m[s] = i
	}
}

// UnmarshalJSON implements json.Unmarshaler (round-tripping traces back
// from JSONL logs for analysis).
func (e *TraceEvent) UnmarshalJSON(data []byte) error {
	var in traceEventJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*e = TraceEvent{
		Time:    in.Time,
		FlowID:  in.FlowID,
		Node:    graph.NodeID(in.Node),
		CompIdx: in.CompIdx,
		Action:  -1,
		Link:    -1,
	}
	if in.Action != nil {
		e.Action = *in.Action
	}
	if in.Link != nil {
		e.Link = *in.Link
	}
	if in.Wait != nil {
		e.Wait = *in.Wait
	}
	if in.RPC != nil {
		e.RPC = *in.RPC
	}
	k, ok := traceKindByName[in.Kind]
	if !ok {
		return fmt.Errorf("simnet: unknown trace kind %q", in.Kind)
	}
	e.Kind = TraceKind(k)
	if in.Drop != "" {
		c, ok := dropCauseByName[in.Drop]
		if !ok {
			return fmt.Errorf("simnet: unknown drop cause %q", in.Drop)
		}
		e.Drop = DropCause(c)
	}
	return nil
}

// FlowTracer receives per-flow trace events. Unlike Listener (which
// feeds reward assembly and is always installed), a tracer is optional
// observability: the simulator nil-checks it before constructing any
// event, so the hot path costs nothing when tracing is off. Callbacks
// run synchronously inside the event loop and must not retain the event
// beyond the call unless copied (TraceEvent is a value, so plain
// assignment copies).
type FlowTracer interface {
	Trace(TraceEvent)
}

// TracerFunc adapts a function to the FlowTracer interface.
type TracerFunc func(TraceEvent)

// Trace implements FlowTracer.
func (f TracerFunc) Trace(e TraceEvent) { f(e) }

// trace emits one event when a tracer is installed. The nil check comes
// before the TraceEvent literal, so the disabled path does no work.
func (s *Sim) trace(kind TraceKind, f *Flow, v graph.NodeID, now float64, action, link int, drop DropCause) {
	s.traceWait(kind, f, v, now, action, link, drop, 0)
}

// traceDecision emits the TraceDecision event, attaching the remote
// round-trip decomposition when the coordinator reports one (the
// DecisionTimer capability). The tracer nil-check comes first: untraced
// runs construct nothing and never consult the timer, keeping the
// decide hot path allocation- and branch-light exactly like trace.
func (s *Sim) traceDecision(f *Flow, v graph.NodeID, now float64, action int) {
	if s.cfg.Tracer == nil {
		return
	}
	e := TraceEvent{
		Time:    now,
		Kind:    TraceDecision,
		FlowID:  f.ID,
		Node:    v,
		CompIdx: f.CompIdx,
		Action:  action,
		Link:    -1,
	}
	if s.caps.Timing != nil {
		if t, ok := s.caps.Timing.LastDecideTiming(); ok {
			e.RPC = t
		}
	}
	s.cfg.Tracer.Trace(e)
}

// traceWait is trace with the processing-start wait of TraceProcess
// events (see TraceEvent.Wait).
func (s *Sim) traceWait(kind TraceKind, f *Flow, v graph.NodeID, now float64, action, link int, drop DropCause, wait float64) {
	if s.cfg.Tracer == nil {
		return
	}
	s.cfg.Tracer.Trace(TraceEvent{
		Time:    now,
		Kind:    kind,
		FlowID:  f.ID,
		Node:    v,
		CompIdx: f.CompIdx,
		Action:  action,
		Link:    link,
		Drop:    drop,
		Wait:    wait,
	})
}
