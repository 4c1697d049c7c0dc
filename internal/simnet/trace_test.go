package simnet

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"

	"distcoord/internal/traffic"
)

// collectTracer records every trace event.
type collectTracer struct {
	events []TraceEvent
}

func (c *collectTracer) Trace(e TraceEvent) { c.events = append(c.events, e) }

func (c *collectTracer) kinds() []TraceKind {
	out := make([]TraceKind, len(c.events))
	for i, e := range c.events {
		out[i] = e.Kind
	}
	return out
}

func TestTraceCoversSuccessfulFlowLifecycle(t *testing.T) {
	g := lineGraph(3, 10, 10)
	svc := testService(5)
	tr := &collectTracer{}
	cfg := oneFlow(g, svc, 2, 100, spCoord{})
	cfg.Ingresses = []Ingress{{Node: 0, Arrivals: traffic.Fixed{Interval: 10}}}
	cfg.Horizon = 11
	cfg.MaxTime = 0
	cfg.Tracer = tr
	m := mustRun(t, cfg)
	if m.Succeeded != 1 {
		t.Fatalf("succeeded = %d, want 1", m.Succeeded)
	}

	want := map[TraceKind]int{TraceArrival: 1, TraceProcess: 2, TraceForward: 2, TraceComplete: 1}
	got := map[TraceKind]int{}
	for _, e := range tr.events {
		got[e.Kind]++
		if e.FlowID != 0 {
			t.Errorf("event %v has flow ID %d, want 0", e.Kind, e.FlowID)
		}
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%v events = %d, want %d (all: %v)", k, got[k], n, tr.kinds())
		}
	}
	// One decision per coordinator query, matching the metrics counter.
	if got[TraceDecision] != m.Decisions {
		t.Errorf("decision events = %d, metrics.Decisions = %d", got[TraceDecision], m.Decisions)
	}
	if tr.events[0].Kind != TraceArrival {
		t.Errorf("first event = %v, want arrival", tr.events[0].Kind)
	}
	if last := tr.events[len(tr.events)-1]; last.Kind != TraceComplete || last.Node != 2 {
		t.Errorf("last event = %+v, want complete at egress 2", last)
	}
	// Times must be non-decreasing: callbacks run inside the event loop.
	for i := 1; i < len(tr.events); i++ {
		if tr.events[i].Time < tr.events[i-1].Time {
			t.Errorf("event %d time %g precedes %g", i, tr.events[i].Time, tr.events[i-1].Time)
		}
	}
}

func TestTraceReportsDropCause(t *testing.T) {
	g := lineGraph(2, 0.1, 10) // no node fits the unit-resource component
	svc := testService(5)
	tr := &collectTracer{}
	cfg := oneFlow(g, svc, 1, 100, &fixedCoord{script: []int{0}})
	cfg.Ingresses = []Ingress{{Node: 0, Arrivals: traffic.Fixed{Interval: 10}}}
	cfg.Horizon = 11
	cfg.MaxTime = 0
	cfg.Tracer = tr
	m := mustRun(t, cfg)
	if m.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", m.Dropped)
	}
	var drops []TraceEvent
	for _, e := range tr.events {
		if e.Kind == TraceDrop {
			drops = append(drops, e)
		}
	}
	if len(drops) != 1 || drops[0].Drop != DropNodeCapacity || drops[0].Node != 0 {
		t.Errorf("drop events = %+v, want one node-capacity drop at node 0", drops)
	}
}

func TestTraceEventJSONRoundTrip(t *testing.T) {
	events := []TraceEvent{
		{Time: 10, Kind: TraceArrival, FlowID: 3, Node: 1, Action: -1, Link: -1},
		{Time: 11.5, Kind: TraceDecision, FlowID: 3, Node: 1, CompIdx: 1, Action: 2, Link: -1},
		{Time: 12, Kind: TraceForward, FlowID: 3, Node: 1, CompIdx: 1, Action: 2, Link: 4},
		{Time: 13, Kind: TraceProcess, FlowID: 3, Node: 2, CompIdx: 1, Action: 0, Link: -1, Wait: 2.5},
		{Time: 20, Kind: TraceDrop, FlowID: 3, Node: 2, CompIdx: 1, Action: -1, Link: -1, Drop: DropExpired},
		{Time: 21, Kind: TraceComplete, FlowID: 4, Node: 7, CompIdx: 3, Action: -1, Link: -1},
	}
	for _, e := range events {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %+v: %v", e, err)
		}
		var back TraceEvent
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != e {
			t.Errorf("round trip %s: got %+v, want %+v", data, back, e)
		}
	}
}

// TestTraceEventJSONRoundTripExhaustive round-trips every TraceKind and
// every DropCause the String() methods know about, so a new enum value
// whose symbolic name is missing from the decode path can never ship
// again (the regression: "instance-kill" traces from -faults runs failed
// to parse). The enum sizes are probed from the String() fallback, the
// same way the decode maps are built — if String() itself misses a
// value, the value has no symbolic name and cannot round-trip at all.
func TestTraceEventJSONRoundTripExhaustive(t *testing.T) {
	if len(traceKindByName) < 7 {
		t.Fatalf("probed %d trace kinds, want >= 7", len(traceKindByName))
	}
	// DropNone is index 0 and never serialized for non-drop events, so
	// at least invalid-action .. instance-kill must be present.
	if len(dropCauseByName) < 8 {
		t.Fatalf("probed %d drop causes, want >= 8", len(dropCauseByName))
	}
	if _, ok := dropCauseByName[DropInstanceKill.String()]; !ok {
		t.Fatalf("decode map misses %q", DropInstanceKill.String())
	}
	for _, k := range traceKindByName {
		kind := TraceKind(k)
		for _, c := range dropCauseByName {
			cause := DropCause(c)
			if kind != TraceDrop && cause != DropNone {
				continue // Drop is only serialized on drop events
			}
			e := TraceEvent{Time: 1.5, Kind: kind, FlowID: 9, Node: 2, CompIdx: 1, Action: -1, Link: -1, Drop: cause}
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("marshal %v/%v: %v", kind, cause, err)
			}
			var back TraceEvent
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal %v/%v (%s): %v", kind, cause, data, err)
			}
			if back != e {
				t.Errorf("round trip %v/%v: got %+v, want %+v", kind, cause, back, e)
			}
		}
	}
}

// TestTraceDisabledAddsZeroAllocs pins the acceptance criterion that the
// telemetry hooks cost nothing when off: with a nil tracer, the trace
// call itself and a full keep-decision through the event queue allocate
// nothing (once the queue's backing array has grown to steady state).
func TestTraceDisabledAddsZeroAllocs(t *testing.T) {
	g := lineGraph(3, 10, 10)
	svc := testService(5)
	cfg := oneFlow(g, svc, 2, 100, &fixedCoord{})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &Flow{ID: 1, Service: svc, CompIdx: svc.Len(), Egress: 2, Rate: 1, Duration: 1, Deadline: 1e9}

	x := s
	if avg := testing.AllocsPerRun(1000, func() {
		x.trace(TraceDecision, f, 0, 1, 0, -1, DropNone)
	}); avg != 0 {
		t.Errorf("trace with nil tracer allocates %.1f per call, want 0", avg)
	}

	// Warm the queue so append stays within capacity, then measure the
	// keep decision path end to end (processLocally + event scheduling).
	x.processLocally(f, 0, 1)
	x.queue.pop()
	if avg := testing.AllocsPerRun(1000, func() {
		x.processLocally(f, 0, 1)
		x.queue.pop()
	}); avg != 0 {
		t.Errorf("keep decision path allocates %.1f per run with telemetry off, want 0", avg)
	}
}

// TestSimDeterministicMetrics is the golden-style regression: two runs
// of an identically seeded simulation must produce byte-identical
// metrics, including the full delay list.
func TestSimDeterministicMetrics(t *testing.T) {
	run := func() []byte {
		g := lineGraph(5, 2, 3)
		svc := testService(2)
		rng := rand.New(rand.NewSource(99))
		cfg := Config{
			Graph:   g,
			Service: svc,
			Ingresses: []Ingress{
				{Node: 0, Arrivals: traffic.NewPoisson(5, rand.New(rand.NewSource(rng.Int63())))},
				{Node: 1, Arrivals: traffic.NewPoisson(7, rand.New(rand.NewSource(rng.Int63())))},
			},
			Egress:      4,
			Template:    FlowTemplate{Rate: 1, Duration: 1, Deadline: 60},
			Horizon:     400,
			Coordinator: spCoord{},
		}
		m := mustRun(t, cfg)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("identically seeded runs diverge:\n%s\n%s", a, b)
	}
	// Sanity: the scenario must exercise both outcomes to be a useful
	// regression anchor.
	var m Metrics
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatal(err)
	}
	if m.Succeeded == 0 || m.Arrived < 20 {
		t.Errorf("degenerate determinism scenario: %s", a)
	}
}

func TestDelayQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		m := &Metrics{DropsBy: map[DropCause]int{}}
		for i := 0; i < n; i++ {
			m.Delays = append(m.Delays, rng.Float64()*1000)
		}
		m.Succeeded = n

		sorted := append([]float64(nil), m.Delays...)
		sort.Float64s(sorted)
		oracle := func(q float64) float64 {
			if q <= 0 {
				return sorted[0]
			}
			if q >= 1 {
				return sorted[n-1]
			}
			idx := int(math.Ceil(q*float64(n))) - 1
			if idx < 0 {
				idx = 0
			}
			return sorted[idx]
		}

		prev := math.Inf(-1)
		for i := 0; i <= 100; i++ {
			q := float64(i) / 100
			got := m.DelayQuantile(q)
			if want := oracle(q); got != want {
				t.Fatalf("n=%d q=%.2f: DelayQuantile = %g, oracle = %g", n, q, got, want)
			}
			if got < sorted[0] || got > sorted[n-1] {
				t.Fatalf("n=%d q=%.2f: %g outside [min, max]", n, q, got)
			}
			if got < prev {
				t.Fatalf("n=%d q=%.2f: not monotone (%g < %g)", n, q, got, prev)
			}
			prev = got
		}
	}
}

func TestDelayQuantileCacheFollowsAppends(t *testing.T) {
	m := &Metrics{Delays: []float64{30, 10, 20}}
	if got := m.DelayQuantile(1); got != 30 {
		t.Fatalf("max = %g, want 30", got)
	}
	m.Delays = append(m.Delays, 50) // as complete() does
	if got := m.DelayQuantile(1); got != 50 {
		t.Errorf("max after append = %g, want 50 (stale cache?)", got)
	}
	if got := m.DelayQuantile(0); got != 10 {
		t.Errorf("min = %g, want 10", got)
	}
}

func TestMetricsCloneDoesNotShareQuantileCache(t *testing.T) {
	m := &Metrics{Delays: []float64{3, 1, 2}, DropsBy: map[DropCause]int{}}
	m.DelayQuantile(0.5) // populate cache
	c := m.Clone()
	c.Delays = append(c.Delays, 100)
	if got := c.DelayQuantile(1); got != 100 {
		t.Errorf("clone quantile = %g, want 100", got)
	}
	if got := m.DelayQuantile(1); got != 3 {
		t.Errorf("original quantile = %g, want 3", got)
	}
}

// TestEventQueueRandomizedOrdering pins the hand-rolled heap against a
// reference sort over random (time, insertion) pairs.
func TestEventQueueRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var q eventQueue
	type key struct {
		t   float64
		seq int
	}
	var want []key
	seq := 0
	for i := 0; i < 500; i++ {
		// Mix pushes and pops to exercise interior heap states.
		if rng.Float64() < 0.3 && q.Len() > 0 {
			e := q.pop()
			sort.Slice(want, func(i, j int) bool {
				if want[i].t != want[j].t {
					return want[i].t < want[j].t
				}
				return want[i].seq < want[j].seq
			})
			if e.t != want[0].t || int(e.seq) != want[0].seq {
				t.Fatalf("pop = (%g, %d), want (%g, %d)", e.t, e.seq, want[0].t, want[0].seq)
			}
			want = want[1:]
			continue
		}
		// Duplicate times are common (ties broken by seq).
		tm := float64(rng.Intn(20))
		q.push(event{t: tm, kind: evTick})
		want = append(want, key{t: tm, seq: seq})
		seq++
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].t != want[j].t {
			return want[i].t < want[j].t
		}
		return want[i].seq < want[j].seq
	})
	for _, w := range want {
		e := q.pop()
		if e.t != w.t || int(e.seq) != w.seq {
			t.Fatalf("drain pop = (%g, %d), want (%g, %d)", e.t, e.seq, w.t, w.seq)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue not empty after drain: %d", q.Len())
	}
}
