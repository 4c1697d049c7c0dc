package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"distcoord/internal/graph"
)

func newTestState() *State {
	g := lineGraph(3, 2, 5)
	return NewState(g, graph.NewAPSP(g))
}

func TestLedgerAllocRelease(t *testing.T) {
	st := newTestState()
	if st.UsedNode(0) != 0 || st.FreeNode(0) != 2 {
		t.Fatalf("fresh state: used=%f free=%f", st.UsedNode(0), st.FreeNode(0))
	}
	st.allocNode(0, 1.5)
	if st.UsedNode(0) != 1.5 {
		t.Errorf("used = %f, want 1.5", st.UsedNode(0))
	}
	if st.nodeFits(0, 0.6) {
		t.Error("nodeFits accepted over-capacity demand")
	}
	if !st.nodeFits(0, 0.5) {
		t.Error("nodeFits rejected exact-fit demand")
	}
	st.releaseNode(0, 1.5)
	if st.UsedNode(0) != 0 {
		t.Errorf("after release used = %f, want 0", st.UsedNode(0))
	}
	// Over-release clamps at zero rather than going negative.
	st.releaseNode(0, 5)
	if st.UsedNode(0) != 0 {
		t.Errorf("over-release: used = %f, want 0", st.UsedNode(0))
	}
}

func TestLinkLedger(t *testing.T) {
	st := newTestState()
	st.allocLink(0, 4)
	if !st.linkFits(0, 1) {
		t.Error("linkFits rejected exact fit")
	}
	if st.linkFits(0, 1.1) {
		t.Error("linkFits accepted over-capacity rate")
	}
	if st.FreeLink(0) != 1 {
		t.Errorf("FreeLink = %f, want 1", st.FreeLink(0))
	}
	st.releaseLink(0, 10)
	if st.UsedLink(0) != 0 {
		t.Errorf("over-release: used = %f, want 0", st.UsedLink(0))
	}
}

func TestInstanceLifecycle(t *testing.T) {
	st := newTestState()
	comp := &Component{Name: "c", StartupDelay: 3, IdleTimeout: 10}
	if st.HasInstance(0, comp) {
		t.Fatal("instance present before placement")
	}
	inst, created := st.placeInstance(0, comp, 100)
	if !created || inst.ReadyAt != 103 {
		t.Fatalf("placeInstance: created=%v readyAt=%f, want true/103", created, inst.ReadyAt)
	}
	inst2, created2 := st.placeInstance(0, comp, 105)
	if created2 || inst2 != inst {
		t.Error("second placement must return the existing instance")
	}
	inst.BusyUntil = 110
	if st.removeInstanceIfIdle(0, comp, 115) {
		t.Error("instance removed before idle timeout elapsed")
	}
	if !st.removeInstanceIfIdle(0, comp, 120) {
		t.Error("instance not removed after idle timeout")
	}
	if st.HasInstance(0, comp) {
		t.Error("instance still present after removal")
	}
	if st.removeInstanceIfIdle(0, comp, 130) {
		t.Error("removal of absent instance reported true")
	}
}

func TestHasInstanceNilComponent(t *testing.T) {
	st := newTestState()
	if st.HasInstance(0, nil) {
		t.Error("HasInstance(nil) must be false (fully processed flows)")
	}
}

func TestInstanceCounts(t *testing.T) {
	st := newTestState()
	c1 := &Component{Name: "c1"}
	c2 := &Component{Name: "c2"}
	st.placeInstance(0, c1, 0)
	st.placeInstance(0, c2, 0)
	st.placeInstance(1, c1, 0)
	if st.InstanceCount(0) != 2 || st.InstanceCount(1) != 1 {
		t.Errorf("counts = %d,%d, want 2,1", st.InstanceCount(0), st.InstanceCount(1))
	}
	if st.TotalInstances() != 3 {
		t.Errorf("TotalInstances = %d, want 3", st.TotalInstances())
	}
}

// Property: the node ledger never reports negative usage and nodeFits is
// consistent with Free, across random alloc/release sequences.
func TestLedgerProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := newTestState()
		outstanding := 0.0
		for i := 0; i < 200; i++ {
			if rng.Float64() < 0.5 {
				amt := rng.Float64()
				if st.nodeFits(0, amt) {
					st.allocNode(0, amt)
					outstanding += amt
				}
			} else if outstanding > 0 {
				st.releaseNode(0, outstanding)
				outstanding = 0
			}
			if st.UsedNode(0) < 0 {
				return false
			}
			if st.UsedNode(0) > st.Graph().Node(0).Capacity+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	q.push(event{t: 5, kind: evTick})
	q.push(event{t: 1, kind: evTick})
	q.push(event{t: 3, kind: evTick})
	q.push(event{t: 3, kind: evGenArrival}) // same time: FIFO by sequence
	times := []float64{1, 3, 3, 5}
	kinds := []eventKind{evTick, evTick, evGenArrival, evTick}
	for i := range times {
		e := q.pop()
		if e.t != times[i] || e.kind != kinds[i] {
			t.Fatalf("pop %d = (t=%f kind=%d), want (t=%f kind=%d)", i, e.t, e.kind, times[i], kinds[i])
		}
	}
}

// Property: events always pop in non-decreasing time order.
func TestEventQueueMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		for i := 0; i < 300; i++ {
			q.push(event{t: rng.Float64() * 100})
		}
		last := -1.0
		for q.Len() > 0 {
			e := q.pop()
			if e.t < last {
				return false
			}
			last = e.t
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDropCauseString(t *testing.T) {
	for c, want := range map[DropCause]string{
		DropNone:          "none",
		DropInvalidAction: "invalid-action",
		DropNodeCapacity:  "node-capacity",
		DropLinkCapacity:  "link-capacity",
		DropExpired:       "expired",
		DropCause(42):     "DropCause(42)",
	} {
		if got := c.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(c), got, want)
		}
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := newMetrics()
	if m.SuccessRatio() != 0 || m.AvgDelay() != 0 {
		t.Error("zero metrics must report zero ratios")
	}
	m.Arrived = 4
	m.Succeeded = 3
	m.Dropped = 1
	m.SumDelay = 30
	if got := m.SuccessRatio(); got != 0.75 {
		t.Errorf("SuccessRatio = %f, want 0.75", got)
	}
	if got := m.AvgDelay(); got != 10 {
		t.Errorf("AvgDelay = %f, want 10", got)
	}
	if m.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", m.Pending())
	}
	m.DropsBy[DropExpired] = 1
	c := m.Clone()
	c.DropsBy[DropExpired] = 99
	if m.DropsBy[DropExpired] != 1 {
		t.Error("Clone shares DropsBy map")
	}
}

func TestFlowHelpers(t *testing.T) {
	svc := testService(5)
	f := &Flow{Service: svc, Arrival: 10, Deadline: 100}
	if f.Processed() {
		t.Error("fresh flow reported processed")
	}
	if f.Current() != svc.Chain[0] {
		t.Error("Current != first component")
	}
	if got := f.Progress(); got != 0 {
		t.Errorf("Progress = %f, want 0", got)
	}
	f.CompIdx = 1
	if got := f.Progress(); got != 0.5 {
		t.Errorf("Progress = %f, want 0.5", got)
	}
	f.CompIdx = 2
	if !f.Processed() || f.Current() != nil {
		t.Error("fully traversed flow must be processed with nil Current")
	}
	if got := f.Remaining(60); got != 50 {
		t.Errorf("Remaining(60) = %f, want 50", got)
	}
}

func TestDelayQuantile(t *testing.T) {
	m := newMetrics()
	if m.DelayQuantile(0.5) != 0 {
		t.Error("quantile of empty delays must be 0")
	}
	m.Delays = []float64{5, 1, 3, 2, 4} // unsorted on purpose
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := m.DelayQuantile(c.q); got != c.want {
			t.Errorf("DelayQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must stay unsorted (quantile works on a copy).
	if m.Delays[0] != 5 {
		t.Error("DelayQuantile mutated the delays slice")
	}
}

func TestCloneCopiesDelays(t *testing.T) {
	m := newMetrics()
	m.Delays = []float64{1, 2}
	c := m.Clone()
	c.Delays[0] = 99
	if m.Delays[0] != 1 {
		t.Error("Clone shares Delays slice")
	}
}

// TestEventQueueCollidingTimestampsPopInInsertionOrder is the heap
// tie-breaking regression: events at identical timestamps must pop in
// insertion order, independent of heap internals — the event loop's
// determinism relies on it. The ingress field doubles as the insertion
// index.
func TestEventQueueCollidingTimestampsPopInInsertionOrder(t *testing.T) {
	var q eventQueue
	// A deterministic pseudo-random time pattern with heavy collisions:
	// only 5 distinct timestamps across 1000 events.
	rng := rand.New(rand.NewSource(99))
	times := make([]float64, 1000)
	for i := range times {
		times[i] = float64(rng.Intn(5))
		q.push(event{t: times[i], ingress: i})
	}
	lastT, lastSeq := -1.0, -1
	for i := 0; q.Len() > 0; i++ {
		e := q.pop()
		if e.t < lastT {
			t.Fatalf("pop %d: time went backwards: %g after %g", i, e.t, lastT)
		}
		if e.t > lastT {
			lastT, lastSeq = e.t, -1
		}
		if e.ingress <= lastSeq {
			t.Fatalf("pop %d: insertion order violated at t=%g: index %d after %d", i, e.t, e.ingress, lastSeq)
		}
		if times[e.ingress] != e.t {
			t.Fatalf("pop %d: event %d corrupted: t=%g, pushed %g", i, e.ingress, e.t, times[e.ingress])
		}
		lastSeq = e.ingress
	}
}

// TestEventQueueTieBreakSurvivesInterleavedPops extends the regression
// to interleaved push/pop (the event loop's actual access pattern):
// same-time events pushed across different heap shapes must still pop in
// insertion order.
func TestEventQueueTieBreakSurvivesInterleavedPops(t *testing.T) {
	var q eventQueue
	next := 0
	push := func(tm float64) {
		q.push(event{t: tm, ingress: next})
		next++
	}
	var popped []event
	popOne := func() {
		if q.Len() > 0 {
			popped = append(popped, q.pop())
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) == 0 {
			popOne()
		} else {
			// Times never decrease below the current minimum, as in a real
			// simulation run.
			base := 0.0
			if q.Len() > 0 {
				base = q.peek().t
			}
			push(base + float64(rng.Intn(3)))
		}
	}
	for q.Len() > 0 {
		popOne()
	}
	for i := 1; i < len(popped); i++ {
		a, b := popped[i-1], popped[i]
		if a.t == b.t && a.ingress > b.ingress {
			t.Fatalf("pop %d: same-time events out of insertion order: %d before %d at t=%g", i, a.ingress, b.ingress, a.t)
		}
	}
}
