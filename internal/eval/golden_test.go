package eval

import (
	"crypto/md5"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"distcoord/internal/baselines"
	"distcoord/internal/chaos"
	"distcoord/internal/coord"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
)

// These golden hashes pin the sequential simulation engine byte-for-byte
// across refactors on the fig6b scenario family and on fault-injection
// scenarios. If one of these tests fails, the event loop changed
// behavior — that is a regression, not a baseline to re-pin.
const (
	goldenFig6bHash  = "b3bbf1a64eee2ed8af4e872512fccc53"
	goldenFaultsHash = "51a695a0969f62640dc88e4622f06f6a"
)

// metricsFingerprint serializes metrics canonically: every counter,
// every drop cause in sorted order, and every delay with full float64
// precision, so two metrics differing anywhere fingerprint differently.
func metricsFingerprint(m *simnet.Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "arrived=%d succeeded=%d dropped=%d decisions=%d forwards=%d processings=%d keeps=%d faults=%d\n",
		m.Arrived, m.Succeeded, m.Dropped, m.Decisions, m.Forwards, m.Processings, m.Keeps, m.Faults)
	fmt.Fprintf(&b, "sumdelay=%s maxdelay=%s\n",
		strconv.FormatFloat(m.SumDelay, 'g', -1, 64), strconv.FormatFloat(m.MaxDelay, 'g', -1, 64))
	causes := make([]int, 0, len(m.DropsBy))
	for c := range m.DropsBy {
		causes = append(causes, int(c))
	}
	sort.Ints(causes)
	for _, c := range causes {
		fmt.Fprintf(&b, "drop[%s]=%d\n", simnet.DropCause(c), m.DropsBy[simnet.DropCause(c)])
	}
	for _, d := range m.Delays {
		b.WriteString(strconv.FormatFloat(d, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// goldenCoordinators builds the coordinator set exercising every engine
// decision path: the two deterministic baselines plus the distributed
// DRL coordinator (randomly initialized — training is irrelevant for
// pinning the event loop) in both argmax and sampling mode.
func goldenCoordinators(t *testing.T, inst *Instance, seed int64) []simnet.Coordinator {
	t.Helper()
	adapter := coord.NewAdapter(inst.Graph, inst.APSP)
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize:    adapter.ObsSize(),
		NumActions: adapter.NumActions(),
		Hidden:     []int{32, 32},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := coord.NewDistributed(adapter, agent.Actor)
	if err != nil {
		t.Fatal(err)
	}
	greedy.Stochastic = false
	greedy.Reseed(seed + 1)
	sampling, err := coord.NewDistributed(adapter, agent.Actor)
	if err != nil {
		t.Fatal(err)
	}
	sampling.Reseed(seed + 1)
	return []simnet.Coordinator{baselines.SP{}, baselines.GCASP{}, greedy, sampling}
}

// runGolden accumulates the fingerprints of every (scenario, coordinator,
// seed) cell and returns the md5 over the whole transcript.
func runGolden(t *testing.T, scenarios []Scenario, seeds []int64) string {
	t.Helper()
	var b strings.Builder
	for si, s := range scenarios {
		for _, seed := range seeds {
			inst, err := s.Instantiate(seed)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range goldenCoordinators(t, inst, seed) {
				m, err := inst.Run(c)
				if err != nil {
					t.Fatalf("scenario %d seed %d coordinator %s: %v", si, seed, c.Name(), err)
				}
				fmt.Fprintf(&b, "scenario=%d seed=%d coord=%d %s\n%s", si, seed, ci, c.Name(), metricsFingerprint(m))
			}
		}
	}
	return fmt.Sprintf("%x", md5.Sum([]byte(b.String())))
}

// TestSequentialEngineGoldenFig6b pins the sequential engine on the
// fig6b scenario family (Abilene, growing ingress count) at a trimmed
// horizon: md5 over the canonical metrics of every cell.
func TestSequentialEngineGoldenFig6b(t *testing.T) {
	var scenarios []Scenario
	for _, ing := range []int{1, 2, 3} {
		s := Base()
		s.NumIngresses = ing
		s.Horizon = 2000
		scenarios = append(scenarios, s)
	}
	if got := runGolden(t, scenarios, []int64{0, 1}); got != goldenFig6bHash {
		t.Fatalf("sequential engine changed on fig6b scenarios: md5 %s, want %s", got, goldenFig6bHash)
	}
}

// TestSequentialEngineGoldenFaults pins the sequential engine under
// fault injection: node outages, link cascades, and instance kills all
// exercise the event loop's dynamic-topology paths.
func TestSequentialEngineGoldenFaults(t *testing.T) {
	var scenarios []Scenario
	for _, spec := range []string{"node-outage:count=2,seed=7", "link-cascade:count=3,seed=3", "instance-kill:count=4,seed=5"} {
		fs, err := chaos.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := Base()
		s.Horizon = 1500
		s.Faults = fs
		scenarios = append(scenarios, s)
	}
	if got := runGolden(t, scenarios, []int64{0, 1}); got != goldenFaultsHash {
		t.Fatalf("sequential engine changed on fault scenarios: md5 %s, want %s", got, goldenFaultsHash)
	}
}
