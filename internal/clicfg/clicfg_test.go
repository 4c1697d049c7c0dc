package clicfg

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"distcoord/internal/flowtrace"
	"distcoord/internal/graph"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/traffic"
)

// parseArgs registers the shared surface on a fresh FlagSet and parses
// args into it.
func parseArgs(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("clicfg-test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestObsWaitRequiresObsAddr(t *testing.T) {
	if _, err := parseArgs(t, "-obs-wait", "1s").Apply(); err == nil {
		t.Error("-obs-wait without -obs-addr accepted")
	}
	if _, err := parseArgs(t, "-obs-addr", "127.0.0.1:0", "-obs-wait", "-1s").Apply(); err == nil {
		t.Error("negative -obs-wait accepted")
	}
}

func TestTracerComposition(t *testing.T) {
	rt, err := parseArgs(t).Apply()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Tracer() != nil {
		t.Error("tracer non-nil with tracing and obs both off")
	}
	if rt.Registry() == nil {
		t.Error("registry must always be available")
	}
	if rt.ObsEnabled() || rt.ObsAddr() != "" {
		t.Error("obs reported enabled without -obs-addr")
	}

	rtObs, err := parseArgs(t, "-obs-addr", "127.0.0.1:0").Apply()
	if err != nil {
		t.Fatal(err)
	}
	defer rtObs.Close()
	if rtObs.Tracer() == nil {
		t.Error("obs alone must install the live collector tracer")
	}
	if !rtObs.ObsEnabled() || rtObs.ObsAddr() == "" {
		t.Error("obs not serving under -obs-addr :0")
	}
}

// lineSim runs a small line-topology simulation with the runtime's
// tracer installed.
func lineSim(t *testing.T, rt *Runtime) *simnet.Metrics {
	t.Helper()
	g := graph.New("line")
	for i := 0; i < 3; i++ {
		g.AddNode("", 0, float64(i))
		g.SetNodeCapacity(graph.NodeID(i), 10)
	}
	for i := 0; i < 2; i++ {
		if err := g.AddLink(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
		g.SetLinkCapacity(i, 10)
	}
	cfg := simnet.Config{
		Graph: g,
		Service: &simnet.Service{Name: "svc", Chain: []*simnet.Component{
			{Name: "c1", ProcDelay: 5, StartupDelay: 2, IdleTimeout: 1000, ResourcePerRate: 1},
		}},
		Ingresses:   []simnet.Ingress{{Node: 0, Arrivals: traffic.Fixed{Interval: 2}}},
		Egress:      2,
		Template:    simnet.FlowTemplate{Rate: 1, Duration: 1, Deadline: 100},
		Horizon:     201,
		Coordinator: egressCoord{},
		Tracer:      rt.Tracer(),
		Faults:      []simnet.Fault{{Time: 13, Kind: simnet.FaultInstanceKill, Node: 2}},
	}
	s, err := simnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// egressCoord forwards everything to the egress and processes there.
type egressCoord struct{}

func (egressCoord) Name() string { return "test-egress" }

func (egressCoord) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, _ float64) int {
	if v == f.Egress {
		return 0
	}
	hop := st.APSP().NextHop(v, f.Egress)
	for i, ad := range st.Graph().Neighbors(v) {
		if ad.Neighbor == hop {
			return i + 1
		}
	}
	return 0
}

// TestObsServesLiveRun is the integration race test: a simulation and a
// training feed mutate the runtime registry while HTTP scrapers hit all
// three endpoints, and afterwards the live collector's counters, the
// JSONL trace file, and an offline reassembly must all agree.
func TestObsServesLiveRun(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	rt, err := parseArgs(t, "-obs-addr", "127.0.0.1:0", "-flow-trace", tracePath).Apply()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.SetObsInfo("algo", "test")
	base := "http://" + rt.ObsAddr()

	var m *simnet.Metrics
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		m = lineSim(t, rt)
		// Keep the training feed alive so scrapers overlap real writes.
		for i := 0; i < 50; i++ {
			rt.OnEpisode(rl.EpisodeRecord{Seed: i % 2, Episode: i, Score: 0.5, RolloutMS: 1, UpdateMS: 1})
			rt.Registry().Gauge("grid.cells.total").Set(10)
			rt.Registry().Gauge("grid.cells.done").Set(float64(i % 11))
		}
		close(stop)
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/snapshot", "/run"} {
					resp, err := http.Get(base + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("GET %s -> %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// Final state: every flow the sim terminated must be in the live
	// collector's registry feed.
	snap := rt.Registry().Snapshot()
	if got := snap.Counters["flow.traced.completed"]; got != int64(m.Succeeded) {
		t.Errorf("flow.traced.completed = %d, want %d", got, m.Succeeded)
	}
	if got := snap.Counters["flow.traced.dropped"]; got != int64(m.Dropped) {
		t.Errorf("flow.traced.dropped = %d, want %d", got, m.Dropped)
	}
	if snap.Counters["train.episodes"] != 50 {
		t.Errorf("train.episodes = %d, want 50", snap.Counters["train.episodes"])
	}

	// The scrape endpoints reflect the same registry.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"flow_traced_completed", "grid_cells_total 10", "train_episodes 50", "flow_phase_total_count"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The JSONL sink got the same event stream: close flushes it, and the
	// offline reassembly agrees with the sim's metrics.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []simnet.TraceEvent
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e simnet.TraceEvent
		if err := e.UnmarshalJSON([]byte(line)); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		events = append(events, e)
	}
	spans, err := flowtrace.Assemble(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != m.Arrived {
		t.Errorf("%d spans from trace file, want %d arrived flows", len(spans), m.Arrived)
	}
}

// TestFlagValidation is the unified consistency check over the shared
// flag surface: every inconsistent combination must be rejected with an
// error before any sink or server is opened, and sane combinations must
// pass.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"negative jobs", []string{"-jobs", "-1"}, false},
		{"negative batch", []string{"-batch", "-2"}, false},
		{"obs-wait without obs-addr", []string{"-obs-wait", "5s"}, false},
		{"agentd serving", []string{"-listen", "127.0.0.1:0"}, true},
		{"remote fleet", []string{"-agents", "127.0.0.1:7501,127.0.0.1:7502"}, true},
		{"listen and agents together", []string{"-listen", ":0", "-agents", "127.0.0.1:7501"}, false},
		{"model-push without agents", []string{"-model-push"}, false},
		{"model-push with agents", []string{"-model-push", "-agents", "127.0.0.1:7501"}, true},
		{"empty agent endpoint", []string{"-agents", "127.0.0.1:7501,,127.0.0.1:7502"}, false},
	}
	for _, tc := range cases {
		err := parseArgs(t, tc.args...).Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: inconsistent flags accepted", tc.name)
		}
	}
}

func TestAgentEndpoints(t *testing.T) {
	if eps := parseArgs(t).AgentEndpoints(); eps != nil {
		t.Errorf("no -agents, endpoints %v", eps)
	}
	got := parseArgs(t, "-agents", "127.0.0.1:7501, 127.0.0.1:7502").AgentEndpoints()
	want := []string{"127.0.0.1:7501", "127.0.0.1:7502"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("endpoints %v, want %v", got, want)
	}
}

// TestRunOptionsBuilder pins the single flag→options mapping: the shared
// run options a binary gets must reflect the parsed flags, not per-binary
// hand-threading.
func TestRunOptionsBuilder(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	rt, err := parseArgs(t, "-batch", "16", "-flow-trace", tracePath).Apply()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	opts := rt.RunOptions()
	if opts.MaxBatch != 16 {
		t.Errorf("MaxBatch = %d, want 16", opts.MaxBatch)
	}
	if opts.Tracer == nil {
		t.Error("Tracer nil despite -flow-trace")
	}

	rt2, err := parseArgs(t).Apply()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	opts2 := rt2.RunOptions()
	if opts2.MaxBatch != 0 || opts2.Tracer != nil {
		t.Errorf("default run options not zero-valued: %+v", opts2)
	}
}

func TestDecideRTTOnRegistry(t *testing.T) {
	rt, err := parseArgs(t).Apply()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.DecideRTT().Observe(123)
	if got := rt.Registry().Histogram("rpc_decide_rtt_us").Count(); got != 1 {
		t.Errorf("rpc_decide_rtt_us count = %d, want 1", got)
	}
}
