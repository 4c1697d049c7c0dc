package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/traffic"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{1009, 99, true},
		{10000, 99.9, true},
		{1000000, 99.999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rank(got, c.n); beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := quantile(xs, 50, 0); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %g, want 2", got)
	}
	if got := quantile(xs, 100, 0); got != 4 {
		t.Errorf("p100 of 1..4 = %g, want 4", got)
	}
	if got := quantile(nil, 50, 1); got != 0 {
		t.Errorf("median of no samples = %g, want 0", got)
	}
	// Tied whole-nanosecond samples spread over their rounding interval:
	// 67 stands for [66.5, 67.5).
	tied := []float64{66, 67, 67, 67, 67, 68}
	if got := quantile(tied, 50, 1); got != 66.5+0.5 {
		t.Errorf("median of tied samples = %g, want 67", got)
	}
	if lo, hi := quantile(tied, 20, 1), quantile(tied, 60, 1); !(66.5 <= lo && lo < hi && hi <= 67.5) {
		t.Errorf("p20 %g and p60 %g should rise within the tied run [66.5, 67.5]", lo, hi)
	}
}

func TestPinnedPolicy(t *testing.T) {
	if got := nn.Checksum(policyBytes); got != policyHash {
		t.Fatalf("policy.json hashes to %s, policyHash pins %s", got, policyHash)
	}
}

// shortBase is eval.Base with a short horizon, to keep tests quick.
func shortBase() eval.Scenario {
	s := eval.Base()
	s.Horizon = 1500
	return s
}

// smallBurst is the scale-burst scenario on 60 nodes: the batched path
// at test size.
func smallBurst() eval.Scenario {
	s := scaleBurst()
	g := graph.SyntheticScale(60, 0x5CA1E)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetNodeCapacity(graph.NodeID(v), 40)
	}
	for l := 0; l < g.NumLinks(); l++ {
		g.SetLinkCapacity(l, 40)
	}
	s.Graph, s.Traffic, s.Horizon = g, traffic.BurstSpec(20, 16), 200
	return s
}

// TestTracedEqualsUntraced pins that every traced coordinator decides
// exactly like the program's own, and that the ledger of a traced run
// tiles its wall time.
func TestTracedEqualsUntraced(t *testing.T) {
	for name, spec := range map[string]*simSpec{
		"drl":    {scenario: shortBase, policy: trainedPolicy, stochastic: true, slots: 3, timerStride: 1},
		"gcasp":  {scenario: shortBase, policy: gcaspPolicy, slots: 3, timerStride: 64},
		"batch":  {scenario: smallBurst, policy: untrainedPolicy, maxBatch: 16, slots: 1, timerStride: 1},
		"remote": {scenario: shortBase, policy: trainedPolicy, stochastic: true, remote: true, slots: 2, timerStride: 1},
	} {
		t.Run(name, func(t *testing.T) {
			su, err := spec.setup()
			if err != nil {
				t.Fatal(err)
			}
			defer su.close()
			var slots []int
			want := map[int]string{}
			for slot := 0; slot < spec.slots; slot++ {
				lat := usTiming()
				ep, err := su.runUntraced(slot, &lat)
				if err != nil {
					t.Fatal(err)
				}
				if ep.failedDecisions != 0 || len(lat.samples) == 0 {
					t.Fatalf("untraced slot %d: %d failed decisions, %d latency samples", slot, ep.failedDecisions, len(lat.samples))
				}
				want[slot] = fingerprint(ep.m)
				slots = append(slots, slot)
			}
			var tr tracer
			var drl *tracedDRL
			var remote *tracedRemote
			switch name {
			case "gcasp":
				tr = &tracedGCASP{decide: nsTiming()}
			case "remote":
				remote = newTracedRemote()
				tr = remote
			default:
				if drl, err = newTracedDRL(su.adapter, su.actor, spec.stochastic); err != nil {
					t.Fatal(err)
				}
				tr = drl
			}
			led := newLedger()
			for _, slot := range slots {
				ep, err := su.runTracedEpisode(slot, tr, drl, remote)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(ep.m); got != want[slot] {
					t.Errorf("slot %d: traced digest %s, untraced %s", slot, got, want[slot])
				}
				led.addEpisode(ep.wall, tr.drain())
			}
			if led.sum() != led.wall {
				t.Errorf("ledger layers sum to %d ns, wall %d ns", led.sum(), led.wall)
			}
			for _, n := range led.names {
				if led.ns[n] < 0 {
					t.Errorf("layer %s has negative time %d ns", n, led.ns[n])
				}
			}
			if led.ns["simnet.self"] <= 0 || len(led.names) < 2 {
				t.Errorf("ledger %v attributes nothing to the simulator or to the coordinator", led.ns)
			}
		})
	}
}

// TestTrainJobMatchesTrainDRL pins that the observed training job
// trains exactly the weights eval.TrainDRL trains with the same budget.
func TestTrainJobMatchesTrainDRL(t *testing.T) {
	const seed, episodes, horizon = 3, 2, 200
	p, err := eval.TrainDRL(eval.Base(), eval.TrainBudget{
		Episodes: episodes, ParallelEnvs: trainEnvs, Seeds: 1, Horizon: horizon, Hidden: trainHidden, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, probe, err := trainJob(seed, episodes, horizon, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := actorDigest(p.Agent)
	if err != nil {
		t.Fatal(err)
	}
	got, err := actorDigest(agent)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("observed job trained actor %s, eval.TrainDRL %s", got, want)
	}
	if len(probe.envs) != trainEnvs || len(probe.marks) != episodes {
		t.Fatalf("probe saw %d envs and %d episodes", len(probe.envs), len(probe.marks))
	}
	for i, e := range probe.envs {
		if len(e.rollouts) != episodes || len(e.lat.samples) == 0 || len(e.capture.rows) == 0 {
			t.Errorf("env %d: %d rollouts, %d policy timings, %d captured values", i, len(e.rollouts), len(e.lat.samples), len(e.capture.rows))
		}
	}
}

// runJSON runs the benchmark and decodes its last output line.
func runJSON(t *testing.T, args ...string) (string, map[string]any) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v exited %d: %s\n%s", args, code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	return out.String(), res
}

func TestRunReportsEveryMetric(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		out, res := runJSON(t, "--workload", "abilene-gcasp", "--seed", "7", "--seconds", "0.3", "--trace", c.trace)
		if res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
			t.Fatalf("trace %s: result %v\n%s", c.trace, res, out)
		}
		metrics := res["metrics"].(map[string]any)
		if len(metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(metrics), len(c.defs))
		}
		for _, d := range c.defs {
			m, ok := metrics[d.name].(map[string]any)
			if !ok || m["unit"] != d.unit {
				t.Errorf("trace %s: metric %s = %v, want unit %s", c.trace, d.name, metrics[d.name], d.unit)
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %s", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
