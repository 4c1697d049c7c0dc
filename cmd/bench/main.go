// Command bench measures the per-decision inference hot path and emits
// machine-readable results as JSONL (one record per benchmark) through
// the telemetry sink. It covers the three levels of the hot path:
//
//   - forward: one actor forward pass (allocating vs. workspace-reusing)
//   - decide: a full distributed decision (observe + forward + act),
//     in both stochastic and argmax mode
//   - episode: one full simulated episode under the DRL coordinator
//
// With -scale it instead runs the scale harness: full episodes on
// synthetic topologies of 100/500/1000 nodes under burst traffic, with
// sequential versus batched decision resolution, reporting flows per
// second (use -out BENCH_scale.json).
//
// Each benchmark is calibrated and timed by testing.Benchmark, so ns/op
// and allocs/op match what `go test -bench` would report. The record
// schemas are documented in EXPERIMENTS.md ("Inference benchmarks",
// "Scale benchmarks").
package main

import (
	"crypto/md5"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"distcoord/internal/clicfg"
	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/telemetry"
	"distcoord/internal/traffic"
)

// meta is the first record of every benchmark file: it pins the
// environment so results from different machines are not compared
// blindly.
type meta struct {
	Record     string `json:"record"` // always "meta"
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`  // -jobs (0: all CPUs)
	Batch      int    `json:"batch"` // -batch (0 or 1: sequential)
	UnixTime   int64  `json:"unix_time"`
}

// result is one benchmark measurement.
type result struct {
	Record      string  `json:"record"` // always "bench"
	Bench       string  `json:"bench"`  // "forward" | "decide" | "episode"
	Variant     string  `json:"variant,omitempty"`
	Topology    string  `json:"topology,omitempty"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// scaleResult is one scale-harness measurement: full episodes on an
// n-node synthetic topology with a given decision batch size.
type scaleResult struct {
	Record      string  `json:"record"` // always "scale"
	Nodes       int     `json:"nodes"`
	Batch       int     `json:"batch"` // MaxBatch (0: sequential path)
	Arrived     int     `json:"arrived"`
	Decisions   int     `json:"decisions"`
	Episodes    int     `json:"episodes"`
	WallMs      float64 `json:"wall_ms"` // per episode
	FlowsPerSec float64 `json:"flows_per_sec"`
	Speedup     float64 `json:"speedup"` // flows/sec vs sequential, same nodes
}

func main() {
	out := flag.String("out", "BENCH_inference.json", "JSONL output path")
	topology := flag.String("topology", "Abilene", "topology for the decide and episode benchmarks")
	scale := flag.Bool("scale", false, "run the scale harness (synthetic 100/500/1000 nodes, sequential vs batched) instead of the inference benchmarks")
	rpc := flag.Bool("rpc", false, "measure decision RTT in-process vs across agentnet sockets (use -out BENCH_rpc.json)")
	shared := clicfg.Register(flag.CommandLine)
	flag.Parse()

	// The shared surface matters here for the profiling flags: profiling
	// a benchmark run is the natural way to inspect the hot path.
	rt, err := shared.Apply()
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	sink, err := telemetry.NewSink(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer sink.Close()
	if err := sink.Emit(meta{
		Record:     "meta",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Jobs:       rt.Jobs(),
		Batch:      rt.Batch(),
		UnixTime:   time.Now().Unix(),
	}); err != nil {
		log.Fatal(err)
	}

	emit := func(bench, variant, topo string, r testing.BenchmarkResult) {
		rec := result{
			Record:      "bench",
			Bench:       bench,
			Variant:     variant,
			Topology:    topo,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if err := sink.Emit(rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %-12s %-10s %10d iters %12.0f ns/op %6d allocs/op\n",
			bench, variant, topo, rec.Iters, rec.NsPerOp, rec.AllocsPerOp)
	}

	var benchErr error
	switch {
	case *rpc:
		benchErr = runRPC(sink, *topology)
	case *scale:
		benchErr = runScale(sink, rt.Batch())
	default:
		benchErr = run(emit, *topology, rt.Batch())
	}
	if benchErr != nil {
		sink.Close()
		log.Fatal(benchErr)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	os.Exit(0)
}

func run(emit func(bench, variant, topo string, r testing.BenchmarkResult), topology string, maxBatch int) error {
	s := eval.Base()
	s.Topology = topology
	inst, err := s.Instantiate(1)
	if err != nil {
		return err
	}
	adapter := coord.NewAdapter(inst.Graph, inst.APSP)
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize:    adapter.ObsSize(),
		NumActions: adapter.NumActions(),
		Hidden:     []int{256, 256}, // the paper's deployed network shape
	})
	if err != nil {
		return err
	}

	// Forward pass: allocating baseline vs. workspace-reusing hot path.
	obs := make([]float64, adapter.ObsSize())
	rng := rand.New(rand.NewSource(1))
	for i := range obs {
		obs[i] = rng.Float64()*2 - 1
	}
	actor := agent.Actor
	emit("forward", "alloc", "", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			actor.Forward(obs)
		}
	}))
	ws := actor.NewWorkspace()
	emit("forward", "into", "", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			actor.ForwardInto(ws, obs)
		}
	}))

	// Full decision at one node, both decision modes.
	dist, err := coord.NewDistributed(adapter, actor)
	if err != nil {
		return err
	}
	st := simnet.NewState(inst.Graph, inst.APSP)
	flow := &simnet.Flow{
		Service: inst.Service, Egress: s.Egress,
		Rate: 1, Duration: 1, Deadline: s.Deadline,
	}
	for _, mode := range []struct {
		name       string
		stochastic bool
	}{{"stochastic", true}, {"argmax", false}} {
		dist.Stochastic = mode.stochastic
		emit("decide", mode.name, topology, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dist.Decide(st, flow, 0, 1)
			}
		}))
	}

	// One full simulated episode under the DRL coordinator (reduced
	// horizon: the paper-scale 20000 would make one iteration minutes).
	ep := s
	ep.Horizon = 300
	epInst, err := ep.Instantiate(1)
	if err != nil {
		return err
	}
	epAdapter := coord.NewAdapter(epInst.Graph, epInst.APSP)
	epDist, err := coord.NewDistributed(epAdapter, actor)
	if err != nil {
		return err
	}
	// -batch applies here: episodes honor batched decision resolution.
	emit("episode", "drl", topology, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			epDist.Reseed(int64(i) + 1)
			if _, err := epInst.RunWith(epDist, eval.RunOptions{MaxBatch: maxBatch}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return nil
}

// scaleScenario builds the scale-harness scenario: an n-node synthetic
// topology with uniform capacities and bursty arrivals (16 simultaneous
// flows per ingress every 20 time units), so same-(node, time) decision
// windows hold real multi-flow cohorts for the batcher to exploit.
func scaleScenario(n int) eval.Scenario {
	g := graph.SyntheticScale(n, 0x5CA1E)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetNodeCapacity(graph.NodeID(v), 40)
	}
	for l := 0; l < g.NumLinks(); l++ {
		g.SetLinkCapacity(l, 40)
	}
	return eval.Scenario{
		Graph:        g,
		IngressNodes: []graph.NodeID{2, 5, 9, 14},
		Egress:       1,
		Traffic:      traffic.BurstSpec(20, 16),
		Deadline:     100,
		Horizon:      400,
	}
}

// runScale measures end-to-end episode throughput (flows per second) on
// growing synthetic topologies, sequential versus batched. The paper's
// deployed network shape (2x256) serves decisions in argmax mode, so
// burst cohorts see identical observations, pick identical actions, and
// travel together — the steady state a scaled-out deployment batches.
// A -batch value > 1 replaces the default batch-size sweep.
func runScale(sink *telemetry.Sink, batch int) error {
	batches := []int{0, 4, 16}
	if batch > 1 {
		batches = []int{0, batch}
	}
	for _, n := range []int{100, 500, 1000} {
		s := scaleScenario(n)
		inst, err := s.Instantiate(1)
		if err != nil {
			return err
		}
		adapter := coord.NewAdapter(inst.Graph, inst.APSP)
		agent, err := rl.NewAgent(rl.AgentConfig{
			ObsSize:    adapter.ObsSize(),
			NumActions: adapter.NumActions(),
			Hidden:     []int{256, 256},
		})
		if err != nil {
			return err
		}
		dist, err := coord.NewDistributed(adapter, agent.Actor)
		if err != nil {
			return err
		}
		dist.Stochastic = false
		var baseline float64
		for _, mb := range batches {
			opts := eval.RunOptions{MaxBatch: mb}
			m, err := inst.RunWith(dist, opts) // warm-up; metrics are run-invariant
			if err != nil {
				return err
			}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := inst.RunWith(dist, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			wallMs := float64(r.T.Nanoseconds()) / float64(r.N) / 1e6
			rec := scaleResult{
				Record:      "scale",
				Nodes:       n,
				Batch:       mb,
				Arrived:     m.Arrived,
				Decisions:   m.Decisions,
				Episodes:    r.N,
				WallMs:      wallMs,
				FlowsPerSec: float64(m.Arrived) / (wallMs / 1e3),
				Speedup:     1,
			}
			if mb == 0 {
				baseline = rec.FlowsPerSec
			} else if baseline > 0 {
				rec.Speedup = rec.FlowsPerSec / baseline
			}
			if err := sink.Emit(rec); err != nil {
				return err
			}
			fmt.Printf("scale nodes=%-5d batch=%-3d %8.1f ms/episode %10.0f flows/sec %6.2fx\n",
				n, mb, rec.WallMs, rec.FlowsPerSec, rec.Speedup)
		}
	}
	return nil
}

// fingerprint reduces a metrics struct to a comparable digest; two runs
// of a deterministic configuration must produce identical fingerprints
// (including the full delay sample vector, which is sensitive to event
// ordering).
func fingerprint(m *simnet.Metrics) string {
	data, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", md5.Sum(data))
}
