// Package clicfg centralizes the command-line surface shared by every
// binary in cmd/: telemetry outputs (-episode-log, -flow-trace,
// -metrics-out), profiling flags, and fault injection (-faults). Each
// binary calls Register once on its FlagSet and Apply once after
// flag.Parse; binary-specific flags stay in the binaries.
//
// Every shared flag is registered on every binary so the surface is
// uniform across tools; a binary that has no use for one of the outputs
// (e.g. -episode-log on topo, which never trains) accepts the flag and
// simply never writes to the sink.
package clicfg

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"distcoord/internal/chaos"
	"distcoord/internal/eval"
	"distcoord/internal/flowtrace"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/telemetry"
)

// Flags holds the parsed shared command line. Construct with Register,
// resolve with Apply.
type Flags struct {
	// EpisodeLog is the JSONL path for per-episode training records.
	EpisodeLog string
	// EpisodeLogMaxBytes rotates the episode log at this size (0: never).
	EpisodeLogMaxBytes int64
	// FlowTrace is the JSONL path for per-flow simulator trace events.
	FlowTrace string
	// MetricsOut is the path for the machine-readable metrics summary.
	MetricsOut string
	// Faults is the chaos spec string ("node-outage:count=2,seed=7", see
	// chaos.ParseSpec); empty or "none" disables fault injection.
	Faults string
	// Jobs bounds how many CPUs the binary uses: Apply sets GOMAXPROCS
	// to it, and binaries with an experiment grid (cmd/experiments)
	// additionally use it as the engine's worker pool size. 0 keeps the
	// default (all CPUs). Results never depend on it.
	Jobs int
	// Batch enables batched decision resolution in simulation runs that
	// honor it (cmd/bench scale mode): same-(node, time) decisions are
	// resolved with up to this many flows per inference call
	// (simnet.Config.MaxBatch). 0 or 1 keeps the sequential path.
	Batch int
	// GridLog is the JSONL path for per-cell experiment grid records
	// (eval.GridRecord).
	GridLog string
	// Prof bundles the profiling flags (-cpuprofile, -memprofile, -pprof).
	Prof telemetry.Profiler
	// ObsAddr serves the live observability endpoint (/metrics, /snapshot,
	// /run) on this address; empty disables it.
	ObsAddr string
	// ObsWait keeps the observability endpoint serving this long after the
	// run completes, so final state can still be scraped.
	ObsWait time.Duration
	// Listen serves an agentd control socket on this address (cmd/agentd);
	// empty disables serving. Mutually exclusive with Agents — a process
	// is either an agent or a driver.
	Listen string
	// Agents is a comma-separated list of agentd endpoints; when set,
	// simulations decide through a coord.Remote fleet instead of
	// in-process, every decision crossing a socket.
	Agents string
	// ModelPush pushes the driver's policy checkpoint to every connected
	// agent whose model hash differs (requires Agents). Without it a
	// heterogeneous fleet is refused at connect time.
	ModelPush bool

	name string
}

// Register installs the shared flags on fs and returns the backing
// struct. Call before fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{name: fs.Name()}
	fs.StringVar(&f.EpisodeLog, "episode-log", "", "write per-episode training records to this JSONL file")
	fs.Int64Var(&f.EpisodeLogMaxBytes, "episode-log-max-bytes", 0, "rotate the episode log when it exceeds this size (0: never)")
	fs.StringVar(&f.FlowTrace, "flow-trace", "", "write per-flow trace events to this JSONL file")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the metrics summary as JSON to this file")
	fs.StringVar(&f.Faults, "faults", "", "fault-injection spec: profile[:key=val,...] (node-outage, link-outage, link-cascade, surge, instance-kill; see EXPERIMENTS.md)")
	fs.IntVar(&f.Jobs, "jobs", 0, "bound parallelism: GOMAXPROCS and the experiment worker pool (0: all CPUs); output is identical for any value")
	fs.IntVar(&f.Batch, "batch", 0, "batched decision resolution: max flows per inference call for same-(node,time) decisions (0 or 1: sequential)")
	fs.StringVar(&f.GridLog, "grid-log", "", "write per-cell experiment grid records to this JSONL file")
	fs.StringVar(&f.ObsAddr, "obs-addr", "", "serve the live observability endpoint (/metrics, /snapshot, /run) on this address (e.g. localhost:9090, or :0 for a free port)")
	fs.DurationVar(&f.ObsWait, "obs-wait", 0, "keep the observability endpoint serving this long after the run completes (requires -obs-addr)")
	fs.StringVar(&f.Listen, "listen", "", "serve an agent daemon control socket on this address (e.g. 127.0.0.1:7501, or :0 for a free port)")
	fs.StringVar(&f.Agents, "agents", "", "comma-separated agentd endpoints; decisions cross the socket to this fleet instead of running in-process")
	fs.BoolVar(&f.ModelPush, "model-push", false, "push the local policy checkpoint to agents running a different model (requires -agents)")
	f.Prof.RegisterFlags(fs)
	return f
}

// Runtime is the resolved shared configuration: opened sinks, a started
// profiler, and the parsed fault spec. Always Close it (defer is fine;
// Close is idempotent).
type Runtime struct {
	flags       *Flags
	faults      chaos.Spec
	episodeSink *telemetry.Sink
	traceSink   *telemetry.Sink
	gridSink    *telemetry.Sink
	reg         *telemetry.Registry
	obs         *telemetry.ObsServer
	collector   *flowtrace.Collector
	closed      bool
}

// Apply validates and resolves the parsed flags: the fault spec is
// parsed, sinks are opened, and the profiler is started (announcing the
// pprof endpoint on stderr when one was requested). On error nothing is
// left running.
func (f *Flags) Apply() (*Runtime, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	faults, err := chaos.ParseSpec(f.Faults)
	if err != nil {
		return nil, err
	}
	if f.Jobs > 0 {
		runtime.GOMAXPROCS(f.Jobs)
	}
	rt := &Runtime{flags: f, faults: faults, reg: telemetry.NewRegistry()}
	if f.EpisodeLog != "" {
		var opts []telemetry.SinkOption
		if f.EpisodeLogMaxBytes > 0 {
			opts = append(opts, telemetry.WithMaxBytes(f.EpisodeLogMaxBytes))
		}
		if rt.episodeSink, err = telemetry.NewSink(f.EpisodeLog, opts...); err != nil {
			return nil, err
		}
	}
	if f.FlowTrace != "" {
		if rt.traceSink, err = telemetry.NewSink(f.FlowTrace); err != nil {
			rt.Close()
			return nil, err
		}
	}
	if f.GridLog != "" {
		if rt.gridSink, err = telemetry.NewSink(f.GridLog); err != nil {
			rt.Close()
			return nil, err
		}
	}
	if err := f.Prof.Start(); err != nil {
		rt.Close()
		return nil, err
	}
	if addr := f.Prof.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
	}
	if f.ObsAddr != "" {
		// f.name is the FlagSet name — os.Args[0] for flag.CommandLine —
		// so strip the path for the /run binary field.
		rt.obs = telemetry.NewObsServer(filepath.Base(f.name), rt.reg)
		if err := rt.obs.Start(f.ObsAddr); err != nil {
			rt.obs = nil
			rt.Close()
			return nil, err
		}
		// The live endpoint also gets per-flow phase histograms: with a
		// collector installed, Tracer() is non-nil even without -flow-trace,
		// so simulations emit trace events for it to fold into the registry.
		rt.collector = flowtrace.NewCollector(rt.reg)
		// And ring-buffered metric history, so transient behavior (chaos
		// recovery dips, reconnect bursts) shows up as curves on
		// /timeseries instead of being averaged away by the final scrape.
		rt.obs.EnableHistory(0, 0)
		fmt.Fprintf(os.Stderr, "observability listening on http://%s/ (/metrics /snapshot /run /timeseries)\n", rt.obs.Addr())
	}
	return rt, nil
}

// Validate is the single consistency check over the shared flags; Apply
// runs it before resolving anything, so no sink or server is opened for
// an inconsistent combination. It is exposed separately so binaries with
// extra constraints can re-check after adjusting fields programmatically.
func (f *Flags) Validate() error {
	if f.Jobs < 0 {
		return fmt.Errorf("clicfg: -jobs must be >= 0, got %d", f.Jobs)
	}
	if f.Batch < 0 {
		return fmt.Errorf("clicfg: -batch must be >= 0, got %d", f.Batch)
	}
	if f.ObsWait != 0 && f.ObsAddr == "" {
		return fmt.Errorf("clicfg: -obs-wait requires -obs-addr")
	}
	if f.ObsWait < 0 {
		return fmt.Errorf("clicfg: -obs-wait must be >= 0, got %s", f.ObsWait)
	}
	if f.Listen != "" && f.Agents != "" {
		return fmt.Errorf("clicfg: -listen and -agents are mutually exclusive (a process serves decisions or drives a fleet, not both)")
	}
	if f.ModelPush && f.Agents == "" {
		return fmt.Errorf("clicfg: -model-push requires -agents (there is no fleet to push to)")
	}
	for _, ep := range strings.Split(f.Agents, ",") {
		if f.Agents != "" && strings.TrimSpace(ep) == "" {
			return fmt.Errorf("clicfg: -agents %q has an empty endpoint", f.Agents)
		}
	}
	return nil
}

// AgentEndpoints returns the parsed -agents list (nil when unset).
func (f *Flags) AgentEndpoints() []string {
	if f.Agents == "" {
		return nil
	}
	eps := strings.Split(f.Agents, ",")
	for i := range eps {
		eps[i] = strings.TrimSpace(eps[i])
	}
	return eps
}

// FaultSpec returns the parsed -faults spec (zero value when disabled).
func (rt *Runtime) FaultSpec() chaos.Spec { return rt.faults }

// RunOptions is the single flag→options mapping: it builds the
// eval.RunOptions a simulation run should use under these flags — the
// tracer (flow trace + live collector) and batched decisions. Binaries
// layer run-specific fields (Listener, agent fleets) on top of the
// returned value instead of re-deriving the shared ones.
func (rt *Runtime) RunOptions() eval.RunOptions {
	return eval.RunOptions{
		Tracer:   rt.Tracer(),
		MaxBatch: rt.Batch(),
	}
}

// DecideRTT returns the decision round-trip histogram
// ("rpc_decide_rtt_us", microseconds) on the runtime's registry — wire
// it to coord.RemoteOptions.ObserveRTT so remote runs expose decision
// latency on /metrics.
func (rt *Runtime) DecideRTT() *telemetry.Histogram {
	return rt.reg.Histogram("rpc_decide_rtt_us")
}

// MetricsOut returns the -metrics-out path ("" when unset).
func (rt *Runtime) MetricsOut() string { return rt.flags.MetricsOut }

// Tracer returns a simnet tracer feeding the -flow-trace sink and the
// live flow.phase.* collector (when -obs-addr is on), or nil when both
// are off — safe to assign to Config.Tracer directly.
func (rt *Runtime) Tracer() simnet.FlowTracer {
	var tracers []simnet.FlowTracer
	if rt.traceSink != nil {
		tracers = append(tracers, simnet.TracerFunc(func(e simnet.TraceEvent) {
			if err := rt.traceSink.Emit(e); err != nil {
				fmt.Fprintf(os.Stderr, "%s: flow trace: %v\n", rt.flags.name, err)
			}
		}))
	}
	if rt.collector != nil {
		tracers = append(tracers, rt.collector)
	}
	return flowtrace.Tee(tracers...)
}

// Registry returns the runtime's metrics registry — the one the
// observability endpoint scrapes. Always non-nil; binaries register
// their counters, gauges, and histograms here so a run is inspectable
// live instead of only at exit.
func (rt *Runtime) Registry() *telemetry.Registry { return rt.reg }

// ObsEnabled reports whether the observability endpoint is serving.
func (rt *Runtime) ObsEnabled() bool { return rt.obs != nil }

// ObsAddr returns the observability endpoint's bound address ("" when
// disabled) — with "-obs-addr :0" this is where the free port landed.
func (rt *Runtime) ObsAddr() string {
	if rt.obs == nil {
		return ""
	}
	return rt.obs.Addr()
}

// MountObs attaches an additional handler subtree to the observability
// endpoint's mux (e.g. the coordinator's /fleet health view, or the
// experiment controller's /runs API); no-op when the endpoint is off.
// pattern uses net/http ServeMux syntax.
func (rt *Runtime) MountObs(pattern string, h http.Handler) {
	if rt.obs != nil {
		rt.obs.Mount(pattern, h)
	}
}

// SetObsInfo publishes one free-form key/value pair on the /run endpoint
// (algorithm, topology, experiment name, ...); no-op when the endpoint
// is off.
func (rt *Runtime) SetObsInfo(key, value string) {
	if rt.obs != nil {
		rt.obs.SetInfo(key, value)
	}
}

// OnEpisode is the shared per-episode training hook: it writes the
// record to the -episode-log sink, folds phase wall times into the
// registry (train.episodes, train.rollout_ms, train.update_ms), and
// feeds the /run training section. Safe for concurrent use — training
// seeds run in parallel. Install it unconditionally; every path is a
// cheap no-op when its output is disabled.
func (rt *Runtime) OnEpisode(rec rl.EpisodeRecord) {
	rt.EmitEpisode(rec)
	rt.reg.Counter("train.episodes").Inc()
	rt.reg.Histogram("train.rollout_ms").Observe(rec.RolloutMS)
	rt.reg.Histogram("train.update_ms").Observe(rec.UpdateMS)
	if rt.obs != nil {
		rt.obs.ObserveEpisode(telemetry.EpisodeUpdate{
			Seed:       rec.Seed,
			Episode:    rec.Episode,
			Score:      rec.Score,
			MeanReturn: rec.MeanReturn,
			Entropy:    rec.Entropy,
			LR:         rec.LR,
		})
	}
}

// EmitEpisode writes one record to the -episode-log sink; it is a no-op
// when the log is off, so callers can install it unconditionally.
func (rt *Runtime) EmitEpisode(rec interface{}) {
	if rt.episodeSink == nil {
		return
	}
	if err := rt.episodeSink.Emit(rec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: episode log: %v\n", rt.flags.name, err)
	}
}

// Jobs returns the -jobs value (0: all CPUs).
func (rt *Runtime) Jobs() int { return rt.flags.Jobs }

// Batch returns the -batch value (0 or 1: sequential decisions).
func (rt *Runtime) Batch() int { return rt.flags.Batch }

// GridLogEnabled reports whether -grid-log was set.
func (rt *Runtime) GridLogEnabled() bool { return rt.gridSink != nil }

// EmitGridCell writes one record to the -grid-log sink; it is a no-op
// when the log is off, so callers can install it unconditionally.
func (rt *Runtime) EmitGridCell(rec interface{}) {
	if rt.gridSink == nil {
		return
	}
	if err := rt.gridSink.Emit(rec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: grid log: %v\n", rt.flags.name, err)
	}
}

// Close flushes the sinks, stops the profiler, and reports the written
// files on stderr. Safe to call twice (e.g. explicitly after checking
// the error, with a defer as backstop).
func (rt *Runtime) Close() error {
	if rt.closed {
		return nil
	}
	rt.closed = true
	var first error
	closeSink := func(s *telemetry.Sink, path, what string) {
		if s == nil {
			return
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
			return
		}
		fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
	}
	closeSink(rt.episodeSink, rt.flags.EpisodeLog, "episode log")
	closeSink(rt.traceSink, rt.flags.FlowTrace, "flow trace")
	closeSink(rt.gridSink, rt.flags.GridLog, "grid log")
	if rt.obs != nil {
		// Hold the endpoint open so the run's final state can still be
		// scraped (make obs-smoke relies on this window).
		if rt.flags.ObsWait > 0 {
			fmt.Fprintf(os.Stderr, "observability: serving final state on http://%s/ for %s\n", rt.obs.Addr(), rt.flags.ObsWait)
			time.Sleep(rt.flags.ObsWait)
		}
		if err := rt.obs.Close(); err != nil && first == nil {
			first = err
		}
		rt.obs = nil
	}
	if err := rt.flags.Prof.Stop(); err != nil && first == nil {
		first = err
	}
	return first
}
