package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// ObsServer is the live observability endpoint: a stdlib-only HTTP
// server exposing a Registry and coarse run state while a binary is
// running, so a multi-minute training run or experiment grid is
// inspectable instead of a black box. It serves, on its own private mux
// (never http.DefaultServeMux, so it composes with the pprof listener
// and leaks no globally registered handler):
//
//	/metrics     Prometheus text exposition of every registry metric
//	/snapshot    the registry's JSON Snapshot
//	/run         live run state: uptime, training episode/reward progress,
//	             experiment grid progress with ETA, free-form info
//	/timeseries  recent sampled counter/gauge windows (EnableHistory)
//
// Handlers only read; the hot paths keep writing through the ordinary
// Registry/Counter/Gauge/Histogram APIs, which are safe for concurrent
// use, so scraping never blocks a simulation.
type ObsServer struct {
	reg  *Registry
	mux  *http.ServeMux
	hist *History

	mu      sync.Mutex
	binary  string
	started time.Time
	info    map[string]string
	seeds   map[int]EpisodeUpdate
	epDone  int

	ln  net.Listener
	srv *http.Server
}

// EpisodeUpdate is one training-progress observation, the /run feed of
// rl.Train's per-episode record stream (clicfg forwards the fields it
// reports here so telemetry does not depend on the rl package).
type EpisodeUpdate struct {
	Seed       int     `json:"seed"`
	Episode    int     `json:"episode"`
	Score      float64 `json:"score"`
	MeanReturn float64 `json:"mean_return"`
	Entropy    float64 `json:"entropy"`
	LR         float64 `json:"lr"`
}

// NewObsServer builds the server for one binary's registry. Call Start
// to bind it to an address.
func NewObsServer(binary string, reg *Registry) *ObsServer {
	o := &ObsServer{
		reg:    reg,
		binary: binary,
		info:   make(map[string]string),
		seeds:  make(map[int]EpisodeUpdate),
	}
	o.mux = http.NewServeMux()
	o.mux.HandleFunc("/", o.handleIndex)
	o.mux.HandleFunc("/metrics", o.handleMetrics)
	o.mux.HandleFunc("/snapshot", o.handleSnapshot)
	o.mux.HandleFunc("/run", o.handleRun)
	return o
}

// Handler returns the server's private mux (tests scrape it without a
// listener via httptest or direct ServeHTTP calls).
func (o *ObsServer) Handler() http.Handler { return o.mux }

// Mount attaches an additional handler subtree to the server's private
// mux — the experiment controller mounts its /runs API next to the
// observability endpoints so one listener serves both. pattern uses
// net/http ServeMux syntax (e.g. "/runs/"); registration is safe at any
// time, including while serving.
func (o *ObsServer) Mount(pattern string, h http.Handler) {
	o.mux.Handle(pattern, h)
}

// Registry returns the registry the server exposes.
func (o *ObsServer) Registry() *Registry { return o.reg }

// EnableHistory starts a background History sampler over the server's
// registry and serves its window on /timeseries. interval and capacity
// follow NewHistory's defaults when ≤0. Call before Start; Close stops
// the sampler. Returns the History for direct inspection in tests.
func (o *ObsServer) EnableHistory(interval time.Duration, capacity int) *History {
	o.hist = NewHistory(o.reg, interval, capacity)
	o.mux.Handle("/timeseries", o.hist.Handler())
	o.hist.Start()
	return o.hist
}

// Start binds the listener (":0" picks a free port; see Addr) and
// serves in the background until Close.
func (o *ObsServer) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: obs listener: %w", err)
	}
	o.mu.Lock()
	o.started = time.Now()
	o.mu.Unlock()
	o.ln = ln
	o.srv = &http.Server{Handler: o.mux, ReadHeaderTimeout: readHeaderTimeout}
	go o.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (o *ObsServer) Addr() string {
	if o.ln == nil {
		return ""
	}
	return o.ln.Addr().String()
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers to the obs and pprof servers, so a connection that
// never finishes them cannot hold a server goroutine forever. Only the
// header read is bounded: read and write deadlines would also cut the
// chunked /runs/{id}/events stream and /debug/pprof/profile captures.
const readHeaderTimeout = 10 * time.Second

// shutdownTimeout bounds how long Close waits for in-flight scrapes.
// Handlers only read registry state, so responses finish in
// milliseconds; the deadline exists for wedged clients, not slow
// handlers.
const shutdownTimeout = 2 * time.Second

// Close shuts the server down gracefully: the listener stops accepting,
// in-flight scrapes get their complete response, and only connections
// still open after a short deadline are hard-dropped (a /metrics scrape
// racing Close used to lose its body to http.Server.Close). Safe to
// call without Start.
func (o *ObsServer) Close() error {
	if o.hist != nil {
		o.hist.Stop()
		o.hist = nil
	}
	if o.srv == nil {
		return nil
	}
	o.srv.SetKeepAlivesEnabled(false)
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	err := o.srv.Shutdown(ctx)
	cancel()
	if err != nil { // deadline hit: fall back to hard close
		err = o.srv.Close()
	}
	o.srv, o.ln = nil, nil
	return err
}

// SetInfo publishes one free-form key/value pair on /run (algorithm,
// topology, experiment name, ...).
func (o *ObsServer) SetInfo(key, value string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.info[key] = value
}

// ObserveEpisode records live training progress: the latest update per
// training seed plus a total episode count. Safe for concurrent use
// (training seeds run concurrently).
func (o *ObsServer) ObserveEpisode(u EpisodeUpdate) {
	o.mu.Lock()
	o.seeds[u.Seed] = u
	o.epDone++
	o.mu.Unlock()
}

func (o *ObsServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s live observability\n\n/metrics     Prometheus text exposition\n/snapshot    registry snapshot (JSON)\n/run         live run state (JSON)\n/timeseries  sampled metric windows (JSON)\n", o.binary)
}

func (o *ObsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	o.reg.WriteProm(w) //nolint:errcheck // client went away
}

func (o *ObsServer) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(o.reg.Snapshot()) //nolint:errcheck // client went away
}

// runTraining is the training section of the /run response.
type runTraining struct {
	EpisodesDone int             `json:"episodes_done"`
	Seeds        []EpisodeUpdate `json:"seeds"`
}

// runGrid is the experiment-grid section of the /run response, read
// from the engine's grid.cells.* gauges. Done counts cells that
// completed ok; Failed and Skipped account the rest, and Percent covers
// all accounted cells so an aborted grid still reads as 100% finished.
type runGrid struct {
	Total       float64 `json:"total"`
	Done        float64 `json:"done"`
	Failed      float64 `json:"failed,omitempty"`
	Skipped     float64 `json:"skipped,omitempty"`
	Percent     float64 `json:"percent"`
	CellsPerSec float64 `json:"cells_per_sec"`
	ETASeconds  float64 `json:"eta_seconds"`
}

// runState is the /run response schema.
type runState struct {
	Binary        string            `json:"binary"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Info          map[string]string `json:"info,omitempty"`
	Training      *runTraining      `json:"training,omitempty"`
	Grid          *runGrid          `json:"grid,omitempty"`
}

func (o *ObsServer) handleRun(w http.ResponseWriter, _ *http.Request) {
	snap := o.reg.Snapshot()

	o.mu.Lock()
	st := runState{Binary: o.binary}
	if !o.started.IsZero() {
		st.UptimeSeconds = time.Since(o.started).Seconds()
	}
	if len(o.info) > 0 {
		st.Info = make(map[string]string, len(o.info))
		for k, v := range o.info {
			st.Info[k] = v
		}
	}
	if o.epDone > 0 {
		tr := &runTraining{EpisodesDone: o.epDone}
		for _, u := range o.seeds {
			tr.Seeds = append(tr.Seeds, u)
		}
		sort.Slice(tr.Seeds, func(i, j int) bool { return tr.Seeds[i].Seed < tr.Seeds[j].Seed })
		st.Training = tr
	}
	o.mu.Unlock()

	if total, ok := snap.Gauges["grid.cells.total"]; ok && total > 0 {
		g := &runGrid{
			Total:       total,
			Done:        snap.Gauges["grid.cells.done"],
			Failed:      snap.Gauges["grid.cells.failed"],
			Skipped:     snap.Gauges["grid.cells.skipped"],
			CellsPerSec: snap.Gauges["grid.cells_per_sec"],
			ETASeconds:  snap.Gauges["grid.eta_seconds"],
		}
		g.Percent = 100 * (g.Done + g.Failed + g.Skipped) / g.Total
		st.Grid = g
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // client went away
}
