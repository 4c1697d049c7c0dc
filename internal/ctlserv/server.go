// Package ctlserv is the experiment-controller service: a stdlib-HTTP
// API that accepts named runs and parameter sweeps (clicfg.RunSpec /
// clicfg.SweepSpec), executes them on the eval.Engine worker pool one
// run at a time, persists every artifact in a content-addressed store
// (internal/store), and re-renders figures from stored grid logs on
// demand — the opencbdc-tctl shape applied to this repo's evaluation:
// produce artifacts once, analyze many times.
//
// Endpoints (Go 1.22 method patterns, mounted by cmd/ctl on the
// ObsServer mux next to /metrics, /snapshot, and /run):
//
//	GET  /runs                       list run manifests, newest first
//	POST /runs                       submit one RunSpec
//	POST /sweeps                     submit a SweepSpec (cross-product)
//	GET  /runs/{id}                  manifest + live grid progress/ETA
//	POST /runs/{id}/cancel           cancel a queued or running run
//	POST /runs/{id}/recalc           re-render from stored grid log
//	GET  /runs/{id}/events           chunked-JSONL progress stream
//	GET  /runs/{id}/artifacts/{name} artifact bytes
//	PUT  /runs/{id}/artifacts/{name} ingest an external artifact
//	GET  /blobs/{hash}               raw blob by content address
package ctlserv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"distcoord/internal/clicfg"
	"distcoord/internal/eval"
	"distcoord/internal/store"
	"distcoord/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// GitRev is recorded in every run manifest ("unknown" when empty).
	GitRev string
	// Jobs bounds each run's engine worker pool (0: all CPUs).
	Jobs int
	// QueueDepth bounds how many runs may wait behind the executing one
	// (default 64); submissions beyond it are rejected with 503.
	QueueDepth int
	// Logf receives server-side error lines (default: discard).
	Logf func(format string, args ...interface{})
}

// Server is the controller. Create with New, mount Handler, Close when
// done (Close cancels queued and running work and waits for the
// executor).
type Server struct {
	st     *store.Store
	gitRev string
	jobs   int
	logf   func(format string, args ...interface{})

	mux   *http.ServeMux
	queue chan *job
	wg    sync.WaitGroup

	mu     sync.Mutex
	active map[string]*runState
	seq    int
	closed bool

	// testBeforeExec, when set (tests only), runs at the top of execute —
	// it lets tests hold the executor to exercise queued-state paths
	// deterministically.
	testBeforeExec func(*job)
}

// runState is the in-memory side of one submitted run: cancellation,
// the live registry the progress endpoint reads, and the event stream.
type runState struct {
	id  string
	reg *telemetry.Registry

	mu       sync.Mutex
	canceled bool
	engine   *eval.Engine
	events   [][]byte
	subs     map[chan []byte]bool
	done     chan struct{}
}

func (rs *runState) isCanceled() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.canceled
}

func (rs *runState) cancel() {
	rs.mu.Lock()
	eng := rs.engine
	rs.canceled = true
	rs.mu.Unlock()
	if eng != nil {
		eng.Cancel()
	}
}

func (rs *runState) setEngine(e *eval.Engine) {
	rs.mu.Lock()
	rs.engine = e
	canceled := rs.canceled
	rs.mu.Unlock()
	if canceled { // cancel raced submission; make sure it lands
		e.Cancel()
	}
}

// broadcast appends one event line and fans it out to subscribers. A
// subscriber whose buffer is full misses the live send but has already
// received every line up to its subscription point, and terminal status
// is re-sent by handleEvents after done, so no consumer can deadlock
// the executor.
func (rs *runState) broadcast(ev interface{}) {
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	rs.mu.Lock()
	rs.events = append(rs.events, line)
	for ch := range rs.subs {
		select {
		case ch <- line:
		default:
		}
	}
	rs.mu.Unlock()
}

// subscribe returns the event lines so far and a channel for subsequent
// ones.
func (rs *runState) subscribe() ([][]byte, chan []byte) {
	ch := make(chan []byte, 256)
	rs.mu.Lock()
	past := make([][]byte, len(rs.events))
	copy(past, rs.events)
	if rs.subs == nil {
		rs.subs = make(map[chan []byte]bool)
	}
	rs.subs[ch] = true
	rs.mu.Unlock()
	return past, ch
}

func (rs *runState) unsubscribe(ch chan []byte) {
	rs.mu.Lock()
	delete(rs.subs, ch)
	rs.mu.Unlock()
}

// cellEvent and statusEvent are the JSONL event-stream records.
type cellEvent struct {
	Type   string          `json:"type"`
	Record eval.GridRecord `json:"record"`
}

type statusEvent struct {
	Type   string `json:"type"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// New builds a controller over the given store and starts its executor.
func New(st *store.Store, opts Options) *Server {
	if opts.GitRev == "" {
		opts.GitRev = "unknown"
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	s := &Server{
		st:     st,
		gitRev: opts.GitRev,
		jobs:   opts.Jobs,
		logf:   opts.Logf,
		queue:  make(chan *job, opts.QueueDepth),
		active: make(map[string]*runState),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{$}", s.handleList)
	s.mux.HandleFunc("POST /runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /runs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /runs/{id}/recalc", s.handleRecalc)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /runs/{a}/diff/{b}", s.handleDiff)
	s.mux.HandleFunc("GET /runs/{id}/artifacts/{name}", s.handleArtifactGet)
	s.mux.HandleFunc("PUT /runs/{id}/artifacts/{name}", s.handleArtifactPut)
	s.mux.HandleFunc("GET /blobs/{hash}", s.handleBlob)
	s.wg.Add(1)
	go s.executor()
	return s
}

// Handler returns the controller's mux, for mounting on an ObsServer or
// serving directly.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the artifact store the controller persists into.
func (s *Server) Store() *store.Store { return s.st }

// Close stops accepting submissions, cancels queued and running work,
// and waits for the executor to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	states := make([]*runState, 0, len(s.active))
	for _, rs := range s.active {
		states = append(states, rs)
	}
	s.mu.Unlock()
	for _, rs := range states {
		rs.cancel()
	}
	s.wg.Wait()
}

// finishRun closes the run's done channel and drops it from the active
// set (its durable state lives in the manifest from here on).
func (s *Server) finishRun(rs *runState) {
	close(rs.done)
	s.mu.Lock()
	delete(s.active, rs.id)
	s.mu.Unlock()
}

// newRunID allocates a fresh run ID: timestamp plus a sequence number,
// skipping IDs already present in the store (a restarted controller
// keeps appending to the same run directory).
func (s *Server) newRunID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.seq++
		id := fmt.Sprintf("r-%s-%04d", time.Now().UTC().Format("20060102-150405"), s.seq)
		if _, err := s.st.GetManifest(id); err != nil {
			return id
		}
	}
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// maxSpecBytes bounds submission bodies; maxArtifactBytes bounds
// ingested artifacts.
const (
	maxSpecBytes     = 1 << 20
	maxArtifactBytes = 64 << 20
)

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var spec clicfg.RunSpec
	if err := decodeBody(w, r, &spec); err != nil {
		return
	}
	sw := clicfg.SweepSpec{Name: spec.Name, Base: spec}
	s.submit(w, sw, "run")
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var sw clicfg.SweepSpec
	if err := decodeBody(w, r, &sw); err != nil {
		return
	}
	s.submit(w, sw, "sweep")
}

// decodeBody strictly decodes a JSON submission (clicfg.DecodeSpec).
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	if err := clicfg.DecodeSpec(io.LimitReader(r.Body, maxSpecBytes), v); err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return err
	}
	return nil
}

// submit validates, persists, and enqueues one submission.
func (s *Server) submit(w http.ResponseWriter, sw clicfg.SweepSpec, kind string) {
	points, err := sw.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := s.newRunID()
	name := sw.Name
	if name == "" {
		name = id
	}
	raw, err := json.Marshal(sw)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding spec: %v", err)
		return
	}
	m := &store.Manifest{
		ID:      id,
		Name:    name,
		Kind:    kind,
		Spec:    raw,
		GitRev:  s.gitRev,
		Status:  store.StatusQueued,
		Created: time.Now().UTC(),
	}
	rs := &runState{id: id, reg: telemetry.NewRegistry(), done: make(chan struct{})}
	j := &job{manifest: m, sweep: sw, points: points, state: rs}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "controller shutting down")
		return
	}
	if err := s.st.PutManifest(m); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "persisting manifest: %v", err)
		return
	}
	select {
	case s.queue <- j:
		s.active[id] = rs
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		m.Status = store.StatusFailed
		m.Error = "submission queue full"
		s.persist(m)
		httpError(w, http.StatusServiceUnavailable, "submission queue full")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"id":     id,
		"name":   name,
		"points": len(points),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	ms, err := s.st.ListManifests()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if ms == nil {
		ms = []*store.Manifest{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"runs": ms})
}

// runProgress is the live progress block of GET /runs/{id}, read from
// the run's grid.cells.* gauges; done + failed + skipped always
// partitions total once the grid drains (pinned by the engine's
// fail-fast test), so percent is trustworthy even for aborted runs.
type runProgress struct {
	Total       float64 `json:"total"`
	Done        float64 `json:"done"`
	Failed      float64 `json:"failed"`
	Skipped     float64 `json:"skipped"`
	Percent     float64 `json:"percent"`
	CellsPerSec float64 `json:"cells_per_sec"`
	ETASeconds  float64 `json:"eta_seconds"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.st.GetManifest(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	resp := map[string]interface{}{"manifest": m}
	s.mu.Lock()
	rs := s.active[id]
	s.mu.Unlock()
	if rs != nil {
		snap := rs.reg.Snapshot()
		if total := snap.Gauges["grid.cells.total"]; total > 0 {
			p := &runProgress{
				Total:       total,
				Done:        snap.Gauges["grid.cells.done"],
				Failed:      snap.Gauges["grid.cells.failed"],
				Skipped:     snap.Gauges["grid.cells.skipped"],
				CellsPerSec: snap.Gauges["grid.cells_per_sec"],
				ETASeconds:  snap.Gauges["grid.eta_seconds"],
			}
			p.Percent = 100 * (p.Done + p.Failed + p.Skipped) / p.Total
			resp["progress"] = p
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rs := s.active[id]
	s.mu.Unlock()
	// A run persists its terminal manifest before it leaves the active
	// set, so a run still active here may already be finished: the
	// manifest, read after the lookup, decides.
	m, err := s.st.GetManifest(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	switch m.Status {
	case store.StatusDone, store.StatusFailed, store.StatusCanceled:
		rs = nil
	}
	if rs == nil {
		httpError(w, http.StatusConflict, "run %s already %s", id, m.Status)
		return
	}
	rs.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "canceling"})
}

// recalcArtifact is one re-rendered artifact in the recalc response.
type recalcArtifact struct {
	Hash      string `json:"hash"`
	Bytes     int    `json:"bytes"`
	Original  string `json:"original_hash,omitempty"`
	Identical bool   `json:"identical"`
}

// handleRecalc re-renders the run's figure artifacts from its stored
// grid log — no simulation, only parsing and aggregation — stores the
// results (content addressing dedups them when identical), and reports
// per-artifact hash comparisons against the original render.
func (s *Server) handleRecalc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.st.GetManifest(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	switch m.Status {
	case store.StatusDone, store.StatusFailed, store.StatusCanceled:
	default:
		httpError(w, http.StatusConflict, "run %s is %s; recalc needs a finished run", id, m.Status)
		return
	}
	var sw clicfg.SweepSpec
	if err := json.Unmarshal(m.Spec, &sw); err != nil {
		httpError(w, http.StatusInternalServerError, "manifest spec: %v", err)
		return
	}
	points, err := sw.Expand()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "manifest spec: %v", err)
		return
	}
	gridLog, err := s.st.GetArtifact(m, ArtifactGridLog)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	renders, err := RenderFromGridLog(m.Name, points, gridLog)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make(map[string]recalcArtifact, len(renders))
	identical := true
	for _, name := range RenderNames() {
		hash, err := s.st.Put(renders[name])
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		a := recalcArtifact{Hash: hash, Bytes: len(renders[name])}
		if orig, ok := m.Artifacts[name]; ok {
			a.Original = orig.Hash
			a.Identical = orig.Hash == hash
		}
		if !a.Identical {
			identical = false
		}
		out[name] = a
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id":        id,
		"identical": identical,
		"artifacts": out,
	})
}

// handleEvents streams the run's progress as chunked JSONL: every event
// so far, then live events until the run reaches a terminal status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rs := s.active[id]
	s.mu.Unlock()
	if rs == nil {
		// Finished run: replay nothing live; serve the terminal status so
		// a late consumer still gets a well-formed stream.
		m, err := s.st.GetManifest(id)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		line, _ := json.Marshal(statusEvent{Type: "status", Status: m.Status, Error: m.Error})
		w.Write(append(line, '\n')) //nolint:errcheck
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	past, ch := rs.subscribe()
	defer rs.unsubscribe(ch)
	for _, line := range past {
		if _, err := w.Write(line); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case line := <-ch:
			if _, err := w.Write(line); err != nil {
				return
			}
			flusher.Flush()
		case <-rs.done:
			// Drain anything broadcast before done closed, then finish with
			// the terminal status from the manifest.
			for {
				select {
				case line := <-ch:
					if _, err := w.Write(line); err != nil {
						return
					}
				default:
					if m, err := s.st.GetManifest(id); err == nil {
						line, _ := json.Marshal(statusEvent{Type: "status", Status: m.Status, Error: m.Error})
						w.Write(append(line, '\n')) //nolint:errcheck
					}
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// artifactContentType maps artifact names to response content types.
func artifactContentType(name string) string {
	switch {
	case strings.HasSuffix(name, ".json"):
		return "application/json"
	case strings.HasSuffix(name, ".jsonl"):
		return "application/jsonl"
	case strings.HasSuffix(name, ".md"), strings.HasSuffix(name, ".txt"), strings.HasSuffix(name, ".csv"):
		return "text/plain; charset=utf-8"
	}
	return "application/octet-stream"
}

func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	m, err := s.st.GetManifest(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	name := r.PathValue("name")
	data, err := s.st.GetArtifact(m, name)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", artifactContentType(name))
	w.Write(data) //nolint:errcheck // client went away
}

// handleArtifactPut ingests an external artifact (a BENCH_*.json from a
// bench run, a flow trace captured out of band) into a finished run's
// manifest. Running or queued runs reject ingestion: the executor owns
// their manifests.
func (s *Server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.st.GetManifest(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Gate on the persisted status: once the executor writes a terminal
	// status the manifest has had its last executor write, so ingestion
	// cannot race it. (The active map can lag completion briefly.)
	switch m.Status {
	case store.StatusQueued, store.StatusRunning:
		httpError(w, http.StatusConflict, "run %s is still executing; ingest after it finishes", id)
		return
	}
	name := r.PathValue("name")
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		httpError(w, http.StatusBadRequest, "invalid artifact name %q", name)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxArtifactBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(data) > maxArtifactBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "artifact exceeds %d bytes", maxArtifactBytes)
		return
	}
	if err := s.st.AddArtifact(m, name, data); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := s.st.PutManifest(m); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"id": id, "name": name, "artifact": m.Artifacts[name],
	})
}

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	data, err := s.st.Get(r.PathValue("hash"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // client went away
}
