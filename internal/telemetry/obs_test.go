package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestObsServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("flows.completed").Add(7)
	reg.Gauge("grid.cells.total").Set(10)
	reg.Gauge("grid.cells.done").Set(4)
	reg.Histogram("flow.phase.total").Observe(12)

	o := NewObsServer("testbin", reg)
	o.SetInfo("algo", "sp")
	o.ObserveEpisode(EpisodeUpdate{Seed: 1, Episode: 5, Score: 0.75})
	o.ObserveEpisode(EpisodeUpdate{Seed: 0, Episode: 6, Score: 0.5})

	code, body := get(t, o.Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	for _, want := range []string{"flows_completed 7", "grid_cells_total 10", "flow_phase_total_count 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, o.Handler(), "/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot -> %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not a Snapshot: %v", err)
	}
	if snap.Counters["flows.completed"] != 7 || snap.Gauges["grid.cells.done"] != 4 {
		t.Errorf("snapshot values wrong: %+v", snap)
	}

	code, body = get(t, o.Handler(), "/run")
	if code != 200 {
		t.Fatalf("/run -> %d", code)
	}
	var run struct {
		Binary   string            `json:"binary"`
		Info     map[string]string `json:"info"`
		Training *struct {
			EpisodesDone int             `json:"episodes_done"`
			Seeds        []EpisodeUpdate `json:"seeds"`
		} `json:"training"`
		Grid *struct {
			Total, Done, Percent float64
		} `json:"grid"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil {
		t.Fatalf("/run not JSON: %v\n%s", err, body)
	}
	if run.Binary != "testbin" || run.Info["algo"] != "sp" {
		t.Errorf("run meta wrong: %s", body)
	}
	if run.Training == nil || run.Training.EpisodesDone != 2 ||
		len(run.Training.Seeds) != 2 || run.Training.Seeds[0].Seed != 0 {
		t.Errorf("run training section wrong: %s", body)
	}
	if run.Grid == nil || run.Grid.Total != 10 || run.Grid.Done != 4 || run.Grid.Percent != 40 {
		t.Errorf("run grid section wrong: %s", body)
	}

	if code, _ := get(t, o.Handler(), "/nope"); code != 404 {
		t.Errorf("/nope -> %d, want 404", code)
	}
}

// TestObsServerServesOverTCP exercises the real listener path with
// ":0"-style address resolution (the obs-smoke flow).
func TestObsServerServesOverTCP(t *testing.T) {
	o := NewObsServer("tcptest", NewRegistry())
	if err := o.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Addr() == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + o.Addr() + "/run")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"tcptest"`) {
		t.Errorf("GET /run -> %d %s", resp.StatusCode, body)
	}
}

// TestObsServerConcurrentScrape is the race-tier test: hammer /metrics,
// /snapshot, and /run while writers mutate every metric type and the
// training feed. Run with -race this pins the endpoint's thread safety;
// it also checks each scrape is internally monotone.
func TestObsServerConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	o := NewObsServer("racebin", reg)
	const iters = 300

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("ops")
			g := reg.Gauge("grid.cells.total")
			h := reg.Histogram("lat")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i + 1))
				h.Observe(float64(i%37) + 0.5)
				o.ObserveEpisode(EpisodeUpdate{Seed: w, Episode: i})
				reg.Gauge(fmt.Sprintf("dyn.%d", i%11)).Set(1) // metric creation during scrape
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/3; i++ {
				for _, path := range []string{"/metrics", "/snapshot", "/run"} {
					code, body := get(t, o.Handler(), path)
					if code != 200 {
						t.Errorf("%s -> %d", path, code)
						return
					}
					if path == "/metrics" {
						parseProm(t, body)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestProfilerPprofMuxIsPrivate pins the fix for the DefaultServeMux
// leak: a handler another package registers globally must NOT be
// reachable through the profiling port, while /debug/pprof/ must be.
func TestProfilerPprofMuxIsPrivate(t *testing.T) {
	http.HandleFunc("/leaked-global-handler", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "leaked")
	})
	p := &Profiler{PprofAddr: "127.0.0.1:0"}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	resp, err := http.Get("http://" + p.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/ -> %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get("http://" + p.Addr() + "/leaked-global-handler")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("globally registered handler served on pprof port: %d, want 404", resp.StatusCode)
	}
}

// TestServersBoundHeaderReads pins that both HTTP servers time out a
// client that never finishes its request headers, and bound nothing
// else: streamed responses (/runs/{id}/events, pprof captures) must not
// be cut by a read or write deadline.
func TestServersBoundHeaderReads(t *testing.T) {
	o := NewObsServer("testbin", NewRegistry())
	if err := o.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	p := &Profiler{PprofAddr: "127.0.0.1:0"}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	for name, srv := range map[string]*http.Server{"obs": o.srv, "pprof": p.srv} {
		if srv.ReadHeaderTimeout <= 0 {
			t.Errorf("%s server: ReadHeaderTimeout = %v, want > 0", name, srv.ReadHeaderTimeout)
		}
		if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
			t.Errorf("%s server: ReadTimeout = %v, WriteTimeout = %v; both would cut streamed responses",
				name, srv.ReadTimeout, srv.WriteTimeout)
		}
	}
}

// TestObsServerCloseWaitsForInflightScrape is the regression test for
// the hard-drop shutdown bug: Close used http.Server.Close, which tore
// down in-flight connections mid-response, so a /metrics scrape racing
// shutdown could read a truncated body. Close now drains via Shutdown
// with a deadline: a response in flight when Close is called must
// arrive complete. The test mounts a handler (exercising Mount, the
// controller attachment point) that blocks mid-request until after
// Close has started. Run with -race this also pins Close's safety
// against concurrent scrapes.
func TestObsServerCloseWaitsForInflightScrape(t *testing.T) {
	o := NewObsServer("shutbin", NewRegistry())
	inHandler := make(chan struct{})
	release := make(chan struct{})
	o.Mount("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
		fmt.Fprint(w, "complete-body")
	}))
	if err := o.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := o.Addr()

	type result struct {
		body string
		err  error
	}
	scraped := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			scraped <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		scraped <- result{body: string(b), err: err}
	}()

	<-inHandler // the scrape is mid-handler; now race shutdown against it
	closed := make(chan error, 1)
	go func() { closed <- o.Close() }()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin draining
	close(release)

	if res := <-scraped; res.err != nil || res.body != "complete-body" {
		t.Errorf("scrape racing Close: body=%q err=%v, want complete response", res.body, res.err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/slow"); err == nil {
		t.Error("server still accepting connections after Close")
	}
	if err := o.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestObsServerRunGridTerminalCounts checks /run surfaces the
// failed/skipped gauges and computes percent over all accounted cells,
// so an aborted grid reads 100% finished rather than stuck.
func TestObsServerRunGridTerminalCounts(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("grid.cells.total").Set(10)
	reg.Gauge("grid.cells.done").Set(6)
	reg.Gauge("grid.cells.failed").Set(1)
	reg.Gauge("grid.cells.skipped").Set(3)
	o := NewObsServer("gridbin", reg)
	code, body := get(t, o.Handler(), "/run")
	if code != 200 {
		t.Fatalf("/run -> %d", code)
	}
	var run struct {
		Grid *struct {
			Total, Done, Failed, Skipped, Percent float64
		} `json:"grid"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil {
		t.Fatalf("/run not JSON: %v", err)
	}
	if run.Grid == nil || run.Grid.Failed != 1 || run.Grid.Skipped != 3 || run.Grid.Percent != 100 {
		t.Errorf("grid section = %+v, want failed=1 skipped=3 percent=100", run.Grid)
	}
}
