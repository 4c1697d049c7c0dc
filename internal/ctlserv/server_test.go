package ctlserv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distcoord/internal/clicfg"
	"distcoord/internal/store"
)

// testServer starts a controller on a temp store behind httptest.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Options{GitRev: "test-rev", Jobs: 2, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

// submitWait submits a sweep and waits for a terminal status.
func submitWait(t *testing.T, ts *httptest.Server, sw clicfg.SweepSpec) (string, *store.Manifest) {
	t.Helper()
	code, body := postJSON(t, ts.URL+"/sweeps", sw)
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	return acc.ID, waitTerminal(t, ts, acc.ID)
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) *store.Manifest {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var resp struct {
			Manifest *store.Manifest `json:"manifest"`
		}
		if code := getJSON(t, ts.URL+"/runs/"+id, &resp); code != 200 {
			t.Fatalf("GET /runs/%s -> %d", id, code)
		}
		switch resp.Manifest.Status {
		case store.StatusDone, store.StatusFailed, store.StatusCanceled:
			return resp.Manifest
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return nil
}

func smallSweep() clicfg.SweepSpec {
	return clicfg.SweepSpec{
		Name: "smoke-sweep",
		Base: clicfg.RunSpec{Algo: "sp", Seeds: 2, Horizon: 200},
		Axes: []clicfg.SweepAxis{{Param: "algo", Values: []string{"sp", "gcasp"}}},
	}
}

func TestSweepLifecycleAndRecalcByteIdentical(t *testing.T) {
	_, ts := testServer(t)
	id, m := submitWait(t, ts, smallSweep())
	if m.Status != store.StatusDone {
		t.Fatalf("run %s status = %s (%s)", id, m.Status, m.Error)
	}
	if m.GitRev != "test-rev" || m.Kind != "sweep" || m.Name != "smoke-sweep" {
		t.Errorf("manifest meta wrong: %+v", m)
	}
	if m.Cells != 4 { // 2 points x 2 seeds
		t.Errorf("cells = %d, want 4", m.Cells)
	}
	for _, name := range []string{ArtifactGridLog, ArtifactFigureMD, ArtifactFigureTXT, ArtifactMatrixCSV, "metrics.json"} {
		if _, ok := m.Artifacts[name]; !ok {
			t.Errorf("artifact %q missing from manifest (have %v)", name, m.Artifacts)
		}
	}

	// The rendered figure must carry the sweep point labels.
	resp, err := http.Get(ts.URL + "/runs/" + id + "/artifacts/" + ArtifactFigureMD)
	if err != nil {
		t.Fatal(err)
	}
	md, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"algo=sp", "algo=gcasp", "SP", "GCASP"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("figure.md missing %q:\n%s", want, md)
		}
	}

	// Recalc must be byte-identical to the original render.
	code, body := postJSON(t, ts.URL+"/runs/"+id+"/recalc", nil)
	if code != 200 {
		t.Fatalf("recalc -> %d: %s", code, body)
	}
	var rc struct {
		Identical bool                      `json:"identical"`
		Artifacts map[string]recalcArtifact `json:"artifacts"`
	}
	if err := json.Unmarshal(body, &rc); err != nil {
		t.Fatal(err)
	}
	if !rc.Identical {
		t.Errorf("recalc not byte-identical: %s", body)
	}
	for _, name := range RenderNames() {
		a := rc.Artifacts[name]
		if !a.Identical || a.Hash != m.Artifacts[name].Hash {
			t.Errorf("recalc %s: hash %s vs original %s", name, a.Hash, m.Artifacts[name].Hash)
		}
	}

	// The listing includes the run, newest first.
	var list struct {
		Runs []*store.Manifest `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/runs", &list); code != 200 {
		t.Fatalf("GET /runs -> %d", code)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != id {
		t.Errorf("listing = %+v, want [%s]", list.Runs, id)
	}
}

func TestSingleRunSubmission(t *testing.T) {
	_, ts := testServer(t)
	code, body := postJSON(t, ts.URL+"/runs", clicfg.RunSpec{Name: "one-shot", Algo: "sp", Seeds: 1, Horizon: 150})
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	var acc struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Points != 1 {
		t.Errorf("points = %d, want 1", acc.Points)
	}
	m := waitTerminal(t, ts, acc.ID)
	if m.Status != store.StatusDone || m.Kind != "run" || m.Name != "one-shot" {
		t.Errorf("manifest = %+v", m)
	}
}

func TestDRLRunProducesPolicyCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("DRL training skipped in -short mode")
	}
	_, ts := testServer(t)
	_, m := submitWait(t, ts, clicfg.SweepSpec{
		Name: "drl-tiny",
		Base: clicfg.RunSpec{
			Algo: "drl", Seeds: 1, Horizon: 150,
			Train: &clicfg.TrainSpec{Episodes: 2, Seeds: 1, ParallelEnvs: 1, Horizon: 100, Hidden: []int{8}},
		},
	})
	if m.Status != store.StatusDone {
		t.Fatalf("status = %s (%s)", m.Status, m.Error)
	}
	found := false
	for name := range m.Artifacts {
		if strings.HasPrefix(name, "policy-") && strings.HasSuffix(name, ".json") {
			found = true
		}
	}
	if !found {
		t.Errorf("no policy checkpoint artifact: %v", m.Artifacts)
	}
	if m.Cells != 2 { // 1 train + 1 eval cell
		t.Errorf("cells = %d, want 2", m.Cells)
	}
}

func TestSubmissionValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		url  string
		body interface{}
		want string
	}{
		{"/runs", clicfg.RunSpec{Algo: "dqn"}, "algo"},
		{"/sweeps", clicfg.SweepSpec{Base: clicfg.RunSpec{Algo: "sp"},
			Axes: []clicfg.SweepAxis{{Param: "color", Values: []string{"red"}}}}, "unknown"},
		{"/runs", map[string]interface{}{"algo": "sp", "bogus_field": 1}, "bogus_field"},
		{"/runs", map[string]interface{}{"algo": "sp", "shards": 2}, "shards"},
	}
	for i, tc := range cases {
		code, body := postJSON(t, ts.URL+tc.url, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("case %d: %d %s, want 400 mentioning %q", i, code, body, tc.want)
		}
	}
	// No manifests should exist after rejected submissions.
	var list struct {
		Runs []*store.Manifest `json:"runs"`
	}
	getJSON(t, ts.URL+"/runs", &list)
	if len(list.Runs) != 0 {
		t.Errorf("rejected submissions left manifests: %+v", list.Runs)
	}
}

func TestCancelQueuedRun(t *testing.T) {
	s, ts := testServer(t)
	// Hold the executor at the top of execute so the cancel is
	// guaranteed to land while the run is still in the queued state.
	release := make(chan struct{})
	s.testBeforeExec = func(*job) { <-release }

	code, body := postJSON(t, ts.URL+"/runs", clicfg.RunSpec{Algo: "sp", Seeds: 1, Horizon: 150})
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &acc) //nolint:errcheck

	code, body = postJSON(t, ts.URL+"/runs/"+acc.ID+"/cancel", nil)
	if code != http.StatusAccepted {
		t.Fatalf("cancel -> %d: %s", code, body)
	}
	close(release)
	m := waitTerminal(t, ts, acc.ID)
	if m.Status != store.StatusCanceled {
		t.Errorf("canceled run status = %s, want canceled", m.Status)
	}

	// Cancel of a finished run conflicts.
	code, _ = postJSON(t, ts.URL+"/runs/"+acc.ID+"/cancel", nil)
	if code != http.StatusConflict {
		t.Errorf("cancel finished run -> %d, want 409", code)
	}
}

func TestEventsStream(t *testing.T) {
	s, ts := testServer(t)
	// Hold the run until the event stream is connected so the stream is
	// guaranteed to observe every cell event live (replay covers the
	// rest).
	release := make(chan struct{})
	s.testBeforeExec = func(*job) { <-release }
	code, body := postJSON(t, ts.URL+"/sweeps", smallSweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &acc) //nolint:errcheck

	resp, err := http.Get(ts.URL + "/runs/" + acc.ID + "/events")
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("events -> %d", resp.StatusCode)
	}
	var cells int
	var last statusEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Type   string `json:"type"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "cell":
			cells++
		case "status":
			last = statusEvent{Status: probe.Status}
		default:
			t.Errorf("unknown event type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cells != 4 {
		t.Errorf("cell events = %d, want 4", cells)
	}
	if last.Status != store.StatusDone {
		t.Errorf("final status event = %q, want done", last.Status)
	}

	// A stream opened after completion still yields the terminal status.
	resp2, err := http.Get(ts.URL + "/runs/" + acc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(late), store.StatusDone) {
		t.Errorf("late event stream = %q, want terminal status", late)
	}
}

func TestArtifactIngestAndBlobFetch(t *testing.T) {
	_, ts := testServer(t)
	id, m := submitWait(t, ts, clicfg.SweepSpec{Base: clicfg.RunSpec{Algo: "sp", Seeds: 1, Horizon: 150}})
	if m.Status != store.StatusDone {
		t.Fatalf("status = %s", m.Status)
	}
	payload := []byte(`{"bench":"inference","ns_op":123}` + "\n")
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/runs/"+id+"/artifacts/BENCH_inference.json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest -> %d: %s", resp.StatusCode, body)
	}
	var ing struct {
		Artifact store.Artifact `json:"artifact"`
	}
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}

	// Fetch through both the artifact route and the raw blob route.
	for _, url := range []string{
		ts.URL + "/runs/" + id + "/artifacts/BENCH_inference.json",
		ts.URL + "/blobs/" + ing.Artifact.Hash,
	} {
		r2, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		if r2.StatusCode != 200 || !bytes.Equal(got, payload) {
			t.Errorf("GET %s -> %d %q", url, r2.StatusCode, got)
		}
	}

	// Path traversal in artifact names is rejected.
	req2, _ := http.NewRequest(http.MethodPut, ts.URL+"/runs/"+id+"/artifacts/..%2Fescape", bytes.NewReader(payload))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("traversal ingest -> %d, want 400", resp2.StatusCode)
	}
}

// TestRecalcDeterministicAcrossWorkerCounts pins the acceptance
// criterion end to end: two servers running the same sweep with
// different engine worker counts must store byte-identical render
// artifacts, because rendering depends only on the (seed-sorted)
// aggregation of the grid log, not the emission order.
func TestRecalcDeterministicAcrossWorkerCounts(t *testing.T) {
	hashes := make([]map[string]string, 2)
	for i, jobs := range []int{1, 4} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := New(st, Options{GitRev: "x", Jobs: jobs})
		ts := httptest.NewServer(s.Handler())
		_, m := submitWait(t, ts, smallSweep())
		if m.Status != store.StatusDone {
			t.Fatalf("jobs=%d: status %s (%s)", jobs, m.Status, m.Error)
		}
		hashes[i] = map[string]string{}
		for _, name := range RenderNames() {
			hashes[i][name] = m.Artifacts[name].Hash
		}
		ts.Close()
		s.Close()
	}
	for _, name := range RenderNames() {
		if hashes[0][name] != hashes[1][name] {
			t.Errorf("%s differs between jobs=1 and jobs=4: %s vs %s", name, hashes[0][name], hashes[1][name])
		}
	}
}

func TestUnknownRunRoutes(t *testing.T) {
	_, ts := testServer(t)
	if code := getJSON(t, ts.URL+"/runs/r-nope", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown run -> %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/runs/r-nope/recalc", nil); code != http.StatusNotFound {
		t.Errorf("recalc unknown run -> %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/blobs/"+strings.Repeat("0", 64), nil); code != http.StatusNotFound {
		t.Errorf("GET unknown blob -> %d, want 404", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/runs/r-nope/artifacts/x", ts.URL), nil); code != http.StatusNotFound {
		t.Errorf("GET artifact of unknown run -> %d, want 404", code)
	}
}
