package ctlserv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"distcoord/internal/baselines"
	"distcoord/internal/clicfg"
	"distcoord/internal/eval"
	"distcoord/internal/simnet"
	"distcoord/internal/store"
)

// job is one queued submission: the expanded sweep plus the manifest as
// persisted at submission time. The executor owns the manifest from
// here on; handlers read run state through the store or the runState.
type job struct {
	manifest *store.Manifest
	sweep    clicfg.SweepSpec
	points   []clicfg.SweepPoint
	state    *runState
}

// executor drains the submission queue, one run at a time; each run
// parallelizes internally on the engine's worker pool, so serializing
// runs keeps cell wall-times (and ETAs) honest instead of having
// concurrent grids fight over the same cores.
func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

// execute runs one sweep to completion and persists its artifacts.
func (s *Server) execute(j *job) {
	rs, m := j.state, j.manifest
	defer s.finishRun(rs)

	if s.testBeforeExec != nil {
		s.testBeforeExec(j)
	}
	if rs.isCanceled() {
		m.Status = store.StatusCanceled
		m.Ended = time.Now().UTC()
		s.persist(m)
		rs.broadcast(statusEvent{Type: "status", Status: m.Status})
		return
	}

	var recs []eval.GridRecord
	reg := rs.reg
	eng := eval.NewEngine(eval.Options{
		EvalSeeds:       j.sweep.Base.EvalSeeds(),
		Jobs:            s.jobs,
		MonitorInterval: monitorInterval,
		Registry:        reg,
		OnCell: func(r eval.GridRecord) { // scheduler goroutine only
			recs = append(recs, r)
			rs.broadcast(cellEvent{Type: "cell", Record: r})
		},
	})
	policies := make(map[string]*eval.PolicyJob)
	if err := registerPoints(eng, j.points, policies); err != nil {
		m.Status = store.StatusFailed
		m.Error = err.Error()
		m.Ended = time.Now().UTC()
		s.persist(m)
		rs.broadcast(statusEvent{Type: "status", Status: m.Status, Error: m.Error})
		return
	}

	m.Status = store.StatusRunning
	m.Started = time.Now().UTC()
	m.Cells = eng.Cells()
	s.persist(m)
	rs.setEngine(eng)
	rs.broadcast(statusEvent{Type: "status", Status: m.Status})

	runErr := eng.Run()

	switch {
	case runErr == nil:
		m.Status = store.StatusDone
	case errors.Is(runErr, eval.ErrCanceled):
		m.Status = store.StatusCanceled
	default:
		m.Status = store.StatusFailed
		m.Error = runErr.Error()
	}
	m.Ended = time.Now().UTC()

	if err := s.storeArtifacts(m, j, recs, policies); err != nil && m.Error == "" {
		m.Status = store.StatusFailed
		m.Error = err.Error()
	}
	s.persist(m)
	rs.broadcast(statusEvent{Type: "status", Status: m.Status, Error: m.Error})
}

// monitorInterval is the Central baseline's rule update period, the
// eval default.
const monitorInterval = 100

// registerPoints builds the grid: one Train job per DRL point, one
// group of evaluation cells per point, each under the point's own run
// options (MaxBatch sweeps).
func registerPoints(eng *eval.Engine, points []clicfg.SweepPoint, policies map[string]*eval.PolicyJob) error {
	for _, p := range points {
		sc, err := p.Spec.Scenario()
		if err != nil {
			return fmt.Errorf("ctlserv: point %q: %w", p.Label, err)
		}
		label := clicfg.AlgoLabel(p.Spec.Algo)
		ro := p.Spec.RunOptions()
		switch p.Spec.Algo {
		case "drl":
			pol := eng.Train(sweepFigureID, p.Label, sc, p.Spec.TrainBudget())
			policies[p.Label] = pol
			eng.EvalWith(sweepFigureID, p.Label, label, sc, pol.Factory(), pol, p.Spec.BaseSeed, ro)
		case "central":
			eng.EvalWith(sweepFigureID, p.Label, label, sc,
				eval.Fresh(func() simnet.Coordinator { return baselines.NewCentral(monitorInterval) }), nil, p.Spec.BaseSeed, ro)
		case "gcasp":
			eng.EvalWith(sweepFigureID, p.Label, label, sc,
				eval.Fresh(func() simnet.Coordinator { return baselines.GCASP{} }), nil, p.Spec.BaseSeed, ro)
		case "sp":
			eng.EvalWith(sweepFigureID, p.Label, label, sc,
				eval.Fresh(func() simnet.Coordinator { return baselines.SP{} }), nil, p.Spec.BaseSeed, ro)
		default: // unreachable after Expand validation
			return fmt.Errorf("ctlserv: point %q: unknown algo %q", p.Label, p.Spec.Algo)
		}
	}
	return nil
}

// sweepFigureID is the CellKey.Figure of every controller grid cell.
const sweepFigureID = "sweep"

// storeArtifacts persists everything the run produced: the grid log,
// the three renders (computed from the stored grid-log bytes — the same
// function recalc uses), trained policy checkpoints, and the run's
// metrics snapshot.
func (s *Server) storeArtifacts(m *store.Manifest, j *job, recs []eval.GridRecord, policies map[string]*eval.PolicyJob) error {
	gridLog, err := EncodeGridLog(recs)
	if err != nil {
		return err
	}
	if err := s.st.AddArtifact(m, ArtifactGridLog, gridLog); err != nil {
		return err
	}
	renders, err := RenderFromGridLog(m.Name, j.points, gridLog)
	if err != nil {
		return err
	}
	for _, name := range RenderNames() {
		if err := s.st.AddArtifact(m, name, renders[name]); err != nil {
			return err
		}
	}
	for label, pol := range policies {
		p := pol.Policy()
		if p == nil {
			continue // training failed or was skipped
		}
		var buf bytes.Buffer
		if err := p.Agent.Actor.Save(&buf); err != nil {
			return fmt.Errorf("ctlserv: checkpoint %q: %w", label, err)
		}
		if err := s.st.AddArtifact(m, "policy-"+sanitizeName(label)+".json", buf.Bytes()); err != nil {
			return err
		}
	}
	snap, err := json.MarshalIndent(j.state.reg.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("ctlserv: metrics snapshot: %w", err)
	}
	return s.st.AddArtifact(m, "metrics.json", append(snap, '\n'))
}

// sanitizeName maps a point label to an artifact-name-safe form.
func sanitizeName(label string) string {
	out := make([]byte, 0, len(label))
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.', c == '=':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// persist writes the manifest, logging failures to the server's
// error hook (storage errors mid-run must not crash the executor).
func (s *Server) persist(m *store.Manifest) {
	if err := s.st.PutManifest(m); err != nil {
		s.logf("ctlserv: persisting run %s: %v", m.ID, err)
	}
}
