package main

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"runtime"
	"time"

	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/rl"
)

// The abilene-train workload: centralized training (Alg. 1) on
// eval.Base with the paper's 2x256 networks, one seed and l = 2
// parallel environments, built exactly as eval.TrainDRL builds it.
const (
	trainEnvs     = 2
	trainHorizon  = 1000
	trainEpisodes = 1 // update iterations per job
	trainSlots    = 8 // distinct job seeds
	// policyEpisodes is the budget that produced policy.json.
	policyEpisodes = 60
)

var trainHidden = []int{256, 256}

// trainProbe observes one training job from outside: the rollouts of
// each environment, the policy calls inside them and the per-episode
// records rl.Train emits.
type trainProbe struct {
	envs  []*timedEnv
	marks []episodeMark
}

// episodeMark is an rl.EpisodeRecord with the time it was emitted,
// which is when the episode's update finished.
type episodeMark struct {
	at  time.Time
	rec rl.EpisodeRecord
}

// timedEnv wraps coord.Env, timing each rollout and each policy call
// the rollout makes.
type timedEnv struct {
	inner    *coord.Env
	lat      timing // microseconds per policy call
	rollouts []rolloutSpan
	capture  *rowCapture // nil unless traced
}

type rolloutSpan struct {
	start, end   time.Time
	flows, steps int
	score        float64
	policyNS     int64
}

func (e *timedEnv) Rollout(p rl.Policy) ([]rl.Trajectory, float64, error) {
	tp := &timedPolicy{inner: p, env: e}
	t0 := time.Now()
	trajs, score, err := e.inner.Rollout(tp)
	span := rolloutSpan{start: t0, end: time.Now(), flows: len(trajs), score: score, policyNS: tp.ns}
	for _, tr := range trajs {
		span.steps += len(tr.Steps)
	}
	e.rollouts = append(e.rollouts, span)
	return trajs, score, err
}

// timedPolicy times the training policy's action selection: the actor
// forward pass and the sample.
type timedPolicy struct {
	inner rl.Policy
	env   *timedEnv
	ns    int64
}

func (p *timedPolicy) SelectAction(obs []float64) int {
	t0 := time.Now()
	a := p.inner.SelectAction(obs)
	d := time.Since(t0).Nanoseconds()
	p.ns += d
	p.env.lat.add(float64(d) / 1e3)
	if p.env.capture != nil {
		p.env.capture.single(obs)
	}
	return a
}

// trainJob trains one agent with seed for the given budget, observed by
// the returned probe. Apart from the probe it is eval.TrainDRL with
// budget {episodes, l = 2, 1 seed, horizon, 2x256, default LR, seed}.
func trainJob(seed int64, episodes int, horizon float64, capture bool) (*rl.Agent, *trainProbe, error) {
	s := eval.Base()
	probe, err := s.Instantiate(0)
	if err != nil {
		return nil, nil, err
	}
	adapter := coord.NewAdapter(probe.Graph, probe.APSP)
	tp := &trainProbe{}
	agent, _, err := rl.Train(rl.TrainConfig{
		Agent: rl.AgentConfig{
			ObsSize:    adapter.ObsSize(),
			NumActions: adapter.NumActions(),
			Hidden:     trainHidden,
			LR:         eval.DefaultTrainBudget().LR,
			Seed:       seed,
		},
		Episodes:     episodes,
		ParallelEnvs: trainEnvs,
		Seeds:        1,
		LRDecay:      true,
		// With one seed, rl.Train calls OnEpisode and NewEnv from one
		// goroutine and returns after it ends.
		OnEpisode: func(r rl.EpisodeRecord) { tp.marks = append(tp.marks, episodeMark{time.Now(), r}) },
		NewEnv: func(envSeed int64) (rl.Env, error) {
			env, err := newTrainEnv(s, envSeed, horizon)
			if err != nil {
				return nil, err
			}
			te := &timedEnv{inner: env, lat: usTiming()}
			if capture {
				te.capture = &rowCapture{width: adapter.ObsSize(), every: 2, maxRows: 1024}
			}
			tp.envs = append(tp.envs, te)
			return te, nil
		},
	})
	return agent, tp, err
}

// newTrainEnv builds one training environment as eval.TrainDRL does.
func newTrainEnv(s eval.Scenario, envSeed int64, horizon float64) (*coord.Env, error) {
	inst, err := s.Instantiate(1_000_003 + envSeed)
	if err != nil {
		return nil, err
	}
	return coord.NewEnv(coord.EnvConfig{
		Graph:        inst.Graph,
		APSP:         inst.APSP,
		Service:      inst.Service,
		IngressNodes: s.Ingresses(),
		Egress:       s.Egress,
		Traffic:      s.Traffic,
		Template:     inst.Template,
		Horizon:      horizon,
	}, envSeed)
}

// actorDigest is the md5 of the saved actor.
func actorDigest(a *rl.Agent) (string, error) {
	var buf bytes.Buffer
	if err := a.Actor.Save(&buf); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", md5.Sum(buf.Bytes())), nil
}

// trainSetup is the construction a training job performs before its
// first rollout, done standalone so that it can be timed: instantiate
// the scenario, build l environments and the 2x256 agent.
type trainSetup struct {
	envs  []*coord.Env
	agent *rl.Agent
}

func newTrainSetup() (*trainSetup, setupTimes, error) {
	t0 := time.Now()
	s := eval.Base()
	probe, err := s.Instantiate(0)
	if err != nil {
		return nil, setupTimes{}, err
	}
	t1 := time.Now()
	adapter := coord.NewAdapter(probe.Graph, probe.APSP)
	su := &trainSetup{}
	for i := 0; i < trainEnvs; i++ {
		env, err := newTrainEnv(s, int64(i), trainHorizon)
		if err != nil {
			return nil, setupTimes{}, err
		}
		su.envs = append(su.envs, env)
	}
	su.agent, err = rl.NewAgent(rl.AgentConfig{ObsSize: adapter.ObsSize(), NumActions: adapter.NumActions(), Hidden: trainHidden})
	if err != nil {
		return nil, setupTimes{}, err
	}
	return su, setupTimes{total: time.Since(t0), instantiate: t1.Sub(t0)}, nil
}

// job is the outcome of one training job.
type job struct {
	wall         time.Duration
	flows, steps int
	probe        *trainProbe
	agent        *rl.Agent
}

func runJob(slot int, capture bool) (job, error) {
	t0 := time.Now()
	agent, probe, err := trainJob(slotSeed(slot), trainEpisodes, trainHorizon, capture)
	j := job{wall: time.Since(t0), probe: probe, agent: agent}
	if err != nil {
		return j, err
	}
	for _, e := range probe.envs {
		for _, r := range e.rollouts {
			j.flows += r.flows
			j.steps += r.steps
		}
	}
	got, err := actorDigest(agent)
	if err != nil {
		return j, err
	}
	want, err := pinnedDigest("abilene-train", slot)
	if err != nil {
		return j, err
	}
	if got != want {
		return j, fmt.Errorf("slot %d actor digest %s, pinned %s", slot, got, want)
	}
	return j, nil
}

func runTrain(cfg runConfig, rep *report) error {
	su, all, err := repeatSetup(newTrainSetup, func(*trainSetup) {})
	if err != nil {
		return err
	}
	setupMetrics(rep, all, cfg.trace)
	heap := liveHeapMB()
	runtime.KeepAlive(su) // the setup is part of the measured heap

	order := slotOrder(cfg.seed, trainSlots)
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var done []int
	var wall time.Duration
	var flows, steps int
	lat := usTiming()
	start := time.Now()
	// Jobs run in whole cycles over the slots, so that every run trains
	// the same jobs and the seed only orders them: the work per flow of
	// one job differs by up to a factor of two between job seeds.
	for cycle := 0; cycle == 0 || time.Since(start).Seconds() < budget; cycle++ {
		for _, slot := range order {
			j, err := runJob(slot, false)
			rep.op(fmt.Sprintf("training job slot %d", slot), err)
			done = append(done, slot)
			if err != nil {
				continue
			}
			wall += j.wall
			flows += j.flows
			steps += j.steps
			for _, e := range j.probe.envs {
				lat.samples = append(lat.samples, e.lat.samples...)
			}
		}
	}
	rep.printf("%d jobs of %d episodes, %d flows, %d steps, %.3f s wall\n", len(done), trainEpisodes, flows, steps, wall.Seconds())
	rep.printf("policy action selection: %s\n", &lat)
	if cfg.trace {
		rep.set("decide_p99_us", lat.at(99), "us")
		return runTrainTraced(done, wall, rep)
	}
	rep.set("flows_per_s", perSecond(float64(flows), wall.Seconds()), "1/s")
	rep.set("steps_per_s", perSecond(float64(steps), wall.Seconds()), "1/s")
	rep.set("decide_p50_us", lat.median(), "us")
	rep.set("peak_heap_mb", heap, "MB")
	return nil
}

// runTrainTraced reruns the untraced jobs with their rows captured and
// attributes each job's wall time to rollouts, updates and the rest.
func runTrainTraced(slots []int, untracedWall time.Duration, rep *report) error {
	led := newLedger()
	rollout := meanTiming("ms")
	update := meanTiming("ms")
	internalUpdate := meanTiming("ms")
	stepsPerEp := meanTiming("count")
	var flows, steps int
	var outside, score float64
	var scores int
	var last job
	for _, slot := range slots {
		j, err := runJob(slot, true)
		rep.op(fmt.Sprintf("traced training job slot %d", slot), err)
		if err != nil {
			continue
		}
		last = j
		var rollNS, updNS int64
		for e, mark := range j.probe.marks {
			var start, end time.Time
			epSteps := 0
			for i, env := range j.probe.envs {
				if e >= len(env.rollouts) {
					return fmt.Errorf("episode %d has no rollout from env %d", e, i)
				}
				r := env.rollouts[e]
				if start.IsZero() || r.start.Before(start) {
					start = r.start
				}
				if r.end.After(end) {
					end = r.end
				}
				epSteps += r.steps
				flows += r.flows
				outside += float64(r.end.Sub(r.start).Nanoseconds() - r.policyNS)
				score += r.score
				scores++
			}
			rollNS += end.Sub(start).Nanoseconds()
			updNS += mark.at.Sub(end).Nanoseconds()
			rollout.add(float64(end.Sub(start).Nanoseconds()) / 1e6)
			update.add(float64(mark.at.Sub(end).Nanoseconds()) / 1e6)
			internalUpdate.add(mark.rec.UpdateMS)
			stepsPerEp.add(float64(epSteps))
			steps += epSteps
		}
		led.wall += j.wall.Nanoseconds()
		led.add("rl.rollout", rollNS)
		led.add("rl.update", updNS)
		led.add("rl.self", j.wall.Nanoseconds()-rollNS-updNS)
	}
	if led.sum() != led.wall {
		return fmt.Errorf("ledger layers sum to %d ns, traced wall is %d ns", led.sum(), led.wall)
	}
	if last.agent == nil {
		return fmt.Errorf("no traced training job succeeded")
	}
	led.print(rep)
	rep.printf("rl.rollout per episode: %s\n", &rollout)
	rep.printf("rl.update per episode: %s (rl.Train's own UpdateMS: %s)\n", &update, &internalUpdate)
	rep.printf("rl.steps per episode: %s\n", &stepsPerEp)
	rep.printf("rollout time outside the policy (simulation, observation, trajectory collection): %.0f ns per flow\n", ratio(outside, float64(flows)))
	rep.set("trace.overhead_pct", 100*(ratio(float64(led.wall), float64(untracedWall.Nanoseconds()))-1), "%")
	rep.set("rl.rollout_ms", rollout.median(), "ms")
	rep.set("rl.update_ms", update.median(), "ms")
	rep.set("rl.steps_per_episode", stepsPerEp.median(), "count")
	rep.set("simnet.decisions_per_flow", ratio(float64(steps), float64(flows)), "count")
	rep.set("simnet.success_ratio", ratio(score, float64(scores)), "ratio")

	var rows rowCapture
	for _, e := range last.probe.envs {
		rows.width = e.capture.width
		rows.rows = append(rows.rows, e.capture.rows...)
	}
	reportNN(rep, replayNN(last.agent.Actor, &rows))
	return nil
}
