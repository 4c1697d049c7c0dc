package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"distcoord/internal/nn"
)

func smallConfig() AgentConfig {
	return AgentConfig{
		ObsSize:    2,
		NumActions: 2,
		Hidden:     []int{16},
		LR:         5e-3,
		Seed:       1,
	}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(AgentConfig{ObsSize: 0, NumActions: 2}); err == nil {
		t.Error("accepted zero ObsSize")
	}
	if _, err := NewAgent(AgentConfig{ObsSize: 2, NumActions: 1}); err == nil {
		t.Error("accepted single action")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := AgentConfig{ObsSize: 16, NumActions: 4}.withDefaults()
	if len(cfg.Hidden) != 2 || cfg.Hidden[0] != 256 || cfg.Hidden[1] != 256 {
		t.Errorf("hidden = %v, want [256 256]", cfg.Hidden)
	}
	if cfg.Gamma != 0.99 {
		t.Errorf("gamma = %f, want 0.99", cfg.Gamma)
	}
	if cfg.EntropyCoef != 0.01 {
		t.Errorf("entropy coef = %f, want 0.01", cfg.EntropyCoef)
	}
	if cfg.ValueCoef != 0.25 {
		t.Errorf("value coef = %f, want 0.25", cfg.ValueCoef)
	}
	if cfg.MaxGradNorm != 0.5 {
		t.Errorf("max grad = %f, want 0.5", cfg.MaxGradNorm)
	}
	if cfg.KLLimit != 0.15 {
		t.Errorf("KL limit = %f, want 0.15 (RMSprop-tuned trust region)", cfg.KLLimit)
	}
}

func TestProbsAreDistribution(t *testing.T) {
	a, err := NewAgent(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := a.Probs([]float64{0.5, -0.5})
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %f", sum)
	}
}

func TestUpdateRejectsEmptyBatch(t *testing.T) {
	a, err := NewAgent(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Update(nil); err == nil {
		t.Error("Update accepted empty batch")
	}
}

func TestUpdateRejectsWrongObsSize(t *testing.T) {
	a, err := NewAgent(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Update([]Trajectory{{Steps: []Step{{Obs: []float64{1}, Action: 0}}}})
	if err == nil {
		t.Error("Update accepted wrong observation size")
	}
}

func TestUpdateMeanReturn(t *testing.T) {
	cfg := smallConfig()
	cfg.Gamma = 0.5
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One trajectory, rewards 1 then 2: returns are 1+0.5*2=2 and 2.
	batch := []Trajectory{{Steps: []Step{
		{Obs: []float64{1, 0}, Action: 0, Reward: 1},
		{Obs: []float64{0, 1}, Action: 1, Reward: 2},
	}}}
	st, err := a.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.MeanReturn-2) > 1e-9 {
		t.Errorf("MeanReturn = %f, want 2", st.MeanReturn)
	}
	if st.Steps != 2 {
		t.Errorf("Steps = %d, want 2", st.Steps)
	}
}

// TestPolicyLearnsContextualBandit: after training on a two-context
// bandit (context i rewards action i), the greedy policy must pick the
// right action per context.
func TestPolicyLearnsContextualBandit(t *testing.T) {
	cfg := smallConfig()
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	contexts := [][]float64{{1, 0}, {0, 1}}
	for iter := 0; iter < 400; iter++ {
		var batch []Trajectory
		for i := 0; i < 16; i++ {
			ctx := contexts[rng.Intn(2)]
			act := a.SampleAction(ctx, rng)
			reward := -1.0
			if (ctx[0] == 1 && act == 0) || (ctx[1] == 1 && act == 1) {
				reward = 1
			}
			batch = append(batch, Trajectory{Steps: []Step{{Obs: ctx, Action: act, Reward: reward}}})
		}
		if _, err := a.Update(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.GreedyAction(contexts[0]); got != 0 {
		t.Errorf("context 0: greedy action = %d, want 0", got)
	}
	if got := a.GreedyAction(contexts[1]); got != 1 {
		t.Errorf("context 1: greedy action = %d, want 1", got)
	}
	// The critic should value both contexts near +1 (always achievable).
	for _, ctx := range contexts {
		if v := a.Value(ctx); v < 0 {
			t.Errorf("value of winning context = %f, want > 0", v)
		}
	}
}

// TestKLGuardBoundsUpdates: with an aggressive learning rate the raw step
// would blow past the KL limit; the guard must backtrack.
func TestKLGuardBoundsUpdates(t *testing.T) {
	cfg := smallConfig()
	cfg.LR = 0.5 // intentionally destructive
	cfg.KLLimit = 0.001
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	backtracked := false
	for iter := 0; iter < 20; iter++ {
		var batch []Trajectory
		for i := 0; i < 8; i++ {
			obs := []float64{rng.Float64(), rng.Float64()}
			act := a.SampleAction(obs, rng)
			batch = append(batch, Trajectory{Steps: []Step{{Obs: obs, Action: act, Reward: rng.Float64() * 20}}})
		}
		st, err := a.Update(batch)
		if err != nil {
			t.Fatal(err)
		}
		backtracked = backtracked || st.Backtracked
	}
	if !backtracked {
		t.Error("KL guard never engaged despite destructive learning rate")
	}
}

// TestUpdateKeepsInferenceCurrent: Update writes both networks through
// their optimizers (and rolls the actor back when the KL guard fires),
// so afterwards each must forward exactly like a network rebuilt from
// its saved weights.
func TestUpdateKeepsInferenceCurrent(t *testing.T) {
	cfg := smallConfig()
	cfg.LR = 0.5
	cfg.KLLimit = 0.001
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 3; iter++ {
		var batch []Trajectory
		for i := 0; i < 8; i++ {
			obs := []float64{rng.Float64(), rng.Float64()}
			batch = append(batch, Trajectory{Steps: []Step{{Obs: obs, Action: a.SampleAction(obs, rng), Reward: rng.Float64() * 20}}})
		}
		if _, err := a.Update(batch); err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*nn.MLP{"actor": a.Actor, "critic": a.Critic} {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := nn.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			x := []float64{0.25, -0.75}
			got, want := m.Forward(x), rebuilt.Forward(x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("update %d: %s output %d = %v, rebuilt network %v", iter, name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNormalizeInPlace(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	normalizeInPlace(xs)
	mean, sq := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= 4
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	if math.Abs(mean) > 1e-9 || math.Abs(sq/4-1) > 1e-9 {
		t.Errorf("normalized mean=%f var=%f, want 0/1", mean, sq/4)
	}
	// Constant input: unchanged (no division by zero).
	cs := []float64{5, 5, 5}
	normalizeInPlace(cs)
	for _, c := range cs {
		if c != 5 {
			t.Errorf("constant input modified: %v", cs)
		}
	}
	one := []float64{3}
	normalizeInPlace(one)
	if one[0] != 3 {
		t.Error("single element modified")
	}
}

func TestPolicyFunc(t *testing.T) {
	p := PolicyFunc(func(obs []float64) int { return 7 })
	if got := p.SelectAction(nil); got != 7 {
		t.Errorf("PolicyFunc = %d, want 7", got)
	}
}
