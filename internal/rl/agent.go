// Package rl implements the reinforcement learning machinery of Sec. IV-C:
// an advantage actor-critic with separate actor and critic networks,
// shaped discounted returns, entropy regularization, gradient clipping,
// and a KL trust-region guard that keeps policy updates gradual — our
// stdlib stand-in for ACKTR's Kronecker-factored natural gradient
// (DESIGN.md, substitution 1). Training pools trajectories from parallel
// environment copies and runs k independent seeds, selecting the best
// agent for inference (Alg. 1).
package rl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"distcoord/internal/nn"
)

// Step is one decision in a trajectory: the observation the agent saw,
// the action it took, and the total reward attributed to that action
// (shaped rewards plus any terminal reward).
type Step struct {
	Obs    []float64
	Action int
	Reward float64
}

// Trajectory is the ordered decision sequence of one episode unit (for
// service coordination: all decisions made for one flow, by whichever
// node's agent — pooling them trains the single shared network on
// experience from all agents, Sec. IV-C).
type Trajectory struct {
	Steps []Step
}

// AgentConfig parameterizes an actor-critic agent. Zero values select the
// paper's hyperparameters (Sec. V-A2) where applicable.
type AgentConfig struct {
	ObsSize    int
	NumActions int
	// Hidden layer sizes; default 2x256 with tanh (paper Sec. V-A2).
	Hidden []int
	// Gamma is the discount factor; default 0.99.
	Gamma float64
	// LR is the RMSprop learning rate. The paper's 0.25 applies to
	// ACKTR's natural gradient; for plain RMSprop the stable default is
	// 7e-4 (substitution 1). Default 7e-4.
	LR float64
	// EntropyCoef weights the entropy bonus; default 0.01 (paper).
	EntropyCoef float64
	// ValueCoef weights the critic loss; default 0.25 (paper).
	ValueCoef float64
	// MaxGradNorm clips gradients; default 0.5 (paper).
	MaxGradNorm float64
	// KLLimit bounds per-update policy divergence: updates exceeding it
	// are rolled back and retried with a smaller step. Default 0.15.
	// Note: this is a hard per-update trust region, not ACKTR's kl_clip
	// damping parameter (the paper's 0.001), which bounds the natural
	// gradient's local approximation rather than the realized update —
	// a 0.001 hard bound would freeze RMSprop learning (DESIGN.md,
	// substitution 1).
	KLLimit float64
	// Seed initializes weights and action sampling.
	Seed int64
}

// withDefaults fills zero fields.
func (c AgentConfig) withDefaults() AgentConfig {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{256, 256}
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.LR == 0 {
		c.LR = 7e-4
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	if c.ValueCoef == 0 {
		c.ValueCoef = 0.25
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 0.5
	}
	if c.KLLimit == 0 {
		c.KLLimit = 0.15
	}
	return c
}

func (c AgentConfig) validate() error {
	if c.ObsSize <= 0 {
		return errors.New("rl: ObsSize must be positive")
	}
	if c.NumActions <= 1 {
		return errors.New("rl: NumActions must be at least 2")
	}
	return nil
}

// Agent is an actor-critic pair: π_θ maps observations to action logits,
// V_φ estimates state values.
type Agent struct {
	cfg       AgentConfig
	Actor     *nn.MLP
	Critic    *nn.MLP
	actorOpt  *nn.RMSProp
	criticOpt *nn.RMSProp
	rng       *rand.Rand
}

// NewAgent builds randomly initialized actor and critic networks.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	actorSizes := append(append([]int{cfg.ObsSize}, cfg.Hidden...), cfg.NumActions)
	criticSizes := append(append([]int{cfg.ObsSize}, cfg.Hidden...), 1)
	return &Agent{
		cfg:       cfg,
		Actor:     nn.NewMLP(rng, actorSizes...),
		Critic:    nn.NewMLP(rng, criticSizes...),
		actorOpt:  nn.NewRMSProp(cfg.LR),
		criticOpt: nn.NewRMSProp(cfg.LR),
		rng:       rng,
	}, nil
}

// Config returns the (default-filled) agent configuration.
func (a *Agent) Config() AgentConfig { return a.cfg }

// Probs returns the policy distribution π_θ(·|obs).
func (a *Agent) Probs(obs []float64) []float64 {
	return nn.Softmax(a.Actor.Forward(obs))
}

// Scratch holds one caller's reusable inference buffers (actor forward
// workspace plus a probability vector), so per-decision sampling in the
// rollout hot path performs zero allocations. Not safe for concurrent
// use; each rollout goroutine owns its own.
type Scratch struct {
	ws    *nn.Workspace
	probs []float64
}

// NewScratch allocates inference buffers sized for the agent's actor.
func (a *Agent) NewScratch() *Scratch {
	return &Scratch{
		ws:    a.Actor.NewWorkspace(),
		probs: make([]float64, a.cfg.NumActions),
	}
}

// SampleAction draws an action from π_θ(·|obs) using the given random
// source (callers running parallel rollouts pass per-goroutine sources;
// the actor forward pass is read-only and safe to share).
func (a *Agent) SampleAction(obs []float64, rng *rand.Rand) int {
	return nn.SampleCategorical(rng, a.Probs(obs))
}

// SampleActionWith is SampleAction with caller-owned scratch buffers: the
// allocation-free variant for rollout and online-inference hot paths.
func (a *Agent) SampleActionWith(sc *Scratch, obs []float64, rng *rand.Rand) int {
	logits := a.Actor.ForwardInto(sc.ws, obs)
	return nn.SampleCategorical(rng, nn.SoftmaxInto(logits, sc.probs))
}

// GreedyAction returns argmax_a π_θ(a|obs), used for deterministic
// inference after deployment.
func (a *Agent) GreedyAction(obs []float64) int {
	return nn.Argmax(a.Actor.Forward(obs))
}

// Value returns V_φ(obs).
func (a *Agent) Value(obs []float64) float64 {
	return a.Critic.Forward(obs)[0]
}

// UpdateStats reports one training update.
type UpdateStats struct {
	Steps       int
	MeanReturn  float64
	ValueLoss   float64
	PolicyLoss  float64
	Entropy     float64
	KL          float64 // divergence of the applied update
	GradNorm    float64
	Backtracked bool // update exceeded KLLimit and was re-done smaller
}

// Update performs one training step on a batch of trajectories:
// discounted returns, advantage computation, critic regression, policy
// gradient with entropy bonus, gradient clipping, and the KL trust-region
// guard.
func (a *Agent) Update(batch []Trajectory) (UpdateStats, error) {
	var steps []Step
	var returns []float64
	for _, tr := range batch {
		// Backward discounted returns; trajectories are terminal (flows
		// always end), so no bootstrap tail is needed.
		r := 0.0
		rets := make([]float64, len(tr.Steps))
		for i := len(tr.Steps) - 1; i >= 0; i-- {
			r = tr.Steps[i].Reward + a.cfg.Gamma*r
			rets[i] = r
		}
		steps = append(steps, tr.Steps...)
		returns = append(returns, rets...)
	}
	if len(steps) == 0 {
		return UpdateStats{}, errors.New("rl: empty training batch")
	}
	st := UpdateStats{Steps: len(steps)}
	for _, r := range returns {
		st.MeanReturn += r
	}
	st.MeanReturn /= float64(len(returns))

	// Critic update and advantages.
	advantages := make([]float64, len(steps))
	a.Critic.ZeroGrad()
	for i, s := range steps {
		if len(s.Obs) != a.cfg.ObsSize {
			return st, fmt.Errorf("rl: step %d observation size %d, want %d", i, len(s.Obs), a.cfg.ObsSize)
		}
		tape := a.Critic.ForwardTape(s.Obs)
		v := tape.Output()[0]
		diff := v - returns[i]
		advantages[i] = returns[i] - v
		st.ValueLoss += 0.5 * diff * diff
		a.Critic.Backward(tape, []float64{a.cfg.ValueCoef * diff / float64(len(steps))})
	}
	st.ValueLoss /= float64(len(steps))
	nn.ClipGradients(a.Critic.Grads(), a.cfg.MaxGradNorm)
	a.criticOpt.Step(a.Critic.Params(), a.Critic.Grads())
	a.Critic.Refresh()

	// Normalize advantages for stable policy steps under the ±10 reward
	// scale.
	normalizeInPlace(advantages)

	// Remember pre-update policy for the trust-region check.
	oldActor := a.Actor.Clone()
	oldProbs := make([][]float64, len(steps))
	for i, s := range steps {
		oldProbs[i] = nn.Softmax(oldActor.Forward(s.Obs))
	}

	applyPolicyStep := func(scale float64) float64 {
		a.Actor.ZeroGrad()
		st.PolicyLoss, st.Entropy = 0, 0
		for i, s := range steps {
			tape := a.Actor.ForwardTape(s.Obs)
			logits := tape.Output()
			probs := nn.Softmax(logits)
			logProbs := nn.LogSoftmax(logits)
			h := nn.Entropy(probs)
			adv := advantages[i]
			st.PolicyLoss += -adv * logProbs[s.Action]
			st.Entropy += h
			dLogits := make([]float64, len(logits))
			for j := range dLogits {
				onehot := 0.0
				if j == s.Action {
					onehot = 1
				}
				// Policy gradient of −A·logπ(a) plus entropy bonus
				// gradient of −β·H.
				dLogits[j] = (adv*(probs[j]-onehot) +
					a.cfg.EntropyCoef*probs[j]*(logProbs[j]+h)) / float64(len(steps))
				dLogits[j] *= scale
			}
			a.Actor.Backward(tape, dLogits)
		}
		st.PolicyLoss /= float64(len(steps))
		st.Entropy /= float64(len(steps))
		norm := nn.ClipGradients(a.Actor.Grads(), a.cfg.MaxGradNorm)
		a.actorOpt.Step(a.Actor.Params(), a.Actor.Grads())
		a.Actor.Refresh()
		return norm
	}

	meanKL := func() float64 {
		kl := 0.0
		for i, s := range steps {
			kl += nn.KL(oldProbs[i], a.Probs(s.Obs))
		}
		return kl / float64(len(steps))
	}

	st.GradNorm = applyPolicyStep(1)
	st.KL = meanKL()
	// Trust region guard (ACKTR stand-in): when the update moves the
	// policy more than KLLimit, roll back and retake a smaller step, up
	// to a few halvings.
	scale := 1.0
	for tries := 0; st.KL > a.cfg.KLLimit && tries < 4; tries++ {
		st.Backtracked = true
		if err := a.Actor.CopyWeightsFrom(oldActor); err != nil {
			return st, err
		}
		scale /= 2
		st.GradNorm = applyPolicyStep(scale)
		st.KL = meanKL()
	}
	return st, nil
}

// normalizeInPlace standardizes xs to zero mean and unit variance (no-op
// for constant inputs).
func normalizeInPlace(xs []float64) {
	if len(xs) < 2 {
		return
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	sd := math.Sqrt(variance)
	if sd < 1e-8 {
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - mean) / sd
	}
}
