package coord

import (
	"errors"
	"fmt"
	"math/rand"

	"distcoord/internal/nn"
)

// PolicyBank is the per-node decision state of a distributed deployment:
// one read-only actor copy that every node in its set decides with, and
// per node ID its own sampling stream and inference scratch space. It is
// the part of Distributed that does not need the simulator — given an already-built observation row it produces an
// action — which is exactly what a networked agent daemon hosts on the
// far side of the socket. Distributed wraps a full-node-set bank inside
// the simulator process; cmd/agentd wraps a partial bank (just its
// assigned nodes) behind agentnet.
//
// Determinism contract: a bank built from the same serialized actor and
// reseeded with the same base seed produces, per node, the same action
// sequence for the same observation sequence regardless of which process
// hosts it or which other nodes it materializes — each node's stream
// derives independently from (seed, node ID). The remote≡in-process
// equivalence oracle rests on this.
type PolicyBank struct {
	obsSize    int
	numActions int
	// nodes is indexed by node ID. Only IDs in the bank's set are
	// materialized (their actor points at the bank's copy); the rest stay
	// zero so a dense index (the simulator's hot path) still works for
	// full banks.
	nodes []nodeState
}

// NewPolicyBank clones the actor once, shares that copy among every node
// ID in ids (nil means all of 0..numNodes-1), and sizes each node's
// inference buffers for the given observation/action geometry. Later
// changes to actor do not reach the bank. Streams start seeded with base
// seed 1, like NewDistributed; call Reseed for run-specific streams.
func NewPolicyBank(actor *nn.MLP, numNodes int, ids []int, obsSize, numActions int) (*PolicyBank, error) {
	if actor.InputSize() != obsSize {
		return nil, errors.New("coord: actor input size does not match adapter observation size")
	}
	if actor.OutputSize() != numActions {
		return nil, errors.New("coord: actor output size does not match adapter action space")
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("coord: policy bank needs a positive node count, got %d", numNodes)
	}
	b := &PolicyBank{
		obsSize:    obsSize,
		numActions: numActions,
		nodes:      make([]nodeState, numNodes),
	}
	if ids == nil {
		ids = make([]int, numNodes)
		for v := range ids {
			ids[v] = v
		}
	}
	shared := actor.Clone()
	for _, v := range ids {
		if v < 0 || v >= numNodes {
			return nil, fmt.Errorf("coord: policy bank node ID %d out of range [0,%d)", v, numNodes)
		}
		b.nodes[v] = nodeState{
			actor: shared,
			ws:    shared.NewWorkspace(),
			obs:   make([]float64, 0, obsSize),
			probs: make([]float64, numActions),
		}
	}
	b.Reseed(1)
	return b, nil
}

// Reseed reinitializes the sampling streams of every materialized node.
// Each node derives its own independent source from the base seed — the
// deployed nodes are independent decision makers, so they must not
// consume from one shared stream — and the derivation depends only on
// (seed, node ID), never on which other nodes this bank holds.
func (b *PolicyBank) Reseed(seed int64) {
	for v := range b.nodes {
		if b.nodes[v].actor == nil {
			continue
		}
		b.nodes[v].rng = rand.New(rand.NewSource(nodeSeed(seed, v)))
	}
}

// Has reports whether node v is materialized in this bank.
func (b *PolicyBank) Has(v int) bool {
	return v >= 0 && v < len(b.nodes) && b.nodes[v].actor != nil
}

// node returns node v's state, failing loudly on an unmaterialized ID —
// an agent asked to decide for a node it was never assigned is a routing
// bug, not a condition to paper over.
func (b *PolicyBank) node(v int) (*nodeState, error) {
	if !b.Has(v) {
		return nil, fmt.Errorf("coord: policy bank has no node %d", v)
	}
	return &b.nodes[v], nil
}

// DecideObs runs node v's policy on one prebuilt observation row.
func (b *PolicyBank) DecideObs(v int, obs []float64, stochastic bool) (int, error) {
	n, err := b.node(v)
	if err != nil {
		return 0, err
	}
	if len(obs) != b.obsSize {
		return 0, fmt.Errorf("coord: observation size %d, want %d", len(obs), b.obsSize)
	}
	n.obs = append(n.obs[:0], obs...)
	return n.decide(stochastic), nil
}

// DecideRows resolves a same-node cohort of k prebuilt observation rows
// (flat row-major in rows) and writes one action per row. It mirrors
// Distributed.DecideBatch exactly, including the singleton scalar path,
// so a remote cohort samples bit-identically to the in-process one.
func (b *PolicyBank) DecideRows(v int, rows []float64, k int, stochastic bool, actions []int) error {
	if k == 0 {
		return nil
	}
	if len(rows) != k*b.obsSize {
		return fmt.Errorf("coord: batch of %d rows has %d values, want %d", k, len(rows), k*b.obsSize)
	}
	if len(actions) < k {
		return fmt.Errorf("coord: actions buffer %d too small for %d rows", len(actions), k)
	}
	if k == 1 {
		a, err := b.DecideObs(v, rows, stochastic)
		if err != nil {
			return err
		}
		actions[0] = a
		return nil
	}
	n, err := b.node(v)
	if err != nil {
		return err
	}
	n.decideRows(rows, k, b.numActions, stochastic, actions)
	return nil
}
