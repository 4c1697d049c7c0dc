package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// refForward is the scalar reference of the single-row forward pass:
// the row-major dot product b[o] + Σ_i w[o][i]·x[i] in ascending i, with
// a separate multiply and add per step. It reads only w and b, so a
// transposed copy that fell out of date shows up as a mismatch.
func refForward(m *MLP, x []float64) []float64 {
	cur := x
	for li, l := range m.layers {
		next := make([]float64, l.out)
		for o := range next {
			s := l.b[o]
			for i, xi := range cur {
				s += float64(l.w[o*l.in+i] * xi)
			}
			next[o] = s
		}
		if li+1 < len(m.layers) {
			for i := range next {
				next[i] = math.Tanh(next[i])
			}
		}
		cur = next
	}
	return cur
}

// assertMatchesRef checks that every single-row forward entry point
// equals refForward bit-for-bit on a few random inputs.
func assertMatchesRef(t *testing.T, what string, m *MLP, rng *rand.Rand) {
	t.Helper()
	ws := m.NewWorkspace()
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, m.InputSize())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := refForward(m, x)
		for name, got := range map[string][]float64{
			"Forward":     m.Forward(x),
			"ForwardInto": m.ForwardInto(ws, x),
			"ForwardTape": m.ForwardTape(x).Output(),
		} {
			for o := range want {
				if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
					t.Fatalf("%s: %s output %d = %v, scalar reference %v", what, name, o, got[o], want[o])
				}
			}
		}
	}
}

// trainStep runs one gradient step of opt on m for a random target.
func trainStep(m *MLP, rng *rand.Rand, step func(params, grads [][]float64)) {
	x := make([]float64, m.InputSize())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	m.ZeroGrad()
	tape := m.ForwardTape(x)
	dOut := make([]float64, m.OutputSize())
	for i, y := range tape.Output() {
		dOut[i] = y - rng.NormFloat64()
	}
	m.Backward(tape, dOut)
	step(m.Params(), m.Grads())
	m.Refresh()
}

// TestWeightWritesKeepForwardExact walks every path that writes
// weights and asserts that the next forward pass still equals the
// scalar reference: the transposed inference copy must follow w
// everywhere a forward pass can run.
func TestWeightWritesKeepForwardExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{5, 37, 9, 3}

	m := NewMLP(rng, sizes...)
	assertMatchesRef(t, "NewMLP", m, rng)

	c := m.Clone()
	assertMatchesRef(t, "Clone", c, rng)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, "Load", loaded, rng)

	dst := NewMLP(rng, sizes...)
	trainStep(m, rng, NewRMSProp(0.05).Step)
	if err := dst.CopyWeightsFrom(m); err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, "CopyWeightsFrom", dst, rng)

	rms := NewRMSProp(0.05)
	for i := 0; i < 3; i++ {
		trainStep(m, rng, rms.Step)
	}
	assertMatchesRef(t, "RMSProp.Step+Refresh", m, rng)

	adam := NewAdam(0.05)
	for i := 0; i < 3; i++ {
		trainStep(m, rng, adam.Step)
	}
	assertMatchesRef(t, "Adam.Step+Refresh", m, rng)
}

// TestInferenceNetworksHoldNoGradients pins the lazy gradient buffers:
// networks that only run forward passes (new, cloned, loaded) allocate
// none, and the first gradient use allocates them zeroed.
func TestInferenceNetworksHoldNoGradients(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(32)), 3, 4, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*MLP{"NewMLP": m, "Clone": m.Clone(), "Load": loaded} {
		n.Forward([]float64{1, 2, 3})
		for li, l := range n.layers {
			if l.gw != nil || l.gb != nil {
				t.Errorf("%s: layer %d holds gradient buffers before any gradient use", name, li)
			}
		}
	}
	for i, g := range m.Grads() {
		if len(g) != len(m.Params()[i]) {
			t.Fatalf("gradient block %d has %d values, want %d", i, len(g), len(m.Params()[i]))
		}
		for _, v := range g {
			if v != 0 {
				t.Fatalf("fresh gradient block %d is not zero", i)
			}
		}
	}
}
