package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 4, 8, 3)
	if m.InputSize() != 4 || m.OutputSize() != 3 {
		t.Fatalf("sizes: in=%d out=%d", m.InputSize(), m.OutputSize())
	}
	out := m.Forward([]float64{1, 2, 3, 4})
	if len(out) != 3 {
		t.Fatalf("output length = %d, want 3", len(out))
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite output %v", out)
		}
	}
}

func TestForwardMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 5, 16, 16, 2)
	x := []float64{0.1, -0.5, 0.9, 0.0, 0.3}
	a := m.Forward(x)
	b := m.ForwardTape(x).Output()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Forward and ForwardTape disagree at %d: %f vs %f", i, a[i], b[i])
		}
	}
}

func TestPanicsOnWrongInputSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 4, 2)
	for name, fn := range map[string]func(){
		"Forward":     func() { m.Forward([]float64{1}) },
		"ForwardTape": func() { m.ForwardTape([]float64{1, 2, 3, 4, 5}) },
		"Backward":    func() { m.Backward(m.ForwardTape([]float64{1, 2, 3, 4}), []float64{1}) },
		"NewMLP":      func() { NewMLP(rng, 4) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

// TestGradientsMatchFiniteDifferences is the core correctness check of
// the backprop implementation: analytic gradients of a scalar loss must
// match central finite differences for every parameter.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP(rng, 3, 7, 5, 2)
	x := []float64{0.3, -0.7, 0.2}
	target := []float64{0.5, -0.25}

	loss := func() float64 {
		out := m.Forward(x)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}

	// Analytic gradient: dL/dout = out - target.
	m.ZeroGrad()
	tape := m.ForwardTape(x)
	out := tape.Output()
	dOut := make([]float64, len(out))
	for i := range out {
		dOut[i] = out[i] - target[i]
	}
	m.Backward(tape, dOut)

	params := m.Params()
	grads := m.Grads()
	const h = 1e-6
	checked := 0
	for pi, p := range params {
		for j := range p {
			orig := p[j]
			p[j] = orig + h
			m.Refresh()
			lPlus := loss()
			p[j] = orig - h
			m.Refresh()
			lMinus := loss()
			p[j] = orig
			m.Refresh()
			numeric := (lPlus - lMinus) / (2 * h)
			analytic := grads[pi][j]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("param[%d][%d]: analytic %g vs numeric %g", pi, j, analytic, numeric)
			}
			checked++
		}
	}
	if checked != m.NumParams() {
		t.Fatalf("checked %d of %d params", checked, m.NumParams())
	}
}

func TestGradientsAccumulateUntilZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 2, 3, 1)
	x := []float64{1, -1}
	dOut := []float64{1}

	m.ZeroGrad()
	m.Backward(m.ForwardTape(x), dOut)
	g1 := append([]float64(nil), m.Grads()[0]...)
	m.Backward(m.ForwardTape(x), dOut)
	g2 := m.Grads()[0]
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("gradient did not accumulate: %f vs 2*%f", g2[i], g1[i])
		}
	}
	m.ZeroGrad()
	for _, v := range m.Grads()[0] {
		if v != 0 {
			t.Fatal("ZeroGrad left non-zero gradients")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP(rng, 3, 4, 2)
	c := m.Clone()
	x := []float64{0.1, 0.2, 0.3}
	a, b := m.Forward(x), c.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clone output differs")
		}
	}
	// Mutating the clone must not affect the original.
	c.Params()[0][0] += 10
	a2 := m.Forward(x)
	for i := range a {
		if a[i] != a2[i] {
			t.Fatal("clone shares weights with original")
		}
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, 3, 4, 2)
	o := NewMLP(rng, 3, 4, 2)
	if err := o.CopyWeightsFrom(m); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	a, b := m.Forward(x), o.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("weights not copied")
		}
	}
	bad := NewMLP(rng, 3, 5, 2)
	if err := bad.CopyWeightsFrom(m); err == nil {
		t.Error("CopyWeightsFrom accepted mismatched architecture")
	}
}

func TestClipGradients(t *testing.T) {
	g := [][]float64{{3, 0}, {0, 4}} // norm 5
	norm := ClipGradients(g, 0.5)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %f, want 5", norm)
	}
	sq := 0.0
	for _, gs := range g {
		for _, v := range gs {
			sq += v * v
		}
	}
	if math.Abs(math.Sqrt(sq)-0.5) > 1e-12 {
		t.Errorf("post-clip norm = %f, want 0.5", math.Sqrt(sq))
	}
	// Below threshold: unchanged.
	g2 := [][]float64{{0.1}}
	ClipGradients(g2, 0.5)
	if g2[0][0] != 0.1 {
		t.Error("clip modified gradients below threshold")
	}
}

func TestRMSPropReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP(rng, 2, 16, 1)
	opt := NewRMSProp(0.01)
	// Learn XOR-ish regression: y = x0*x1.
	samples := [][3]float64{{1, 1, 1}, {1, -1, -1}, {-1, 1, -1}, {-1, -1, 1}}
	lossAt := func() float64 {
		l := 0.0
		for _, s := range samples {
			out := m.Forward(s[:2])
			d := out[0] - s[2]
			l += 0.5 * d * d
		}
		return l
	}
	before := lossAt()
	for epoch := 0; epoch < 300; epoch++ {
		m.ZeroGrad()
		for _, s := range samples {
			tape := m.ForwardTape(s[:2])
			m.Backward(tape, []float64{tape.Output()[0] - s[2]})
		}
		opt.Step(m.Params(), m.Grads())
		m.Refresh()
	}
	after := lossAt()
	if after > before/10 {
		t.Errorf("RMSprop failed to fit: loss %f -> %f", before, after)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, 6, 12, 4)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	a, b := m.Forward(x), loaded.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip output differs at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not json",
		"bad sizes":    `{"sizes":[3],"weights":[]}`,
		"wrong blocks": `{"sizes":[2,2],"weights":[[1,2,3,4]]}`,
		"wrong shape":  `{"sizes":[2,2],"weights":[[1,2,3],[0,0]]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(bytes.NewBufferString(in)); err == nil {
				t.Error("Load accepted corrupt input")
			}
		})
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewMLP(rng, 3, 5, 2)
	want := 3*5 + 5 + 5*2 + 2
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

// Property: tanh hidden layers keep activations bounded, so outputs stay
// finite for any bounded input.
func TestForwardFiniteForBoundedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP(rng, 4, 32, 32, 3)
	f := func(a, b, c, d float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Max(-1, math.Min(1, v))
		}
		out := m.Forward([]float64{clamp(a), clamp(b), clamp(c), clamp(d)})
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP(rng, 2, 16, 1)
	opt := NewAdam(0.01)
	samples := [][3]float64{{1, 1, 1}, {1, -1, -1}, {-1, 1, -1}, {-1, -1, 1}}
	lossAt := func() float64 {
		l := 0.0
		for _, s := range samples {
			out := m.Forward(s[:2])
			d := out[0] - s[2]
			l += 0.5 * d * d
		}
		return l
	}
	before := lossAt()
	for epoch := 0; epoch < 300; epoch++ {
		m.ZeroGrad()
		for _, s := range samples {
			tape := m.ForwardTape(s[:2])
			m.Backward(tape, []float64{tape.Output()[0] - s[2]})
		}
		opt.Step(m.Params(), m.Grads())
		m.Refresh()
	}
	after := lossAt()
	if after > before/10 {
		t.Errorf("Adam failed to fit: loss %f -> %f", before, after)
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With a single parameter and gradient g, the first Adam step is
	// -lr * g/|g| (bias correction makes mHat=g, vHat=g^2) up to eps.
	opt := NewAdam(0.1)
	p := [][]float64{{1.0}}
	g := [][]float64{{0.5}}
	opt.Step(p, g)
	want := 1.0 - 0.1*(0.5/(math.Sqrt(0.25)+opt.Eps))
	if math.Abs(p[0][0]-want) > 1e-9 {
		t.Errorf("first Adam step = %f, want %f", p[0][0], want)
	}
}

func TestAdamReset(t *testing.T) {
	opt := NewAdam(0.1)
	p := [][]float64{{1.0}}
	g := [][]float64{{0.5}}
	opt.Step(p, g)
	opt.Reset()
	if opt.m != nil || opt.t != 0 {
		t.Error("Reset did not clear Adam state")
	}
}

func TestRMSPropReset(t *testing.T) {
	opt := NewRMSProp(0.1)
	p := [][]float64{{1.0}}
	g := [][]float64{{0.5}}
	opt.Step(p, g)
	opt.Reset()
	if opt.cache != nil {
		t.Error("Reset did not clear RMSprop cache")
	}
}
