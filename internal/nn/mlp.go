// Package nn is a small, dependency-free neural network library: dense
// multi-layer perceptrons with tanh hidden activations, reverse-mode
// gradients, an RMSprop optimizer, and the categorical-distribution
// utilities needed for actor-critic reinforcement learning. It replaces
// the paper's TensorFlow/stable-baselines stack (DESIGN.md,
// substitution 2); the paper's networks are tanh MLPs with two hidden
// layers of 256 units (Sec. V-A2).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// dense is one linear layer: y = W·x + b. W is stored twice: row-major
// in w (w[o*in+i]), which training and the batched kernels read, and
// transposed in wt (wt[i*out+o]), which the single-row kernel streams
// vectorised across outputs. Every method that writes w keeps wt its
// transpose; code writing through MLP.Params calls MLP.Refresh.
type dense struct {
	in, out int
	w       []float64 // len out*in
	wt      []float64 // len in*out
	b       []float64 // len out
	// gw and gb stay nil until the first gradient use, so
	// inference-only networks (deployed copies, loaded checkpoints)
	// hold no gradient buffers.
	gw []float64
	gb []float64
}

func newDense(rng *rand.Rand, in, out int) *dense {
	d := &dense{
		in:  in,
		out: out,
		w:   make([]float64, out*in),
		wt:  make([]float64, in*out),
		b:   make([]float64, out),
	}
	// Xavier/Glorot initialization, appropriate for tanh activations.
	scale := math.Sqrt(2.0 / float64(in+out))
	for i := range d.w {
		d.w[i] = rng.NormFloat64() * scale
	}
	d.transpose()
	return d
}

// transpose rebuilds wt from w. It reads eight rows of w at a time, so
// every store fills a whole cache line of wt; that is about 4× faster
// than one row at a time, and it runs on every network construction.
func (d *dense) transpose() {
	in, out, w, wt := d.in, d.out, d.w, d.wt
	o := 0
	for ; o+8 <= out; o += 8 {
		r0 := w[o*in : (o+1)*in]
		r1 := w[(o+1)*in : (o+2)*in][:len(r0)]
		r2 := w[(o+2)*in : (o+3)*in][:len(r0)]
		r3 := w[(o+3)*in : (o+4)*in][:len(r0)]
		r4 := w[(o+4)*in : (o+5)*in][:len(r0)]
		r5 := w[(o+5)*in : (o+6)*in][:len(r0)]
		r6 := w[(o+6)*in : (o+7)*in][:len(r0)]
		r7 := w[(o+7)*in : (o+8)*in][:len(r0)]
		for i := range r0 {
			c := wt[i*out+o : i*out+o+8]
			c[0], c[1], c[2], c[3] = r0[i], r1[i], r2[i], r3[i]
			c[4], c[5], c[6], c[7] = r4[i], r5[i], r6[i], r7[i]
		}
	}
	for ; o < out; o++ {
		for i, v := range w[o*in : (o+1)*in] {
			wt[i*out+o] = v
		}
	}
}

// grads allocates the gradient buffers on first use.
func (d *dense) grads() {
	if d.gw == nil {
		d.gw = make([]float64, len(d.w))
		d.gb = make([]float64, len(d.b))
	}
}

// backward accumulates parameter gradients for upstream gradient dy at
// input x and writes the input gradient into dx (len d.in) unless nil.
func (d *dense) backward(x, dy, dx []float64) {
	d.grads()
	for o := 0; o < d.out; o++ {
		g := dy[o]
		d.gb[o] += g
		row := d.gw[o*d.in : (o+1)*d.in]
		for i, xi := range x {
			row[i] += g * xi
		}
	}
	if dx == nil {
		return
	}
	for i := range dx {
		dx[i] = 0
	}
	for o := 0; o < d.out; o++ {
		g := dy[o]
		row := d.w[o*d.in : (o+1)*d.in]
		for i := range dx {
			dx[i] += row[i] * g
		}
	}
}

// MLP is a dense feed-forward network with tanh hidden activations and a
// linear output layer.
type MLP struct {
	sizes  []int
	layers []*dense
}

// NewMLP builds an MLP with the given layer sizes, e.g.
// NewMLP(rng, 16, 256, 256, 4) for the paper's actor on a Δ_G=3 network.
// It panics if fewer than two sizes are given (a programming error).
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs at least input and output sizes, got %v", sizes))
	}
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, newDense(rng, sizes[i], sizes[i+1]))
	}
	return m
}

// InputSize returns the expected input dimension.
func (m *MLP) InputSize() int { return m.sizes[0] }

// OutputSize returns the output dimension.
func (m *MLP) OutputSize() int { return m.sizes[len(m.sizes)-1] }

// Forward runs inference, returning a freshly allocated output vector.
// Hot paths that decide per flow should allocate a Workspace once and
// call ForwardInto instead.
func (m *MLP) Forward(x []float64) []float64 {
	return m.forwardLayers(x, m.newActs())
}

// newActs allocates one output buffer per layer.
func (m *MLP) newActs() [][]float64 {
	acts := make([][]float64, len(m.layers))
	for i, l := range m.layers {
		acts[i] = make([]float64, l.out)
	}
	return acts
}

// forwardLayers is the one layer loop of every single-row forward pass:
// layer k writes its output into acts[k] (tanh on hidden layers, linear
// on the last), and the last buffer is returned.
func (m *MLP) forwardLayers(x []float64, acts [][]float64) []float64 {
	if len(x) != m.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InputSize()))
	}
	cur := x
	for li, l := range m.layers {
		next := acts[li]
		l.forward(cur, next)
		if li+1 < len(m.layers) {
			for i := range next {
				next[i] = math.Tanh(next[i])
			}
		}
		cur = next
	}
	return cur
}

// Workspace holds the per-layer activation buffers of one forward pass,
// so steady-state inference performs no allocations. A workspace belongs
// to one caller (it is not safe for concurrent use) and fits any network
// with the same layer sizes as the one that created it.
type Workspace struct {
	sizes []int
	acts  [][]float64 // one buffer per layer output
}

// NewWorkspace allocates forward-pass scratch buffers sized for m.
func (m *MLP) NewWorkspace() *Workspace {
	return &Workspace{sizes: append([]int(nil), m.sizes...), acts: m.newActs()}
}

// ForwardInto runs inference using the workspace's buffers and returns
// the output slice, which aliases the workspace and stays valid until
// its next use. It performs zero allocations.
func (m *MLP) ForwardInto(ws *Workspace, x []float64) []float64 {
	if len(ws.acts) != len(m.layers) {
		panic(fmt.Sprintf("nn: workspace has %d layers, network %d", len(ws.acts), len(m.layers)))
	}
	for li, l := range m.layers {
		if len(ws.acts[li]) != l.out {
			panic(fmt.Sprintf("nn: workspace layer %d sized %d, want %d", li, len(ws.acts[li]), l.out))
		}
	}
	return m.forwardLayers(x, ws.acts)
}

// Tape records the activations of one forward pass for backpropagation.
type Tape struct {
	// acts[0] is the input; acts[i] the post-activation output of layer
	// i-1 (tanh applied on hidden layers, linear on the last).
	acts [][]float64
}

// Output returns the network output recorded on the tape.
func (t *Tape) Output() []float64 { return t.acts[len(t.acts)-1] }

// ForwardTape runs a forward pass and records activations for a later
// Backward call.
func (m *MLP) ForwardTape(x []float64) *Tape {
	t := &Tape{acts: append([][]float64{append([]float64(nil), x...)}, m.newActs()...)}
	m.forwardLayers(t.acts[0], t.acts[1:])
	return t
}

// Backward accumulates parameter gradients for the loss gradient dOut
// with respect to the tape's output. Gradients add up until ZeroGrad.
func (m *MLP) Backward(t *Tape, dOut []float64) {
	if len(dOut) != m.OutputSize() {
		panic(fmt.Sprintf("nn: gradient size %d, want %d", len(dOut), m.OutputSize()))
	}
	dy := append([]float64(nil), dOut...)
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		x := t.acts[li]
		var dx []float64
		if li > 0 {
			dx = make([]float64, l.in)
		}
		l.backward(x, dy, dx)
		if li > 0 {
			// Undo the tanh of the previous hidden layer:
			// d/dpre = d/dpost · (1 − post²).
			post := t.acts[li]
			for i := range dx {
				dx[i] *= 1 - post[i]*post[i]
			}
			dy = dx
		}
	}
}

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.layers {
		l.grads()
		for i := range l.gw {
			l.gw[i] = 0
		}
		for i := range l.gb {
			l.gb[i] = 0
		}
	}
}

// Params returns the parameter slices (weights and biases per layer).
// Mutating the returned slices mutates the network; the optimizer relies
// on this. A caller that writes through them must call Refresh before
// the next forward pass.
func (m *MLP) Params() [][]float64 {
	out := make([][]float64, 0, 2*len(m.layers))
	for _, l := range m.layers {
		out = append(out, l.w, l.b)
	}
	return out
}

// Grads returns the gradient slices aligned with Params.
func (m *MLP) Grads() [][]float64 {
	out := make([][]float64, 0, 2*len(m.layers))
	for _, l := range m.layers {
		l.grads()
		out = append(out, l.gw, l.gb)
	}
	return out
}

// Refresh brings the inference copy of the weights up to date after
// they were written through Params (an optimizer step, weight
// averaging). Forward passes never rebuild it themselves, so a network
// may be shared by concurrent readers.
func (m *MLP) Refresh() {
	for _, l := range m.layers {
		l.transpose()
	}
}

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.layers {
		n += len(l.w) + len(l.b)
	}
	return n
}

// Clone returns a deep copy of the weights (gradients are not copied;
// the copy allocates its own on first use).
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...)}
	for _, l := range m.layers {
		c.layers = append(c.layers, &dense{
			in:  l.in,
			out: l.out,
			w:   append([]float64(nil), l.w...),
			wt:  append([]float64(nil), l.wt...),
			b:   append([]float64(nil), l.b...),
		})
	}
	return c
}

// CopyWeightsFrom overwrites m's weights with src's. The architectures
// must match.
func (m *MLP) CopyWeightsFrom(src *MLP) error {
	if len(m.layers) != len(src.layers) {
		return fmt.Errorf("nn: architecture mismatch: %v vs %v", m.sizes, src.sizes)
	}
	for i, l := range m.layers {
		s := src.layers[i]
		if l.in != s.in || l.out != s.out {
			return fmt.Errorf("nn: layer %d mismatch: %dx%d vs %dx%d", i, l.in, l.out, s.in, s.out)
		}
		copy(l.w, s.w)
		copy(l.wt, s.wt)
		copy(l.b, s.b)
	}
	return nil
}

// ClipGradients scales all gradients down so their global L2 norm is at
// most maxNorm (the paper trains with max gradient 0.5). It returns the
// pre-clip norm.
func ClipGradients(grads [][]float64, maxNorm float64) float64 {
	sq := 0.0
	for _, g := range grads {
		for _, v := range g {
			sq += v * v
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, g := range grads {
			for i := range g {
				g[i] *= scale
			}
		}
	}
	return norm
}
