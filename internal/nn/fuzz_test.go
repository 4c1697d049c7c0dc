package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzLoad drives the checkpoint decoder with malformed input. The seed
// corpus covers the failure classes the validator must catch (truncation,
// shape mismatches, non-finite and non-positive sizes); `go test` replays
// it as a regression suite, `go test -fuzz=FuzzLoad` explores further.
// The invariant: Load either errors or returns a network whose forward
// pass on a zero input is finite and correctly shaped, and whose forward
// pass on a fixed non-zero input equals the scalar reference
// bit-for-bit (the loaded transposed weights match the loaded w).
func FuzzLoad(f *testing.F) {
	// A valid 2-3-2 checkpoint as the happy-path seed.
	var valid bytes.Buffer
	if err := NewMLP(rand.New(rand.NewSource(1)), 2, 3, 2).Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"sizes":[2],"weights":[]}`))
	f.Add([]byte(`{"sizes":[2,3],"weights":[[1,2,3,4,5,6]]}`))
	f.Add([]byte(`{"sizes":[2,3],"weights":[[1,2,3,4,5],[0,0,0]]}`))
	f.Add([]byte(`{"sizes":[0,0],"weights":[[],[]]}`))
	f.Add([]byte(`{"sizes":[-1,0],"weights":[[],[]]}`))
	f.Add([]byte(`{"sizes":[2,1],"weights":[[1,null],[0]]}`))
	f.Add([]byte(`{"sizes":[1,1],"weights":[[1e999],[0]]}`))
	f.Add([]byte(`{"sizes":[1,16777217],"weights":[[],[]]}`))
	// Valid checkpoints wide enough to reach every vector block size of
	// the row kernel (128, 32, 8 and a masked tail).
	for _, sizes := range [][]int{{3, 40, 9}, {2, 130, 1}} {
		var wide bytes.Buffer
		if err := NewMLP(rand.New(rand.NewSource(2)), sizes...).Save(&wide); err != nil {
			f.Fatal(err)
		}
		f.Add(wide.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Huge size vectors make the decoder allocate before validation
		// can reject; bound the input like any sane checkpoint reader.
		if len(data) > 1<<16 {
			return
		}
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("Load returned both a network and error %v", err)
			}
			return
		}
		if m.InputSize() <= 0 || m.OutputSize() <= 0 {
			t.Fatalf("Load accepted degenerate shape %v from %q", m.sizes, data)
		}
		out := m.Forward(make([]float64, m.InputSize()))
		if len(out) != m.OutputSize() {
			t.Fatalf("forward output %d, want %d", len(out), m.OutputSize())
		}
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted checkpoint produces non-finite output %v (input %q)", v, data)
			}
		}
		x := make([]float64, m.InputSize())
		for i := range x {
			x[i] = math.Sin(float64(i + 1))
		}
		got, want := m.Forward(x), refForward(m, x)
		for o := range want {
			if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
				t.Fatalf("forward output %d = %v, scalar reference %v (input %q)", o, got[o], want[o], data)
			}
		}
	})
}

// TestLoadRejectsDegenerateSizes pins the size validation the fuzz
// corpus exercises: each malformed document must produce a decode error,
// not a loadable network.
func TestLoadRejectsDegenerateSizes(t *testing.T) {
	for _, doc := range []string{
		`{"sizes":[0,0],"weights":[[],[]]}`,
		`{"sizes":[-1,0],"weights":[[],[]]}`,
		`{"sizes":[2,-2],"weights":[[],[]]}`,
		`{"sizes":[1,16777217],"weights":[[],[]]}`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("Load accepted %s", doc)
		}
	}
}
