package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRowKernelBitIdentical table-tests the single-row layer kernel
// under every dispatch configuration this machine supports (AVX-512,
// AVX2, generic) against the scalar row-major reference, comparing
// Float64bits. The output widths hit every block size and tail of every
// path; guard values past the end of y catch stores beyond the layer.
func TestRowKernelBitIdentical(t *testing.T) {
	defer func(avx2, avx512 bool) { useAVX2, useAVX512 = avx2, avx512 }(useAVX2, useAVX512)
	configs := []struct {
		name         string
		avx2, avx512 bool
	}{{"generic", false, false}}
	if cpuHasAVX2() {
		configs = append(configs, struct {
			name         string
			avx2, avx512 bool
		}{"avx2", true, false})
	}
	if cpuHasAVX512() {
		configs = append(configs, struct {
			name         string
			avx2, avx512 bool
		}{"avx512", true, true})
	}
	rng := rand.New(rand.NewSource(23))
	const guard = 9
	for _, in := range []int{1, 16, 256} {
		for _, out := range []int{1, 3, 4, 5, 8, 9, 31, 32, 33, 171, 256} {
			d := newDense(rng, in, out)
			for o := range d.b {
				d.b[o] = rng.NormFloat64()
			}
			x := make([]float64, in)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			m := &MLP{sizes: []int{in, out}, layers: []*dense{d}}
			want := refForward(m, x)
			for _, cfg := range configs {
				t.Run(fmt.Sprintf("%s/in=%d/out=%d", cfg.name, in, out), func(t *testing.T) {
					useAVX2, useAVX512 = cfg.avx2, cfg.avx512
					y := make([]float64, out+guard)
					for o := out; o < len(y); o++ {
						y[o] = -7
					}
					d.forward(x, y[:out])
					for o := range want {
						if math.Float64bits(y[o]) != math.Float64bits(want[o]) {
							t.Fatalf("output %d = %v, scalar reference %v", o, y[o], want[o])
						}
					}
					for o := out; o < len(y); o++ {
						if y[o] != -7 {
							t.Fatalf("kernel wrote past the layer: y[%d] = %v", o, y[o])
						}
					}
				})
			}
		}
	}
}
