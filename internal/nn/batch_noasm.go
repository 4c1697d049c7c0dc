//go:build !amd64

package nn

// useAVX2/useAVX512 are always false without the amd64 assembly kernels;
// the generic lane and row kernels produce bit-identical results, just
// slower.
const (
	useAVX2   = false
	useAVX512 = false
)

// The kernel stubs are never called when the switches are false; they
// keep the dispatch sites compiling on other architectures.
func lanes16MulAdd(row *float64, n int, xt *float64, acc *float64) {
	panic("nn: assembly kernel unavailable")
}

func lanes16MulAdd2(row0, row1 *float64, n int, xt *float64, acc0, acc1 *float64) {
	panic("nn: assembly kernel unavailable")
}

func cols128MulAdd512(wt *float64, stride int, x *float64, n int, acc *float64) {
	panic("nn: assembly kernel unavailable")
}

func cols8MulAdd512(wt *float64, stride int, x *float64, n int, acc *float64, mask int) {
	panic("nn: assembly kernel unavailable")
}

func cols32MulAdd(wt *float64, stride int, x *float64, n int, acc *float64) {
	panic("nn: assembly kernel unavailable")
}

func cols4MulAdd(wt *float64, stride int, x *float64, n int, acc *float64) {
	panic("nn: assembly kernel unavailable")
}
