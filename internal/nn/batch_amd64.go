package nn

// lanes16MulAdd (batch_amd64.s) accumulates acc[l] += row[i]*xt[i*16+l]
// over i = 0..n-1 for 16 lanes with AVX2, bit-identical per lane to the
// scalar loop (separate multiply and add, ascending i).
func lanes16MulAdd(row *float64, n int, xt *float64, acc *float64)

// lanes16MulAdd2 (batch_amd64.s) is the AVX-512 two-row variant: both
// weight rows accumulate over the same 16 lanes, sharing the xt column
// loads. Bit-identical per (row, lane) to lanes16MulAdd.
func lanes16MulAdd2(row0, row1 *float64, n int, xt *float64, acc0, acc1 *float64)

// The row kernels (row_amd64.s) accumulate
// acc[o] += wt[i*stride+o]*x[i] over i = 0..n-1 for a block of outputs,
// bit-identical per output to the scalar loop (separate multiply and
// add, ascending i). cols128MulAdd512 and cols8MulAdd512 need AVX-512
// (the latter covers the outputs whose bit is set in mask, bits 0..7);
// cols32MulAdd and cols4MulAdd need AVX2.
func cols128MulAdd512(wt *float64, stride int, x *float64, n int, acc *float64)
func cols8MulAdd512(wt *float64, stride int, x *float64, n int, acc *float64, mask int)
func cols32MulAdd(wt *float64, stride int, x *float64, n int, acc *float64)
func cols4MulAdd(wt *float64, stride int, x *float64, n int, acc *float64)

// cpuHasAVX2 and cpuHasAVX512 (batch_amd64.s) detect the vector ISA with
// OS state support (XGETBV).
func cpuHasAVX2() bool
func cpuHasAVX512() bool

// useAVX2/useAVX512 route forwardLanes and dense.forward through the
// fastest available kernels; all kernels produce bit-identical results,
// so the switches are pure dispatch. Variables (not constants) so tests
// can force every path.
var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = cpuHasAVX512()
)
