// Single-row forward kernels over the transposed weights wt[i*stride+o].
// Each output o accumulates
//   acc[o] += wt[i*stride+o] * x[i]   for i = 0..n-1, in ascending i,
// with a separate multiply and add per step (two roundings, no FMA), so
// every output equals the scalar row-major dot product bit-for-bit. The
// kernels differ only in how many outputs they keep in registers.

#include "textflag.h"

// MULADD multiplies one weight block by the broadcast input in BCAST and
// adds it into the accumulator ACC.
#define MULADD(off, BCAST, TMP, ACC) \
	VMULPD off(SI), BCAST, TMP; \
	VADDPD TMP, ACC, ACC

// func cols128MulAdd512(wt *float64, stride int, x *float64, n int, acc *float64)
// AVX-512: 128 outputs in 16 zmm accumulators.
TEXT ·cols128MulAdd512(SB), NOSPLIT, $0-40
	MOVQ wt+0(FP), SI
	MOVQ stride+8(FP), BX
	SHLQ $3, BX
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ acc+32(FP), DI
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	VMOVUPD 512(DI), Z8
	VMOVUPD 576(DI), Z9
	VMOVUPD 640(DI), Z10
	VMOVUPD 704(DI), Z11
	VMOVUPD 768(DI), Z12
	VMOVUPD 832(DI), Z13
	VMOVUPD 896(DI), Z14
	VMOVUPD 960(DI), Z15
	TESTQ CX, CX
	JZ   done128
loop128:
	VBROADCASTSD (DX), Z16
	MULADD(0, Z16, Z17, Z0)
	MULADD(64, Z16, Z18, Z1)
	MULADD(128, Z16, Z19, Z2)
	MULADD(192, Z16, Z20, Z3)
	MULADD(256, Z16, Z21, Z4)
	MULADD(320, Z16, Z22, Z5)
	MULADD(384, Z16, Z23, Z6)
	MULADD(448, Z16, Z24, Z7)
	MULADD(512, Z16, Z17, Z8)
	MULADD(576, Z16, Z18, Z9)
	MULADD(640, Z16, Z19, Z10)
	MULADD(704, Z16, Z20, Z11)
	MULADD(768, Z16, Z21, Z12)
	MULADD(832, Z16, Z22, Z13)
	MULADD(896, Z16, Z23, Z14)
	MULADD(960, Z16, Z24, Z15)
	ADDQ BX, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  loop128
done128:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	VMOVUPD Z12, 768(DI)
	VMOVUPD Z13, 832(DI)
	VMOVUPD Z14, 896(DI)
	VMOVUPD Z15, 960(DI)
	VZEROUPPER
	RET

// func cols8MulAdd512(wt *float64, stride int, x *float64, n int, acc *float64, mask int)
// AVX-512: up to 8 outputs in one zmm, lane j active when mask bit j is
// set. Masked-off lanes are neither loaded nor stored, so the kernel may
// run at the end of a slice.
TEXT ·cols8MulAdd512(SB), NOSPLIT, $0-48
	MOVQ wt+0(FP), SI
	MOVQ stride+8(FP), BX
	SHLQ $3, BX
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ acc+32(FP), DI
	MOVQ mask+40(FP), AX
	KMOVW AX, K1
	VMOVUPD.Z (DI), K1, Z0
	TESTQ CX, CX
	JZ   done8
loop8:
	VBROADCASTSD (DX), Z1
	VMOVUPD.Z (SI), K1, Z2
	VMULPD Z2, Z1, Z3
	VADDPD Z3, Z0, Z0
	ADDQ BX, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  loop8
done8:
	VMOVUPD Z0, K1, (DI)
	VZEROUPPER
	RET

// func cols32MulAdd(wt *float64, stride int, x *float64, n int, acc *float64)
// AVX2: 32 outputs in 8 ymm accumulators.
TEXT ·cols32MulAdd(SB), NOSPLIT, $0-40
	MOVQ wt+0(FP), SI
	MOVQ stride+8(FP), BX
	SHLQ $3, BX
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ acc+32(FP), DI
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	TESTQ CX, CX
	JZ   done32
loop32:
	VBROADCASTSD (DX), Y8
	MULADD(0, Y8, Y9, Y0)
	MULADD(32, Y8, Y10, Y1)
	MULADD(64, Y8, Y11, Y2)
	MULADD(96, Y8, Y12, Y3)
	MULADD(128, Y8, Y13, Y4)
	MULADD(160, Y8, Y14, Y5)
	MULADD(192, Y8, Y15, Y6)
	MULADD(224, Y8, Y9, Y7)
	ADDQ BX, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  loop32
done32:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func cols4MulAdd(wt *float64, stride int, x *float64, n int, acc *float64)
// AVX2: 4 outputs in one ymm.
TEXT ·cols4MulAdd(SB), NOSPLIT, $0-40
	MOVQ wt+0(FP), SI
	MOVQ stride+8(FP), BX
	SHLQ $3, BX
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ acc+32(FP), DI
	VMOVUPD (DI), Y0
	TESTQ CX, CX
	JZ   done4
loop4:
	VBROADCASTSD (DX), Y1
	MULADD(0, Y1, Y2, Y0)
	ADDQ BX, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  loop4
done4:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET
