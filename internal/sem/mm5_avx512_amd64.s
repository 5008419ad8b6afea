//go:build !purego

#include "textflag.h"

// AVX-512 (8-lane) tier of the batched deg=4 microkernels: one ZMM
// register spans a full batchB=8 SoA block, so the stress kernels lose
// their lane loop entirely. Same contracts and per-lane floating-point
// chains as the AVX2 tier and the pure-Go references — ascending-m
// sums, one rounding per add, no FMA — so results are bitwise-identical
// at every width. Requires AVX512F; selected at runtime by
// simd_amd64.go.

// func mm5avx512(dst, src, d *float64, n, blocks int)
TEXT ·mm5avx512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, AX
	SHLQ $3, AX        // row stride in bytes
	MOVQ SI, R8        // src rows m = 0..4
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	MOVQ CX, R14
	SUBQ $16, R14      // hex-loop bound: j <= n-16
	MOVQ CX, R15
	SUBQ $8, R15       // oct-loop bound: j <= n-8
	MOVQ blocks+32(FP), SI

a5block:
	MOVQ $5, R13       // output rows left in this block

a5row:
	// Broadcast the five coefficients of this output row.
	VBROADCASTSD 0(DX), Z0
	VBROADCASTSD 8(DX), Z1
	VBROADCASTSD 16(DX), Z2
	VBROADCASTSD 24(DX), Z3
	VBROADCASTSD 32(DX), Z4
	XORQ BX, BX        // j

a5hex:
	CMPQ BX, R14
	JG   a5oct
	VMOVUPD (R8)(BX*8), Z8
	VMULPD Z0, Z8, Z8
	VMOVUPD 64(R8)(BX*8), Z12
	VMULPD Z0, Z12, Z12
	VMOVUPD (R9)(BX*8), Z9
	VMULPD Z1, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD 64(R9)(BX*8), Z13
	VMULPD Z1, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMOVUPD (R10)(BX*8), Z10
	VMULPD Z2, Z10, Z10
	VADDPD Z10, Z8, Z8
	VMOVUPD 64(R10)(BX*8), Z14
	VMULPD Z2, Z14, Z14
	VADDPD Z14, Z12, Z12
	VMOVUPD (R11)(BX*8), Z11
	VMULPD Z3, Z11, Z11
	VADDPD Z11, Z8, Z8
	VMOVUPD 64(R11)(BX*8), Z15
	VMULPD Z3, Z15, Z15
	VADDPD Z15, Z12, Z12
	VMOVUPD (R12)(BX*8), Z9
	VMULPD Z4, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD 64(R12)(BX*8), Z13
	VMULPD Z4, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMOVUPD Z8, (DI)(BX*8)
	VMOVUPD Z12, 64(DI)(BX*8)
	ADDQ $16, BX
	JMP  a5hex

a5oct:
	CMPQ BX, R15
	JG   a5tail
	VMOVUPD (R8)(BX*8), Z8
	VMULPD Z0, Z8, Z8
	VMOVUPD (R9)(BX*8), Z9
	VMULPD Z1, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD (R10)(BX*8), Z10
	VMULPD Z2, Z10, Z10
	VADDPD Z10, Z8, Z8
	VMOVUPD (R11)(BX*8), Z11
	VMULPD Z3, Z11, Z11
	VADDPD Z11, Z8, Z8
	VMOVUPD (R12)(BX*8), Z9
	VMULPD Z4, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD Z8, (DI)(BX*8)
	ADDQ $8, BX
	JMP  a5oct

a5tail:
	CMPQ BX, CX
	JGE  a5next
	VMOVSD (R8)(BX*8), X8
	VMULSD X0, X8, X8
	VMOVSD (R9)(BX*8), X9
	VMULSD X1, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R10)(BX*8), X10
	VMULSD X2, X10, X10
	VADDSD X10, X8, X8
	VMOVSD (R11)(BX*8), X11
	VMULSD X3, X11, X11
	VADDSD X11, X8, X8
	VMOVSD (R12)(BX*8), X9
	VMULSD X4, X9, X9
	VADDSD X9, X8, X8
	VMOVSD X8, (DI)(BX*8)
	INCQ BX
	JMP  a5tail

a5next:
	ADDQ AX, DI        // next dst row
	ADDQ $40, DX       // next coefficient row
	DECQ R13
	JNZ  a5row
	// Next block: dst already advanced 5 rows; advance the src row
	// pointers by 5 rows and rewind the coefficient pointer.
	LEAQ (AX)(AX*4), DX
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ DX, R12
	MOVQ d+16(FP), DX
	DECQ SI
	JNZ  a5block
	VZEROUPPER
	RET

// func mm5accavx512(dst, src, d *float64, n, blocks int)
TEXT ·mm5accavx512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, AX
	SHLQ $3, AX
	MOVQ SI, R8
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	MOVQ CX, R14
	SUBQ $16, R14
	MOVQ CX, R15
	SUBQ $8, R15
	MOVQ blocks+32(FP), SI

c5block:
	MOVQ $5, R13

c5row:
	VBROADCASTSD 0(DX), Z0
	VBROADCASTSD 8(DX), Z1
	VBROADCASTSD 16(DX), Z2
	VBROADCASTSD 24(DX), Z3
	VBROADCASTSD 32(DX), Z4
	XORQ BX, BX

c5hex:
	CMPQ BX, R14
	JG   c5oct
	VMOVUPD (DI)(BX*8), Z8
	VMOVUPD 64(DI)(BX*8), Z12
	VMOVUPD (R8)(BX*8), Z9
	VMULPD Z0, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD 64(R8)(BX*8), Z13
	VMULPD Z0, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMOVUPD (R9)(BX*8), Z10
	VMULPD Z1, Z10, Z10
	VADDPD Z10, Z8, Z8
	VMOVUPD 64(R9)(BX*8), Z14
	VMULPD Z1, Z14, Z14
	VADDPD Z14, Z12, Z12
	VMOVUPD (R10)(BX*8), Z11
	VMULPD Z2, Z11, Z11
	VADDPD Z11, Z8, Z8
	VMOVUPD 64(R10)(BX*8), Z15
	VMULPD Z2, Z15, Z15
	VADDPD Z15, Z12, Z12
	VMOVUPD (R11)(BX*8), Z9
	VMULPD Z3, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD 64(R11)(BX*8), Z13
	VMULPD Z3, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMOVUPD (R12)(BX*8), Z10
	VMULPD Z4, Z10, Z10
	VADDPD Z10, Z8, Z8
	VMOVUPD 64(R12)(BX*8), Z14
	VMULPD Z4, Z14, Z14
	VADDPD Z14, Z12, Z12
	VMOVUPD Z8, (DI)(BX*8)
	VMOVUPD Z12, 64(DI)(BX*8)
	ADDQ $16, BX
	JMP  c5hex

c5oct:
	CMPQ BX, R15
	JG   c5tail
	VMOVUPD (DI)(BX*8), Z8
	VMOVUPD (R8)(BX*8), Z9
	VMULPD Z0, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD (R9)(BX*8), Z10
	VMULPD Z1, Z10, Z10
	VADDPD Z10, Z8, Z8
	VMOVUPD (R10)(BX*8), Z11
	VMULPD Z2, Z11, Z11
	VADDPD Z11, Z8, Z8
	VMOVUPD (R11)(BX*8), Z9
	VMULPD Z3, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD (R12)(BX*8), Z10
	VMULPD Z4, Z10, Z10
	VADDPD Z10, Z8, Z8
	VMOVUPD Z8, (DI)(BX*8)
	ADDQ $8, BX
	JMP  c5oct

c5tail:
	CMPQ BX, CX
	JGE  c5next
	VMOVSD (DI)(BX*8), X8
	VMOVSD (R8)(BX*8), X9
	VMULSD X0, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R9)(BX*8), X10
	VMULSD X1, X10, X10
	VADDSD X10, X8, X8
	VMOVSD (R10)(BX*8), X11
	VMULSD X2, X11, X11
	VADDSD X11, X8, X8
	VMOVSD (R11)(BX*8), X9
	VMULSD X3, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R12)(BX*8), X10
	VMULSD X4, X10, X10
	VADDSD X10, X8, X8
	VMOVSD X8, (DI)(BX*8)
	INCQ BX
	JMP  c5tail

c5next:
	ADDQ AX, DI
	ADDQ $40, DX
	DECQ R13
	JNZ  c5row
	LEAQ (AX)(AX*4), DX
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ DX, R12
	MOVQ d+16(FP), DX
	DECQ SI
	JNZ  c5block
	VZEROUPPER
	RET

// func elStress8avx512(gp, cst, w *float64)
//
// AVX-512 twin of elStressN: one ZMM register holds all 8 lanes of a
// quadrature point, so the per-point pass is straight-line code.
TEXT ·elStress8avx512(SB), NOSPLIT, $0-24
	MOVQ gp+0(FP), DI
	MOVQ cst+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ $125, CX

e5q:
	// Broadcast wa and wbc of this quadrature point.
	VBROADCASTSD 0(DX), Z0
	VBROADCASTSD 8(DX), Z1
	VMOVUPD (SI), Z2           // ax
	VMOVUPD 64(SI), Z3         // ay
	VMOVUPD 128(SI), Z4        // az
	// wbc = wbc0·jdet ; wq = wa·wbc ; wx/wy/wz = wq·a{x,y,z}
	VMOVUPD 192(SI), Z5        // jdet
	VMULPD Z1, Z5, Z5          // wbc
	VMULPD Z0, Z5, Z5          // wq
	VMOVAPD Z5, Z6
	VMULPD Z2, Z6, Z6          // wx
	VMOVAPD Z5, Z7
	VMULPD Z3, Z7, Z7          // wy
	VMULPD Z4, Z5, Z5          // wz
	VMOVUPD 256(SI), Z9        // lam
	VMOVUPD 320(SI), Z10       // mu
	VMOVAPD Z10, Z11
	VADDPD Z10, Z11, Z11       // 2mu
	// Diagonal: v00 = ax·g00, v11 = ay·g11, v22 = az·g22,
	// tr = (v00+v11)+v22, lt = lam·tr, tkk = w·(2mu·vkk + lt).
	VMOVUPD (DI), Z12
	VMULPD Z2, Z12, Z12
	VMOVUPD 32000(DI), Z13
	VMULPD Z3, Z13, Z13
	VMOVUPD 64000(DI), Z14
	VMULPD Z4, Z14, Z14
	VMOVAPD Z12, Z15
	VADDPD Z13, Z15, Z15
	VADDPD Z14, Z15, Z15       // tr
	VMULPD Z15, Z9, Z9         // lt = lam·tr
	VMULPD Z11, Z12, Z12
	VADDPD Z9, Z12, Z12
	VMULPD Z6, Z12, Z12
	VMOVUPD Z12, (DI)          // t0
	VMULPD Z11, Z13, Z13
	VADDPD Z9, Z13, Z13
	VMULPD Z7, Z13, Z13
	VMOVUPD Z13, 32000(DI)     // t4
	VMULPD Z11, Z14, Z14
	VADDPD Z9, Z14, Z14
	VMULPD Z5, Z14, Z14
	VMOVUPD Z14, 64000(DI)     // t8
	// Shear xy: sxy = mu·(ay·g01 + ax·g10); t1 = wy·sxy, t3 = wx·sxy.
	VMOVUPD 8000(DI), Z12
	VMULPD Z3, Z12, Z12
	VMOVUPD 24000(DI), Z13
	VMULPD Z2, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMULPD Z10, Z12, Z12
	VMOVAPD Z12, Z14
	VMULPD Z7, Z14, Z14
	VMOVUPD Z14, 8000(DI)      // t1
	VMULPD Z6, Z12, Z12
	VMOVUPD Z12, 24000(DI)     // t3
	// Shear xz: sxz = mu·(az·g02 + ax·g20); t2 = wz·sxz, t6 = wx·sxz.
	VMOVUPD 16000(DI), Z12
	VMULPD Z4, Z12, Z12
	VMOVUPD 48000(DI), Z13
	VMULPD Z2, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMULPD Z10, Z12, Z12
	VMOVAPD Z12, Z14
	VMULPD Z5, Z14, Z14
	VMOVUPD Z14, 16000(DI)     // t2
	VMULPD Z6, Z12, Z12
	VMOVUPD Z12, 48000(DI)     // t6
	// Shear yz: syz = mu·(az·g12 + ay·g21); t5 = wz·syz, t7 = wy·syz.
	VMOVUPD 40000(DI), Z12
	VMULPD Z4, Z12, Z12
	VMOVUPD 56000(DI), Z13
	VMULPD Z3, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMULPD Z10, Z12, Z12
	VMOVAPD Z12, Z14
	VMULPD Z5, Z14, Z14
	VMOVUPD Z14, 40000(DI)     // t5
	VMULPD Z7, Z12, Z12
	VMOVUPD Z12, 56000(DI)     // t7
	ADDQ $64, DI       // next quadrature point (8 lanes)
	ADDQ $16, DX       // next (wa, wbc) pair
	DECQ CX
	JNZ  e5q
	VZEROUPPER
	RET

// func acStress8avx512(fp, cst, w *float64)
//
// AVX-512 twin of acStressN: the metric rows are loop-invariant, but
// the weight chain ((s·wa)·wbc) is per-point, matching the scalar
// kernel's rounding order exactly.
TEXT ·acStress8avx512(SB), NOSPLIT, $0-24
	MOVQ fp+0(FP), DI
	MOVQ cst+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ $125, CX
	VMOVUPD (SI), Z8           // sx
	VMOVUPD 64(SI), Z9         // sy
	VMOVUPD 128(SI), Z10       // sz

p5q:
	VBROADCASTSD 0(DX), Z0
	VBROADCASTSD 8(DX), Z1
	VMOVAPD Z8, Z2
	VMULPD Z0, Z2, Z2
	VMULPD Z1, Z2, Z2
	VMOVUPD (DI), Z5
	VMULPD Z2, Z5, Z5
	VMOVUPD Z5, (DI)
	VMOVAPD Z9, Z3
	VMULPD Z0, Z3, Z3
	VMULPD Z1, Z3, Z3
	VMOVUPD 8000(DI), Z6
	VMULPD Z3, Z6, Z6
	VMOVUPD Z6, 8000(DI)
	VMOVAPD Z10, Z4
	VMULPD Z0, Z4, Z4
	VMULPD Z1, Z4, Z4
	VMOVUPD 16000(DI), Z7
	VMULPD Z4, Z7, Z7
	VMOVUPD Z7, 16000(DI)
	ADDQ $64, DI
	ADDQ $16, DX
	DECQ CX
	JNZ  p5q
	VZEROUPPER
	RET
