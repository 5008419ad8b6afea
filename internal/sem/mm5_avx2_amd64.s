//go:build !purego

#include "textflag.h"

// AVX2 (4-lane) tier of the batched deg=4 microkernels. Same contracts
// and — crucially — the same per-lane floating-point chains as the
// pure-Go references in mm5.go and the AVX-512 tier: products are
// summed in ascending m with one rounding per add, the SIMD width runs
// across independent batch lanes only, and no FMA contraction is used
// anywhere, so every lane is bitwise-identical to the scalar path.
// Selected at runtime by the dispatch table in simd_amd64.go.

// func mm5avx2(dst, src, d *float64, n, blocks int)
TEXT ·mm5avx2(SB), NOSPLIT, $0-40
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
	SUBQ $8, R14       // oct-loop bound: j <= n-8
	MOVQ CX, R15
	SUBQ $4, R15       // quad-loop bound: j <= n-4
	MOVQ blocks+32(FP), SI

a2block:
	MOVQ $5, R13       // output rows left in this block

a2row:
	// Broadcast the five coefficients of this output row.
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	VBROADCASTSD 32(DX), Y4
	XORQ BX, BX        // j

a2oct:
	CMPQ BX, R14
	JG   a2quad
	VMOVUPD (R8)(BX*8), Y8
	VMULPD Y0, Y8, Y8
	VMOVUPD 32(R8)(BX*8), Y12
	VMULPD Y0, Y12, Y12
	VMOVUPD (R9)(BX*8), Y9
	VMULPD Y1, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD 32(R9)(BX*8), Y13
	VMULPD Y1, Y13, Y13
	VADDPD Y13, Y12, Y12
	VMOVUPD (R10)(BX*8), Y10
	VMULPD Y2, Y10, Y10
	VADDPD Y10, Y8, Y8
	VMOVUPD 32(R10)(BX*8), Y14
	VMULPD Y2, Y14, Y14
	VADDPD Y14, Y12, Y12
	VMOVUPD (R11)(BX*8), Y11
	VMULPD Y3, Y11, Y11
	VADDPD Y11, Y8, Y8
	VMOVUPD 32(R11)(BX*8), Y15
	VMULPD Y3, Y15, Y15
	VADDPD Y15, Y12, Y12
	VMOVUPD (R12)(BX*8), Y9
	VMULPD Y4, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD 32(R12)(BX*8), Y13
	VMULPD Y4, Y13, Y13
	VADDPD Y13, Y12, Y12
	VMOVUPD Y8, (DI)(BX*8)
	VMOVUPD Y12, 32(DI)(BX*8)
	ADDQ $8, BX
	JMP  a2oct

a2quad:
	CMPQ BX, R15
	JG   a2tail
	VMOVUPD (R8)(BX*8), Y8
	VMULPD Y0, Y8, Y8
	VMOVUPD (R9)(BX*8), Y9
	VMULPD Y1, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R10)(BX*8), Y10
	VMULPD Y2, Y10, Y10
	VADDPD Y10, Y8, Y8
	VMOVUPD (R11)(BX*8), Y11
	VMULPD Y3, Y11, Y11
	VADDPD Y11, Y8, Y8
	VMOVUPD (R12)(BX*8), Y9
	VMULPD Y4, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD Y8, (DI)(BX*8)
	ADDQ $4, BX
	JMP  a2quad

a2tail:
	CMPQ BX, CX
	JGE  a2next
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
	JMP  a2tail

a2next:
	ADDQ AX, DI        // next dst row
	ADDQ $40, DX       // next coefficient row
	DECQ R13
	JNZ  a2row
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
	JNZ  a2block
	VZEROUPPER
	RET

// func mm5accavx2(dst, src, d *float64, n, blocks int)
TEXT ·mm5accavx2(SB), NOSPLIT, $0-40
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
	SUBQ $8, R14
	MOVQ CX, R15
	SUBQ $4, R15
	MOVQ blocks+32(FP), SI

c2block:
	MOVQ $5, R13

c2row:
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	VBROADCASTSD 32(DX), Y4
	XORQ BX, BX

c2oct:
	CMPQ BX, R14
	JG   c2quad
	VMOVUPD (DI)(BX*8), Y8
	VMOVUPD 32(DI)(BX*8), Y12
	VMOVUPD (R8)(BX*8), Y9
	VMULPD Y0, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD 32(R8)(BX*8), Y13
	VMULPD Y0, Y13, Y13
	VADDPD Y13, Y12, Y12
	VMOVUPD (R9)(BX*8), Y10
	VMULPD Y1, Y10, Y10
	VADDPD Y10, Y8, Y8
	VMOVUPD 32(R9)(BX*8), Y14
	VMULPD Y1, Y14, Y14
	VADDPD Y14, Y12, Y12
	VMOVUPD (R10)(BX*8), Y11
	VMULPD Y2, Y11, Y11
	VADDPD Y11, Y8, Y8
	VMOVUPD 32(R10)(BX*8), Y15
	VMULPD Y2, Y15, Y15
	VADDPD Y15, Y12, Y12
	VMOVUPD (R11)(BX*8), Y9
	VMULPD Y3, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD 32(R11)(BX*8), Y13
	VMULPD Y3, Y13, Y13
	VADDPD Y13, Y12, Y12
	VMOVUPD (R12)(BX*8), Y10
	VMULPD Y4, Y10, Y10
	VADDPD Y10, Y8, Y8
	VMOVUPD 32(R12)(BX*8), Y14
	VMULPD Y4, Y14, Y14
	VADDPD Y14, Y12, Y12
	VMOVUPD Y8, (DI)(BX*8)
	VMOVUPD Y12, 32(DI)(BX*8)
	ADDQ $8, BX
	JMP  c2oct

c2quad:
	CMPQ BX, R15
	JG   c2tail
	VMOVUPD (DI)(BX*8), Y8
	VMOVUPD (R8)(BX*8), Y9
	VMULPD Y0, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R9)(BX*8), Y10
	VMULPD Y1, Y10, Y10
	VADDPD Y10, Y8, Y8
	VMOVUPD (R10)(BX*8), Y11
	VMULPD Y2, Y11, Y11
	VADDPD Y11, Y8, Y8
	VMOVUPD (R11)(BX*8), Y9
	VMULPD Y3, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R12)(BX*8), Y10
	VMULPD Y4, Y10, Y10
	VADDPD Y10, Y8, Y8
	VMOVUPD Y8, (DI)(BX*8)
	ADDQ $4, BX
	JMP  c2quad

c2tail:
	CMPQ BX, CX
	JGE  c2next
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
	JMP  c2tail

c2next:
	ADDQ AX, DI
	ADDQ $40, DX
	DECQ R13
	JNZ  c2row
	LEAQ (AX)(AX*4), DX
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ DX, R12
	MOVQ d+16(FP), DX
	DECQ SI
	JNZ  c2block
	VZEROUPPER
	RET

// func elStress8avx2(gp, cst, w *float64)
//
// AVX2 twin of elStressN: the same layout (9 gradient planes of
// 125×8 values at plane stride 8000 bytes, 8 rows of per-element
// constants, 125 interleaved (w[a], w[b]·w[c]) pairs) with the 8-lane
// loop run as two 4-lane halves.
TEXT ·elStress8avx2(SB), NOSPLIT, $0-24
	MOVQ gp+0(FP), DI
	MOVQ cst+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ $125, CX

e2q:
	// Broadcast wa and wbc of this quadrature point.
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	XORQ BX, BX        // lane

e2lane:
	VMOVUPD (SI)(BX*8), Y2     // ax
	VMOVUPD 64(SI)(BX*8), Y3   // ay
	VMOVUPD 128(SI)(BX*8), Y4  // az
	// wbc = wbc0·jdet ; wq = wa·wbc ; wx/wy/wz = wq·a{x,y,z}
	VMOVUPD 192(SI)(BX*8), Y5  // jdet
	VMULPD Y1, Y5, Y5          // wbc
	VMULPD Y0, Y5, Y5          // wq
	VMOVAPD Y5, Y6
	VMULPD Y2, Y6, Y6          // wx
	VMOVAPD Y5, Y7
	VMULPD Y3, Y7, Y7          // wy
	VMULPD Y4, Y5, Y5          // wz
	VMOVUPD 256(SI)(BX*8), Y9  // lam
	VMOVUPD 320(SI)(BX*8), Y10 // mu
	VMOVAPD Y10, Y11
	VADDPD Y10, Y11, Y11       // 2mu
	// Diagonal: v00 = ax·g00, v11 = ay·g11, v22 = az·g22,
	// tr = (v00+v11)+v22, lt = lam·tr, tkk = w·(2mu·vkk + lt).
	VMOVUPD (DI)(BX*8), Y12
	VMULPD Y2, Y12, Y12
	VMOVUPD 32000(DI)(BX*8), Y13
	VMULPD Y3, Y13, Y13
	VMOVUPD 64000(DI)(BX*8), Y14
	VMULPD Y4, Y14, Y14
	VMOVAPD Y12, Y15
	VADDPD Y13, Y15, Y15
	VADDPD Y14, Y15, Y15       // tr
	VMULPD Y15, Y9, Y9         // lt = lam·tr
	VMULPD Y11, Y12, Y12
	VADDPD Y9, Y12, Y12
	VMULPD Y6, Y12, Y12
	VMOVUPD Y12, (DI)(BX*8)    // t0
	VMULPD Y11, Y13, Y13
	VADDPD Y9, Y13, Y13
	VMULPD Y7, Y13, Y13
	VMOVUPD Y13, 32000(DI)(BX*8) // t4
	VMULPD Y11, Y14, Y14
	VADDPD Y9, Y14, Y14
	VMULPD Y5, Y14, Y14
	VMOVUPD Y14, 64000(DI)(BX*8) // t8
	// Shear xy: sxy = mu·(ay·g01 + ax·g10); t1 = wy·sxy, t3 = wx·sxy.
	VMOVUPD 8000(DI)(BX*8), Y12
	VMULPD Y3, Y12, Y12
	VMOVUPD 24000(DI)(BX*8), Y13
	VMULPD Y2, Y13, Y13
	VADDPD Y13, Y12, Y12
	VMULPD Y10, Y12, Y12
	VMOVAPD Y12, Y14
	VMULPD Y7, Y14, Y14
	VMOVUPD Y14, 8000(DI)(BX*8)  // t1
	VMULPD Y6, Y12, Y12
	VMOVUPD Y12, 24000(DI)(BX*8) // t3
	// Shear xz: sxz = mu·(az·g02 + ax·g20); t2 = wz·sxz, t6 = wx·sxz.
	VMOVUPD 16000(DI)(BX*8), Y12
	VMULPD Y4, Y12, Y12
	VMOVUPD 48000(DI)(BX*8), Y13
	VMULPD Y2, Y13, Y13
	VADDPD Y13, Y12, Y12
	VMULPD Y10, Y12, Y12
	VMOVAPD Y12, Y14
	VMULPD Y5, Y14, Y14
	VMOVUPD Y14, 16000(DI)(BX*8) // t2
	VMULPD Y6, Y12, Y12
	VMOVUPD Y12, 48000(DI)(BX*8) // t6
	// Shear yz: syz = mu·(az·g12 + ay·g21); t5 = wz·syz, t7 = wy·syz.
	VMOVUPD 40000(DI)(BX*8), Y12
	VMULPD Y4, Y12, Y12
	VMOVUPD 56000(DI)(BX*8), Y13
	VMULPD Y3, Y13, Y13
	VADDPD Y13, Y12, Y12
	VMULPD Y10, Y12, Y12
	VMOVAPD Y12, Y14
	VMULPD Y5, Y14, Y14
	VMOVUPD Y14, 40000(DI)(BX*8) // t5
	VMULPD Y7, Y12, Y12
	VMOVUPD Y12, 56000(DI)(BX*8) // t7
	ADDQ $4, BX
	CMPQ BX, $8
	JL   e2lane
	ADDQ $64, DI       // next quadrature point (8 lanes)
	ADDQ $16, DX       // next (wa, wbc) pair
	DECQ CX
	JNZ  e2q
	VZEROUPPER
	RET

// func acStress8avx2(fp, cst, w *float64)
//
// AVX2 twin of acStressN: 3 derivative planes rescaled in place by
// the premultiplied metric factors and quadrature weights, two 4-lane
// halves per quadrature point.
TEXT ·acStress8avx2(SB), NOSPLIT, $0-24
	MOVQ fp+0(FP), DI
	MOVQ cst+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ $125, CX

p2q:
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	XORQ BX, BX

p2lane:
	VMOVUPD (SI)(BX*8), Y2
	VMULPD Y0, Y2, Y2
	VMULPD Y1, Y2, Y2
	VMOVUPD (DI)(BX*8), Y5
	VMULPD Y2, Y5, Y5
	VMOVUPD Y5, (DI)(BX*8)
	VMOVUPD 64(SI)(BX*8), Y3
	VMULPD Y0, Y3, Y3
	VMULPD Y1, Y3, Y3
	VMOVUPD 8000(DI)(BX*8), Y6
	VMULPD Y3, Y6, Y6
	VMOVUPD Y6, 8000(DI)(BX*8)
	VMOVUPD 128(SI)(BX*8), Y4
	VMULPD Y0, Y4, Y4
	VMULPD Y1, Y4, Y4
	VMOVUPD 16000(DI)(BX*8), Y7
	VMULPD Y4, Y7, Y7
	VMOVUPD Y7, 16000(DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, $8
	JL   p2lane
	ADDQ $64, DI
	ADDQ $16, DX
	DECQ CX
	JNZ  p2q
	VZEROUPPER
	RET
