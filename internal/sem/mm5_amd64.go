//go:build amd64 && !purego

package sem

// Declarations for the asm microkernels and their tier wrappers. Two
// assembly tiers implement the same four primitives: AVX2 (4-lane,
// mm5_avx2_amd64.s) and AVX-512 (8-lane, mm5_avx512_amd64.s). Both
// vectorise across independent batch lanes only, so every tier is
// bitwise-identical to the pure-Go references in mm5.go; tests pin all
// of them against each other. CPUs without AVX2 run those references.
// Dispatch lives in simd_amd64.go.

//go:noescape
func mm5avx2(dst, src, d *float64, n, blocks int)

//go:noescape
func mm5accavx2(dst, src, d *float64, n, blocks int)

//go:noescape
func elStress8avx2(gp, cst, w *float64)

//go:noescape
func acStress8avx2(fp, cst, w *float64)

//go:noescape
func mm5avx512(dst, src, d *float64, n, blocks int)

//go:noescape
func mm5accavx512(dst, src, d *float64, n, blocks int)

//go:noescape
func elStress8avx512(gp, cst, w *float64)

//go:noescape
func acStress8avx512(fp, cst, w *float64)

// The slice-level tier entries below carry the bounds hints the asm
// kernels rely on; simd_amd64.go binds them into the dispatch table.

func avx2Mul5(dst, src, d []float64, n, blocks int) {
	_ = dst[5*n*blocks-1]
	_ = src[5*n*blocks-1]
	_ = d[24]
	mm5avx2(&dst[0], &src[0], &d[0], n, blocks)
}

func avx2Mul5acc(dst, src, d []float64, n, blocks int) {
	_ = dst[5*n*blocks-1]
	_ = src[5*n*blocks-1]
	_ = d[24]
	mm5accavx2(&dst[0], &src[0], &d[0], n, blocks)
}

func avx512Mul5(dst, src, d []float64, n, blocks int) {
	_ = dst[5*n*blocks-1]
	_ = src[5*n*blocks-1]
	_ = d[24]
	mm5avx512(&dst[0], &src[0], &d[0], n, blocks)
}

func avx512Mul5acc(dst, src, d []float64, n, blocks int) {
	_ = dst[5*n*blocks-1]
	_ = src[5*n*blocks-1]
	_ = d[24]
	mm5accavx512(&dst[0], &src[0], &d[0], n, blocks)
}

func avx2ElStress8(g, cst, w []float64) {
	_ = g[9*125*batchB-1]
	_ = cst[elCstRows*batchB-1]
	_ = w[249]
	elStress8avx2(&g[0], &cst[0], &w[0])
}

func avx2AcStress8(f, cst, w []float64) {
	_ = f[3*125*batchB-1]
	_ = cst[acCstRows*batchB-1]
	_ = w[249]
	acStress8avx2(&f[0], &cst[0], &w[0])
}

func avx512ElStress8(g, cst, w []float64) {
	_ = g[9*125*batchB-1]
	_ = cst[elCstRows*batchB-1]
	_ = w[249]
	elStress8avx512(&g[0], &cst[0], &w[0])
}

func avx512AcStress8(f, cst, w []float64) {
	_ = f[3*125*batchB-1]
	_ = cst[acCstRows*batchB-1]
	_ = w[249]
	acStress8avx512(&f[0], &cst[0], &w[0])
}
