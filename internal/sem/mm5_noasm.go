//go:build !amd64 || purego

package sem

// Portable fallbacks for the batched microkernel primitives: identical
// arithmetic (and therefore bitwise-identical results) to the amd64 asm
// kernels. The `purego` build tag selects this path on amd64 too, so
// the no-asm fallback is CI-testable on any runner.

func mul5(dst, src, d []float64, n, blocks int) { mm5go(dst, src, d, n, blocks) }

func mul5acc(dst, src, d []float64, n, blocks int) { mm5accgo(dst, src, d, n, blocks) }

func elStress8(g, cst, w []float64) { elStressN(g, cst, w, 125) }

func acStress8(f, cst, w []float64) { acStressN(f, cst, w, 125) }
