//go:build amd64 && !purego

package sem

import (
	"os"
	"strings"
)

// Runtime dispatch of the four batched microkernel primitives. The hot
// batch loops (batch3d.go) call mul5/elStress8/... through these
// package-level function variables; applyTier repoints the whole table
// at once. A function-variable call costs nothing measurable next to a
// 5×5×(8..200)-flop kernel body and keeps every call site unchanged.
var (
	mul5v      func(dst, src, d []float64, n, blocks int)
	mul5accv   func(dst, src, d []float64, n, blocks int)
	elStress8v func(g, cst, w []float64)
	acStress8v func(f, cst, w []float64)
)

// mul5 computes dst[g*5n+a*n+j] = Σ_m d[a*5+m]·src[g*5n+m*n+j] over
// `blocks` consecutive 5-row groups, with the same per-lane rounding
// chain as the scalar kernels (see mm5go), through the active tier.
func mul5(dst, src, d []float64, n, blocks int) { mul5v(dst, src, d, n, blocks) }

// mul5acc is mul5 accumulating into dst (see mm5accgo).
func mul5acc(dst, src, d []float64, n, blocks int) { mul5accv(dst, src, d, n, blocks) }

// elStress8 runs the batched elastic stress pass over one 8-lane deg=4
// block (see the pure-Go reference elStressN).
func elStress8(g, cst, w []float64) { elStress8v(g, cst, w) }

// acStress8 runs the batched acoustic pointwise pass over one 8-lane
// deg=4 block (see acStressN).
func acStress8(f, cst, w []float64) { acStress8v(f, cst, w) }

// Pure-Go tier entries: the path on CPUs without AVX2, and forceable on
// every amd64 CPU, so the cross-tier tests can pin each assembly tier
// against the references in one process.
func goMul5(dst, src, d []float64, n, blocks int)    { mm5go(dst, src, d, n, blocks) }
func goMul5acc(dst, src, d []float64, n, blocks int) { mm5accgo(dst, src, d, n, blocks) }
func goElStress8(g, cst, w []float64)                { elStressN(g, cst, w, 125) }
func goAcStress8(f, cst, w []float64)                { acStressN(f, cst, w, 125) }

// applyTier repoints the dispatch table; callers guarantee t is usable.
func applyTier(t simdTier) {
	switch t {
	case tierAVX512:
		mul5v, mul5accv = avx512Mul5, avx512Mul5acc
		elStress8v, acStress8v = avx512ElStress8, avx512AcStress8
	case tierAVX2:
		mul5v, mul5accv = avx2Mul5, avx2Mul5acc
		elStress8v, acStress8v = avx2ElStress8, avx2AcStress8
	default:
		mul5v, mul5accv = goMul5, goMul5acc
		elStress8v, acStress8v = goElStress8, goAcStress8
	}
	activeTier = t
}

// simdAvail is the usable-tier list, widest first (fixed at init).
var simdAvail []simdTier

func availableTiers() []simdTier { return simdAvail }

// simdCap parses GODEBUG for internal/cpu-style feature switches and
// returns the widest tier they allow. Only "=off" is honored; switching
// a tier off also rules out every wider tier (the ladder collapses
// downward, matching how the CI matrix forces each fallback path).
// "cpu.avx512f" is accepted alongside "cpu.avx512" because it is the Go
// runtime's own spelling — using it keeps the runtime from printing an
// "unknown cpu feature" warning on stderr.
func simdCap(godebug string) simdTier {
	cap := tierAVX512
	for _, kv := range strings.Split(godebug, ",") {
		switch strings.TrimSpace(kv) {
		case "cpu.avx512=off", "cpu.avx512f=off":
			cap = min(cap, tierAVX2)
		case "cpu.avx2=off":
			cap = tierGo
		}
	}
	return cap
}

func init() {
	avx2, avx512 := cpuFeatures()
	max := simdCap(os.Getenv("GODEBUG"))
	if avx512 && max >= tierAVX512 {
		simdAvail = append(simdAvail, tierAVX512)
	}
	if avx2 && max >= tierAVX2 {
		simdAvail = append(simdAvail, tierAVX2)
	}
	simdAvail = append(simdAvail, tierGo)
	applyTier(simdAvail[0])
}

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuFeatures probes CPUID for the AVX2 and AVX-512 tiers: the ISA bits
// plus OS state support via OSXSAVE/XGETBV (XMM+YMM saved for AVX2;
// opmask+ZMM additionally for AVX-512), the same gates internal/cpu and
// golang.org/x/sys/cpu apply.
func cpuFeatures() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false, false
	}
	xlo, _ := xgetbv()
	if xlo&0x6 != 0x6 { // XMM and YMM state enabled
		return false, false
	}
	_, b7, _, _ := cpuid(7, 0)
	avx2 = b7&(1<<5) != 0
	avx512 = avx2 && xlo&0xe0 == 0xe0 && b7&(1<<16) != 0 // opmask+ZMM state, AVX512F
	return avx2, avx512
}
