package sem

import (
	"fmt"
	"slices"
)

// SIMD tier dispatch of the batched microkernels. The deg=4 batched
// kernels funnel all heavy arithmetic through four primitives — the two
// mm5 contraction microkernels (mul5/mul5acc) and the two pointwise
// stress passes (elStress8/acStress8) — and every primitive
// vectorises strictly ACROSS independent 8-lane SoA blocks: each SIMD
// lane is a separate element with its own rounding chain, so the avx2
// and avx512 implementations are bitwise-identical to the pure-Go
// references at any width. That identity is what makes runtime dispatch
// safe: switching tiers never changes results, only speed, and golden
// seismograms stay pinned across every tier.
//
// The active tier is chosen once at init from CPUID feature detection,
// capped by GODEBUG (cpu.avx512=off or cpu.avx512f=off caps at avx2,
// cpu.avx2=off at go — internal/cpu-style switches, so CI can force
// every fallback path), and redirectable at runtime through
// ForceSIMDTier for tests and benchmarks. Builds with the `purego` tag
// (or non-amd64 targets) carry no assembly at all and run the Go
// references ("go" tier), as do amd64 CPUs without AVX2.

// simdTier identifies one microkernel implementation tier. Tiers are
// ordered: a larger value is a wider (or equal) vector width.
type simdTier uint8

const (
	// tierGo is the pure-Go reference path (always available; the
	// dispatched tier on CPUs without AVX2).
	tierGo simdTier = iota
	// tierAVX2 is the 4-lane VEX assembly.
	tierAVX2
	// tierAVX512 is the 8-lane EVEX assembly: one register spans a full
	// SoA block.
	tierAVX512
)

var tierNames = [...]string{"go", "avx2", "avx512"}

// String implements fmt.Stringer.
func (t simdTier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// tierFromName is the inverse of String for the known tiers.
func tierFromName(name string) (simdTier, bool) {
	i := slices.Index(tierNames[:], name)
	return simdTier(i), i >= 0
}

// activeTier is the currently dispatched tier; the build-specific init
// (simd_amd64.go / simd_noasm.go) selects the widest usable tier.
var activeTier simdTier

// ActiveSIMDTier reports the microkernel tier currently dispatched by
// the batched deg=4 kernels: "avx512", "avx2" or "go".
func ActiveSIMDTier() string { return activeTier.String() }

// SIMDTiers lists the tiers usable in this process — supported by the
// CPU and build, and not disabled via GODEBUG — widest first. The list
// always ends with "go".
func SIMDTiers() []string {
	av := availableTiers()
	names := make([]string, len(av))
	for i, t := range av {
		names[i] = t.String()
	}
	return names
}

// KnownSIMDTiers lists every tier this package implements, widest
// first, whether or not this CPU and build can run it (see SIMDTiers).
func KnownSIMDTiers() []string {
	names := slices.Clone(tierNames[:])
	slices.Reverse(names)
	return names
}

// ForceSIMDTier redirects the microkernel dispatch to the named tier
// and returns a function restoring the previous tier. It errors when
// the tier is unknown or not usable in this process (see SIMDTiers).
// Every tier computes bitwise-identical results; the switch exists for
// cross-tier tests and per-tier benchmarking. Forcing swaps the
// package-level dispatch table and must not race with in-flight
// kernels: call it only while no stiffness applications are running.
func ForceSIMDTier(name string) (restore func(), err error) {
	t, ok := tierFromName(name)
	if !ok {
		return nil, fmt.Errorf("sem: unknown SIMD tier %q (usable: %v)", name, SIMDTiers())
	}
	if !slices.Contains(availableTiers(), t) {
		return nil, fmt.Errorf("sem: SIMD tier %q not usable on this CPU/build (usable: %v)", name, SIMDTiers())
	}
	prev := activeTier
	applyTier(t)
	return func() { applyTier(prev) }, nil
}
