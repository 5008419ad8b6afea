//go:build amd64 && !purego

package sem

import "testing"

// testSIMDCap pins the GODEBUG tier-cap ladder: disabling a feature also
// rules out every wider tier, unknown switches are ignored, and the Go
// runtime's own "cpu.avx512f" spelling is accepted.
func testSIMDCap(t *testing.T) {
	for _, tc := range []struct {
		godebug string
		want    simdTier
	}{
		{"", tierAVX512},
		{"gctrace=1", tierAVX512},
		{"cpu.avx512=off", tierAVX2},
		{"cpu.avx512f=off", tierAVX2},
		{"gctrace=1,cpu.avx512=off", tierAVX2},
		{"cpu.avx2=off", tierGo},
		{"cpu.avx512=off,cpu.avx2=off", tierGo},
		{"cpu.avx2=off,cpu.avx512=off", tierGo},
		{"cpu.avx2=on", tierAVX512},
		{" cpu.avx512=off , cpu.avx2=off ", tierGo},
	} {
		if got := simdCap(tc.godebug); got != tc.want {
			t.Errorf("simdCap(%q) = %v, want %v", tc.godebug, got, tc.want)
		}
	}
}

// cpuClasses lists the amd64 CPU classes with no assembly tier of their
// own: "sse2", the baseline amd64 CPU without AVX2, runs the tier the
// ladder is capped at by cpu.avx2=off — the go reference kernels.
func cpuClasses() []tierCase {
	return []tierCase{{"sse2", simdCap("cpu.avx2=off").String()}}
}
