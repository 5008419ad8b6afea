//go:build !amd64 || purego

package sem

import "testing"

// testSIMDCap has nothing to check on builds without assembly tiers: the
// GODEBUG cap ladder only exists in simd_amd64.go.
func testSIMDCap(t *testing.T) {
	t.Skip("no SIMD tier cap on this build")
}

// cpuClasses has no CPU classes to add on builds without assembly tiers:
// every CPU runs the go tier.
func cpuClasses() []tierCase { return nil }
