package newmark

import (
	"math"
	"testing"

	"golts/internal/sem"
)

// estimateCriticalDt estimates the leap-frog stability limit
// Δt_max = 2/√λ_max(M⁻¹K) by power iteration. This is the sharp version of
// the CFL bound (Eq. 7): the heuristic h/c estimate must stay below it,
// and the LTS level assignment inherits its safety margin from the CFL
// constant used.
func estimateCriticalDt(op sem.Operator, iters int) float64 {
	if iters <= 0 {
		iters = 60
	}
	n := op.NDof()
	u := make([]float64, n)
	ku := make([]float64, n)
	// Deterministic pseudo-random start vector with zero mean.
	s := uint64(0x9e3779b97f4a7c15)
	for i := range u {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u[i] = float64(int64(s))/float64(1<<63) - 0
	}
	elems := sem.AllElements(op)
	minv := op.MInv()
	nc := op.Comps()
	lambda := 0.0
	var scr sem.Scratch
	for it := 0; it < iters; it++ {
		for i := range ku {
			ku[i] = 0
		}
		op.AddKuScratch(ku, u, elems, &scr)
		norm := 0.0
		for nd := 0; nd < op.NumNodes(); nd++ {
			for c := 0; c < nc; c++ {
				d := nd*nc + c
				ku[d] *= minv[nd]
				norm += ku[d] * ku[d]
			}
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return math.Inf(1)
		}
		lambda = norm
		for i := range u {
			u[i] = ku[i] / norm
		}
	}
	return 2 / math.Sqrt(lambda)
}

// TestEstimateCriticalDtBracketsStability: stepping just below the
// estimated limit stays bounded; stepping 5% above it blows up. This
// brackets the true stability boundary around the power-iteration
// estimate.
func TestEstimateCriticalDtBracketsStability(t *testing.T) {
	op := uniform1D(12, 1, 1, 4)
	dtc := estimateCriticalDt(op, 100)
	if dtc <= 0 || math.IsInf(dtc, 1) {
		t.Fatalf("critical dt estimate %v", dtc)
	}
	blowsUp := func(dt float64) bool {
		s := New(op, dt)
		u0 := make([]float64, op.NDof())
		for i := range u0 {
			u0[i] = math.Sin(7 * op.NodeX(i))
		}
		copy(s.U, u0)
		s.Run(3000)
		norm := 0.0
		for _, v := range s.U {
			norm += v * v
		}
		return math.IsNaN(norm) || norm > 1e8
	}
	if blowsUp(0.98 * dtc) {
		t.Errorf("dt = 0.98 dtc unstable (dtc = %v)", dtc)
	}
	if !blowsUp(1.05 * dtc) {
		t.Errorf("dt = 1.05 dtc unexpectedly stable (dtc = %v)", dtc)
	}
}

// TestCriticalDtScalesWithMesh: halving the element size must halve the
// critical step (the CFL proportionality of Eq. 7).
func TestCriticalDtScalesWithMesh(t *testing.T) {
	coarse := uniform1D(8, 1, 1, 4)
	fine := uniform1D(16, 1, 1, 4)
	dc := estimateCriticalDt(coarse, 80)
	df := estimateCriticalDt(fine, 80)
	ratio := dc / df
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("critical dt ratio %v, want ~2", ratio)
	}
}

// TestCriticalDtVelocityScaling: doubling the wave speed halves the limit.
func TestCriticalDtVelocityScaling(t *testing.T) {
	slow := uniform1D(10, 1, 1, 4)
	fast := uniform1D(10, 1, 2, 4)
	ratio := estimateCriticalDt(slow, 80) / estimateCriticalDt(fast, 80)
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("velocity scaling ratio %v, want 2", ratio)
	}
}
