package lts

import "golts/internal/sem"

// Views of a scheme that only the tests read: the Eq. 9 speedup, the
// per-level force-element and halo counts behind ActualElemStepsPerCycle,
// and the discrete energy.

// ModelSpeedup evaluates the paper's Eq. (9) speedup model for this level
// assignment.
func (s *Scheme) ModelSpeedup() float64 {
	return float64(s.NonLTSElemStepsPerCycle()) / float64(s.IdealElemStepsPerCycle())
}

// HaloElems returns, per level, the number of force elements that belong
// to a coarser level (recomputed at the finer rate purely for coupling).
func (s *Scheme) HaloElems() []int {
	out := make([]int, s.nlv)
	for li := range out {
		out[li] = s.sets.haloElems(li)
	}
	return out
}

// ForceElemCounts returns the per-level force-element list sizes.
func (s *Scheme) ForceElemCounts() []int {
	out := make([]int, s.nlv)
	for li := range out {
		out[li] = len(s.sets.forceElems[li])
	}
	return out
}

// haloElems returns, for level li, how many of forceElems[li] are not
// themselves level-li elements — the halo overhead the optimised
// implementation pays at level interfaces.
func (s *sets) haloElems(li int) int {
	h := 0
	for _, e := range s.forceElems[li] {
		if int(s.elemLevel[e]) != li {
			h++
		}
	}
	return h
}

// Energy returns the instantaneous discrete energy ½vᵀMv + ½uᵀKu, for an
// operator without a footprint (it reads U and V in node ids), over an
// all-elements restriction and a work buffer of its own: the scheme's
// buffers, kbuf's all-zero invariant included, are untouched.
func (s *Scheme) Energy() float64 {
	var sc sem.Scratch
	return sem.NewRestriction(s.Op, sem.AllElements(s.Op)).Energy(s.Op, s.U, s.V, make([]float64, s.Op.NDof()), &sc)
}
