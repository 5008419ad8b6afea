package lts

// Work accounting: the paper's speedup model (Eq. 9) counts one unit of
// work per element per substep. The optimised engine additionally applies
// the stiffness of halo elements (coarse elements bordering finer nodes,
// the gray region of Fig. 2) at the finer rate, which is the overhead that
// keeps measured single-thread efficiency below 100% (§II-C reports >90%).

// IdealElemStepsPerCycle returns Σ_k p_k n_k: the element-steps per coarse
// Δt that a perfect LTS implementation would perform.
func (s *Scheme) IdealElemStepsPerCycle() int64 {
	var w int64
	for _, l := range s.sets.elemLevel {
		w += int64(1) << uint(l)
	}
	return w
}

// ActualElemStepsPerCycle returns the element-steps per coarse Δt this
// scheme performs: every level applies its force elements (own + halo)
// p_k times per cycle.
func (s *Scheme) ActualElemStepsPerCycle() int64 {
	var w int64
	for li := 0; li < s.nlv; li++ {
		w += int64(len(s.sets.forceElems[li])) << uint(li)
	}
	return w
}

// NonLTSElemStepsPerCycle returns p_N * numElements: the cost of the
// global scheme over the same simulated time Δt.
func (s *Scheme) NonLTSElemStepsPerCycle() int64 {
	return int64(s.Op.NumElements()) << uint(s.nlv-1)
}

// Efficiency returns ideal/actual element-steps: 1.0 means the
// implementation pays no halo overhead. The paper reports >90% for its
// optimised SPECFEM3D implementation.
func (s *Scheme) Efficiency() float64 {
	a := s.ActualElemStepsPerCycle()
	if a == 0 {
		return 1
	}
	return float64(s.IdealElemStepsPerCycle()) / float64(a)
}

// ModelSpeedup evaluates the paper's Eq. (9) speedup model for this level
// assignment.
func (s *Scheme) ModelSpeedup() float64 {
	return float64(s.NonLTSElemStepsPerCycle()) / float64(s.IdealElemStepsPerCycle())
}

// EffectiveSpeedup returns the work-based speedup this scheme actually
// achieves over the global scheme: non-LTS cost / actual cost.
func (s *Scheme) EffectiveSpeedup() float64 {
	return float64(s.NonLTSElemStepsPerCycle()) / float64(s.ActualElemStepsPerCycle())
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
