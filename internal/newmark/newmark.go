// Package newmark implements the global explicit Newmark (leap-frog) time
// stepping scheme of paper Eqs. 5-6: the reference, non-LTS scheme whose
// global CFL bottleneck (Eq. 7) LTS removes. It is the baseline in every
// performance comparison. A step is one stiffness batch and one sweep over
// the nodes that does the whole pointwise update (Stepper.sweep). Over an
// operator that declares a footprint (sem.Footprint) the stepper holds and
// sweeps that footprint only, in its compact numbering (sem.StepperPlan).
package newmark

import (
	"fmt"
	"math"
	"slices"

	"golts/internal/sem"
)

// Stepper advances M ü = -K u + F with the staggered scheme
//
//	v^{n+1/2} = v^{n-1/2} - Δt M⁻¹ (K u^n - F(t_n)),
//	u^{n+1}   = u^n + Δt v^{n+1/2}.
type Stepper struct {
	// Op is the operator being stepped. The all-elements stiffness
	// application runs as one fused batch over a precomputed BatchPlan.
	Op sem.BatchKernel
	// Dt is the time step; stability requires Dt below the CFL limit.
	Dt float64
	// U is the displacement at time t_n, over the stepper's numbering: the
	// operator's node ids, or its footprint's compact numbering.
	U []float64
	// V is the velocity at time t_{n-1/2} (staggered).
	V []float64
	// Sources are point forces evaluated at t_n, at dofs of U's numbering.
	Sources []sem.Source
	// Sigma is an optional per-node sponge damping profile; nil disables.
	Sigma []float64

	t        float64
	n        int64
	started  bool
	elems    []int32
	minv     []float64 // M⁻¹ per node of U's numbering
	accel    []float64
	srcNodes []int32          // sweep's buffer of source nodes
	bplan    sem.BatchPlan    // all-elements batch plan in U's numbering, built by New
	bscr     sem.BatchScratch // owned batch workspace: steady-state Step() allocates nothing
	// ElementSteps counts element stiffness applications, for work
	// accounting in performance comparisons.
	ElementSteps int64
}

// New creates a stepper with zero initial conditions.
func New(op sem.BatchKernel, dt float64) *Stepper {
	s := &Stepper{Op: op, Dt: dt, elems: sem.AllElements(op)}
	s.bplan, s.minv = sem.StepperPlan(op, s.elems)
	nd := len(s.minv) * op.Comps()
	s.U, s.V = make([]float64, nd), make([]float64, nd)
	s.accel = make([]float64, s.bplan.DstNodes()*op.Comps()) // the plan's spill tail included
	return s
}

// SetInitial sets u(0) and v(0) (both at t = 0, unstaggered). Must be
// called before the first Step.
func (s *Stepper) SetInitial(u0, v0 []float64) error {
	if s.started {
		return fmt.Errorf("newmark: SetInitial after stepping started")
	}
	if len(u0) != len(s.U) || len(v0) != len(s.V) {
		return fmt.Errorf("newmark: initial condition length mismatch")
	}
	copy(s.U, u0)
	copy(s.V, v0)
	clear(s.accel)
	return nil
}

// Time returns the current simulation time t_n.
func (s *Stepper) Time() float64 { return s.t }

// StepCount returns the number of completed steps.
func (s *Stepper) StepCount() int64 { return s.n }

// Step advances one time step: K u into accel, then one sweep over the
// nodes. The first step turns the unstaggered v(0) into v(Δt/2) with a
// half-step, which keeps the scheme second order.
func (s *Stepper) Step() {
	s.Op.AddKuBatch(s.accel, s.U, s.bplan, &s.bscr)
	s.ElementSteps += int64(len(s.elems))
	kick := s.Dt
	if !s.started {
		kick = s.Dt / 2 // v(Δt/2) = v(0) + (Δt/2) a(0)
		s.started = true
	}
	s.sweep(kick)
	s.t += s.Dt
	s.n++
}

// sweep is a step's pointwise half: per dof a = -M⁻¹accel + M⁻¹F(t_n)
// (sources added in Sources order), accel = 0, v += kick·a, the sponge
// v *= 1/(1 + σΔt), u += Δt·v; accel is zero again after it. Source nodes
// (rebuilt every step: Sources is public) are split off, so the loop over
// the rest makes no call.
func (s *Stepper) sweep(kick float64) {
	nc := s.Op.Comps()
	s.srcNodes = s.srcNodes[:0]
	for _, sc := range s.Sources {
		s.srcNodes = append(s.srcNodes, int32(sc.Dof/nc))
	}
	slices.Sort(s.srcNodes)
	n0 := 0
	for _, n := range slices.Compact(s.srcNodes) {
		s.sweepNodes(n0, int(n), kick)
		s.sweepSourceNode(int(n), kick)
		n0 = int(n) + 1
	}
	s.sweepNodes(n0, len(s.minv), kick)
}

// sweepNodes is sweep over nodes [n0, n1), none of which has a source.
func (s *Stepper) sweepNodes(n0, n1 int, kick float64) {
	nc, dt := s.Op.Comps(), s.Dt
	minv := s.minv
	a, u, v := s.accel, s.U, s.V
	for n := n0; n < n1; n++ {
		mi, fac := minv[n], s.dampFac(n)
		for d := n * nc; d < n*nc+nc; d++ {
			f := a[d] * -mi
			a[d] = 0
			vd := (v[d] + kick*f) * fac
			v[d] = vd
			u[d] += dt * vd
		}
	}
}

// sweepSourceNode is sweep at node n, which carries sources.
func (s *Stepper) sweepSourceNode(n int, kick float64) {
	nc, mi, fac := s.Op.Comps(), s.minv[n], s.dampFac(n)
	for d := n * nc; d < n*nc+nc; d++ {
		f := s.accel[d] * -mi
		s.accel[d] = 0
		for _, sc := range s.Sources {
			if sc.Dof == d {
				f += sc.W.Amp(s.t) * mi
			}
		}
		v := (s.V[d] + kick*f) * fac
		s.V[d] = v
		s.U[d] += s.Dt * v
	}
}

// dampFac is node n's sponge factor 1/(1 + σΔt) ≈ e^{-σΔt} (1 outside).
func (s *Stepper) dampFac(n int) float64 {
	if s.Sigma == nil || s.Sigma[n] == 0 {
		return 1
	}
	return 1 / (1 + s.Sigma[n]*s.Dt)
}

// Run advances n steps.
func (s *Stepper) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// EstimateCriticalDt estimates the leap-frog stability limit
// Δt_max = 2/√λ_max(M⁻¹K) by power iteration. This is the sharp version of
// the CFL bound (Eq. 7): the heuristic h/c estimate must stay below it,
// and the LTS level assignment inherits its safety margin from the CFL
// constant used.
func EstimateCriticalDt(op sem.Operator, iters int) float64 {
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
