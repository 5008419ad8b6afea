// Package newmark implements the global explicit Newmark (leap-frog) time
// stepping scheme of paper Eqs. 5-6: the reference, non-LTS scheme whose
// global CFL bottleneck (Eq. 7) LTS removes. It is the baseline in every
// performance comparison.
package newmark

import (
	"fmt"
	"math"

	"golts/internal/sem"
)

// Stepper advances M ü = -K u + F with the staggered scheme
//
//	v^{n+1/2} = v^{n-1/2} - Δt M⁻¹ (K u^n - F(t_n)),
//	u^{n+1}   = u^n + Δt v^{n+1/2}.
type Stepper struct {
	// Op is the operator being stepped. The all-elements stiffness
	// application (and the Kelvin-Voigt term) runs as fused batches over
	// one precomputed BatchPlan.
	Op sem.BatchKernel
	// Dt is the time step; stability requires Dt below the CFL limit.
	Dt float64
	// U is the displacement at time t_n.
	U []float64
	// V is the velocity at time t_{n-1/2} (staggered).
	V []float64
	// Sources are point forces evaluated at t_n.
	Sources []sem.Source
	// Sigma is an optional per-node sponge damping profile; nil disables.
	Sigma []float64
	// Eta adds Kelvin-Voigt attenuation: the stress law becomes
	// T = C:∇u + Eta C:∇u̇, i.e. an extra -Eta M⁻¹K v term in the
	// acceleration. A single mode of frequency ω then decays like
	// exp(-Eta ω² t / 2), giving a quality factor Q ≈ 1/(Eta ω). The
	// paper defers attenuation to future work (§I-A); this is the
	// simplest member of that family and is only supported by the global
	// scheme.
	Eta float64

	t       float64
	n       int64
	started bool
	elems   []int32
	accel   []float64
	visc    []float64
	bplan   sem.BatchPlan    // all-elements batch plan, built on the first Step
	bscr    sem.BatchScratch // owned batch workspace: steady-state Step() allocates nothing
	scr     sem.Scratch      // per-element scratch of the energy diagnostics
	energy  *sem.Restriction // cached by Energy so diagnostics allocate nothing
	// ElementSteps counts element stiffness applications, for work
	// accounting in performance comparisons.
	ElementSteps int64
}

// New creates a stepper with zero initial conditions.
func New(op sem.BatchKernel, dt float64) *Stepper {
	s := &Stepper{
		Op:    op,
		Dt:    dt,
		U:     make([]float64, op.NDof()),
		V:     make([]float64, op.NDof()),
		elems: sem.AllElements(op),
		accel: make([]float64, op.NDof()),
	}
	// Let parallel backends build the ownership split and merge plan for
	// the all-elements list once, outside the stepping loop. (The
	// all-elements BatchPlan is built by the first Step.)
	sem.Prepare(op, s.elems)
	return s
}

// addKu accumulates dst += K u over all elements as one fused batch.
func (s *Stepper) addKu(dst, u []float64) {
	if s.bplan == nil {
		s.bplan = s.Op.NewBatchPlan(s.elems)
	}
	s.Op.AddKuBatch(dst, u, s.bplan, &s.bscr)
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
	return nil
}

// Time returns the current simulation time t_n.
func (s *Stepper) Time() float64 { return s.t }

// StepCount returns the number of completed steps.
func (s *Stepper) StepCount() int64 { return s.n }

// Step advances one time step. On the first step the unstaggered v(0) is
// converted to v(Δt/2) with a half-step, which keeps the scheme second
// order.
func (s *Stepper) Step() {
	a := s.accel
	for i := range a {
		a[i] = 0
	}
	s.addKu(a, s.U)
	s.ElementSteps += int64(len(s.elems))
	if s.Eta > 0 {
		// Kelvin-Voigt term: K applied to Eta * v (explicit, evaluated at
		// the lagged half step; stable for Eta well below Δt).
		if s.visc == nil {
			s.visc = make([]float64, len(s.U))
		}
		for i, v := range s.V {
			s.visc[i] = s.Eta * v
		}
		s.addKu(a, s.visc)
		s.ElementSteps += int64(len(s.elems))
	}
	minv := s.Op.MInv()
	nc := s.Op.Comps()
	for n := 0; n < s.Op.NumNodes(); n++ {
		mi := minv[n]
		for c := 0; c < nc; c++ {
			a[n*nc+c] *= -mi
		}
	}
	sem.AddForces(s.Op, s.Sources, s.t, a)
	dt := s.Dt
	if !s.started {
		// v(Δt/2) = v(0) + (Δt/2) a(0).
		for i := range s.V {
			s.V[i] += dt / 2 * a[i]
		}
		s.started = true
	} else {
		for i := range s.V {
			s.V[i] += dt * a[i]
		}
	}
	if s.Sigma != nil {
		applyDamping(s.V, s.Sigma, nc, dt)
	}
	for i := range s.U {
		s.U[i] += dt * s.V[i]
	}
	s.t += dt
	s.n++
}

// Run advances n steps.
func (s *Stepper) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Energy returns the instantaneous mechanical energy ½vᵀMv + ½uᵀKu, which
// oscillates with amplitude O(Δt²) around a constant for the staggered
// scheme. The all-elements restriction is cached on first use and the
// stiffness scratch reuses the stepper's accel buffer, so repeated calls
// allocate nothing.
func (s *Stepper) Energy() float64 {
	if s.energy == nil {
		s.energy = sem.NewRestriction(s.Op, s.elems)
	}
	for i := range s.accel {
		s.accel[i] = 0
	}
	return s.energy.Energy(s.Op, s.U, s.V, s.accel, &s.scr)
}

// ConservedEnergy returns the discrete energy that the undamped, unforced
// leap-frog scheme conserves exactly (up to roundoff):
//
//	E^{n+1/2} = ½ v_{n+1/2}ᵀ M v_{n+1/2} + ½ u_nᵀ K u_{n+1},
//
// evaluated from the stepper's state (U = u_{n+1}, V = v_{n+1/2},
// u_n = U - Δt V).
func (s *Stepper) ConservedEnergy() float64 {
	ku := s.accel
	for i := range ku {
		ku[i] = 0
	}
	s.Op.AddKuScratch(ku, s.U, s.elems, &s.scr)
	minv := s.Op.MInv()
	nc := s.Op.Comps()
	e := 0.0
	for n := 0; n < s.Op.NumNodes(); n++ {
		if minv[n] == 0 {
			continue
		}
		m := 1 / minv[n]
		for c := 0; c < nc; c++ {
			d := n*nc + c
			un := s.U[d] - s.Dt*s.V[d]
			e += 0.5*m*s.V[d]*s.V[d] + 0.5*un*ku[d]
		}
	}
	return e
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

// applyDamping multiplies velocities by the per-node sponge factor. A
// first-order splitting: v *= 1/(1 + σΔt) ≈ e^{-σΔt}, unconditionally
// stable.
func applyDamping(v, sigma []float64, nc int, dt float64) {
	for n, sg := range sigma {
		if sg == 0 {
			continue
		}
		f := 1 / (1 + sg*dt)
		for c := 0; c < nc; c++ {
			v[n*nc+c] *= f
		}
	}
}
