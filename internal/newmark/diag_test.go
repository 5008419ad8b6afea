package newmark

// Diagnostics only the tests use: the energies of the leap-frog scheme.

import "golts/internal/sem"

// Energy returns the instantaneous mechanical energy ½vᵀMv + ½uᵀKu, which
// oscillates with amplitude O(Δt²) around a constant for the staggered
// scheme. It and ConservedEnergy read U in node ids: operators without a
// footprint only. The stiffness work buffer is accel (zero between steps,
// left zero by sem.Energy).
func (s *Stepper) Energy() float64 {
	return sem.Energy(s.Op, s.U, s.V, s.elems, s.accel[:len(s.U)])
}

// ConservedEnergy returns the discrete energy that the undamped, unforced
// leap-frog scheme conserves exactly (up to roundoff):
//
//	E^{n+1/2} = ½ v_{n+1/2}ᵀ M v_{n+1/2} + ½ u_nᵀ K u_{n+1},
//
// evaluated from the stepper's state (U = u_{n+1}, V = v_{n+1/2},
// u_n = U - Δt V). K u is formed in the accel buffer, re-zeroed after.
func (s *Stepper) ConservedEnergy() float64 {
	ku, sc := s.accel[:len(s.U)], sem.Scratch{}
	defer clear(ku)
	s.Op.AddKuScratch(ku, s.U, s.elems, &sc)
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
