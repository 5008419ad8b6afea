package lts

import (
	"fmt"

	"golts/internal/ckpt"
)

// SchemeName is the StepperState.Scheme tag of an lts.Scheme.
const SchemeName = "lts"

// View captures the complete inter-cycle state of the scheme, its arrays
// aliasing the live ones (valid until the next Step or Restore). All
// scratch is written before it is read within each Step, and cycleT is
// re-anchored at every Step entry, so {U, V, t, n, start} plus the work
// counters determine the rest of the run: restoring them into a freshly
// built scheme continues it bitwise identically.
func (s *Scheme) View() *ckpt.StepperState {
	return &ckpt.StepperState{
		Scheme:      SchemeName,
		T:           s.t,
		N:           s.n,
		Started:     s.start,
		U:           s.U,
		V:           s.V,
		ElemApplies: s.Work.ElemApplies,
		PerLevel:    s.Work.PerLevel,
		Cycles:      s.Work.Cycles,
	}
}

// Restore installs a state captured by View on a scheme built from the
// same operator/levels configuration.
func (s *Scheme) Restore(st *ckpt.StepperState) error {
	if st.Scheme != SchemeName {
		return fmt.Errorf("lts: restore: state is for scheme %q", st.Scheme)
	}
	if len(st.U) != len(s.U) || len(st.V) != len(s.V) {
		return fmt.Errorf("lts: restore: state has %d/%d dofs, scheme has %d",
			len(st.U), len(st.V), len(s.U))
	}
	if len(st.PerLevel) != s.nlv {
		return fmt.Errorf("lts: restore: state has %d levels, scheme has %d",
			len(st.PerLevel), s.nlv)
	}
	copy(s.U, st.U)
	copy(s.V, st.V)
	s.t = st.T
	s.cycleT = st.T // re-anchored at the next Step entry anyway
	s.n = st.N
	s.start = st.Started
	s.Work.ElemApplies = st.ElemApplies
	copy(s.Work.PerLevel, st.PerLevel)
	s.Work.Cycles = st.Cycles
	return nil
}
