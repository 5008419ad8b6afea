package newmark

import (
	"fmt"

	"golts/internal/ckpt"
)

// SchemeName is the StepperState.Scheme tag of a newmark.Stepper.
const SchemeName = "newmark"

// View captures the complete inter-step state of the stepper, U and V
// aliasing the live arrays (valid until the next Step or Restore). The
// acceleration buffer is zero between steps, so {U, V, t, n, started}
// plus the work counter determine the rest of the run.
func (s *Stepper) View() *ckpt.StepperState {
	return &ckpt.StepperState{
		Scheme:      SchemeName,
		T:           s.t,
		N:           s.n,
		Started:     s.started,
		U:           s.U,
		V:           s.V,
		ElemApplies: s.ElementSteps,
	}
}

// Restore installs a state captured by View on a stepper built from the
// same operator configuration.
func (s *Stepper) Restore(st *ckpt.StepperState) error {
	if st.Scheme != SchemeName {
		return fmt.Errorf("newmark: restore: state is for scheme %q", st.Scheme)
	}
	if len(st.U) != len(s.U) || len(st.V) != len(s.V) {
		return fmt.Errorf("newmark: restore: state has %d/%d dofs, stepper has %d",
			len(st.U), len(st.V), len(s.U))
	}
	copy(s.U, st.U)
	copy(s.V, st.V)
	s.t = st.T
	s.n = st.N
	s.started = st.Started
	s.ElementSteps = st.ElemApplies
	clear(s.accel) // a Step that panicked part-way may have left K u in it
	return nil
}
