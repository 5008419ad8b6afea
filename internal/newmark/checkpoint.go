package newmark

import (
	"fmt"

	"golts/internal/ckpt"
)

// SchemeName is the StepperState.Scheme tag of a newmark.Stepper.
const SchemeName = "newmark"

// Save captures the complete inter-step state of the stepper. The
// acceleration and viscous buffers are recomputed from scratch every
// Step, so {U, V, t, n, started} plus the work counter fully determine
// the remaining trajectory.
func (s *Stepper) Save() *ckpt.StepperState {
	st := s.View()
	st.U = append([]float64(nil), st.U...)
	st.V = append([]float64(nil), st.V...)
	return st
}

// View is Save without the copies: U and V of the returned state alias
// the live arrays, so it is valid only until the next Step or Restore.
// For callers that serialise the snapshot at once.
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

// Restore installs a snapshot previously produced by Save on a stepper
// built from the same operator configuration.
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
	return nil
}
