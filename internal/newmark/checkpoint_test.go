package newmark

import (
	"math"
	"slices"
	"testing"

	"golts/internal/ckpt"
)

// saved is a copy of the state View captures, as a checkpoint keeps it.
func saved(st *ckpt.StepperState) *ckpt.StepperState {
	c := *st
	c.U, c.V, c.PerLevel = slices.Clone(st.U), slices.Clone(st.V), slices.Clone(st.PerLevel)
	return &c
}

func TestSaveRestoreBitwise(t *testing.T) {
	const total = 40
	const dt = 1e-3
	build := func() *Stepper {
		op := uniform1D(12, 1, 1, 4)
		s := New(op, dt)
		u0 := make([]float64, op.NDof())
		v0 := make([]float64, op.NDof())
		for i := range u0 {
			u0[i] = math.Cos(math.Pi * op.NodeX(i))
			v0[i] = 0.2 * math.Sin(math.Pi*op.NodeX(i))
		}
		copy(s.U, u0)
		copy(s.V, v0)
		return s
	}

	ref := build()
	ref.Run(total)

	for _, k := range []int{0, 1, total / 2, total} {
		a := build()
		a.Run(k)
		st := saved(a.View())
		a.Step() // prove the snapshot is a copy

		b := build()
		if err := b.Restore(st); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		b.Run(total - k)
		if b.Time() != ref.Time() || b.StepCount() != ref.StepCount() {
			t.Fatalf("k=%d: time/steps %v/%d != %v/%d", k, b.Time(), b.StepCount(), ref.Time(), ref.StepCount())
		}
		for i := range ref.U {
			if math.Float64bits(b.U[i]) != math.Float64bits(ref.U[i]) ||
				math.Float64bits(b.V[i]) != math.Float64bits(ref.V[i]) {
				t.Fatalf("k=%d: resumed state differs from uninterrupted at dof %d", k, i)
			}
		}
		if b.ElementSteps != ref.ElementSteps {
			t.Fatalf("k=%d: ElementSteps %d != %d", k, b.ElementSteps, ref.ElementSteps)
		}
	}
}

func TestRestoreValidates(t *testing.T) {
	s := New(uniform1D(4, 1, 1, 4), 1e-3)
	if err := s.Restore(&ckpt.StepperState{Scheme: "lts"}); err == nil {
		t.Fatal("wrong scheme tag accepted")
	}
	if err := s.Restore(&ckpt.StepperState{Scheme: SchemeName, U: make([]float64, 1), V: make([]float64, 1)}); err == nil {
		t.Fatal("wrong dof count accepted")
	}
}
