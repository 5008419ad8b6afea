package lts

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

// TestSaveRestoreBitwise: stepping k cycles, snapshotting, and finishing
// on a freshly built scheme must be bitwise identical to an
// uninterrupted run — for snapshots at the start, after one cycle,
// mid-run and at the last cycle.
func TestSaveRestoreBitwise(t *testing.T) {
	const total = 12
	build := func() *Scheme {
		op, lv, nl := graded1D([]uint8{1, 2, 3, 3, 2, 1}, 1, 1, 4)
		dt := coarseDt(1, 1, 4)
		s, err := New(op, lv, nl, dt, true)
		if err != nil {
			t.Fatal(err)
		}
		u0 := make([]float64, op.NDof())
		v0 := make([]float64, op.NDof())
		for i := range u0 {
			x := op.NodeX(i)
			u0[i] = math.Sin(math.Pi * x / 4)
			v0[i] = 0.1 * math.Cos(math.Pi*x/4)
		}
		if err := s.SetInitial(u0, v0); err != nil {
			t.Fatal(err)
		}
		return s
	}

	ref := build()
	for n := 0; n < total; n++ {
		ref.Step()
	}

	for _, k := range []int{0, 1, total / 2, total} {
		a := build()
		for n := 0; n < k; n++ {
			a.Step()
		}
		st := saved(a.View())
		// Mutate the donor afterwards to prove the snapshot is a copy.
		a.Step()

		b := build()
		if err := b.Restore(st); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for n := k; n < total; n++ {
			b.Step()
		}
		if b.Time() != ref.Time() {
			t.Fatalf("k=%d: time %v != %v", k, b.Time(), ref.Time())
		}
		for i := range ref.U {
			if math.Float64bits(b.U[i]) != math.Float64bits(ref.U[i]) ||
				math.Float64bits(b.V[i]) != math.Float64bits(ref.V[i]) {
				t.Fatalf("k=%d: resumed state differs from uninterrupted at dof %d", k, i)
			}
		}
		if b.Work.Cycles != ref.Work.Cycles || b.Work.ElemApplies != ref.Work.ElemApplies {
			t.Fatalf("k=%d: work counters differ: %+v vs %+v", k, b.Work, ref.Work)
		}
	}
}

func TestRestoreValidates(t *testing.T) {
	op, lv, nl := graded1D([]uint8{1, 2, 2, 1}, 1, 1, 4)
	s, err := New(op, lv, nl, coarseDt(1, 1, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(&ckpt.StepperState{Scheme: "newmark"}); err == nil {
		t.Fatal("wrong scheme tag accepted")
	}
	if err := s.Restore(&ckpt.StepperState{Scheme: SchemeName, U: make([]float64, 1), V: make([]float64, 1), PerLevel: make([]int64, nl)}); err == nil {
		t.Fatal("wrong dof count accepted")
	}
	n := op.NDof()
	if err := s.Restore(&ckpt.StepperState{Scheme: SchemeName, U: make([]float64, n), V: make([]float64, n), PerLevel: make([]int64, nl+1)}); err == nil {
		t.Fatal("wrong level count accepted")
	}
}
