package lts

import (
	"testing"

	"golts/internal/mesh"
	"golts/internal/parallel"
	"golts/internal/sem"
)

// countingKernel forwards everything to the wrapped kernel and counts the
// batch plans built through it.
type countingKernel struct {
	sem.BatchKernel
	plans int
}

func (c *countingKernel) NewBatchPlan(elems []int32) sem.BatchPlan {
	c.plans++
	return c.BatchKernel.NewBatchPlan(elems)
}

// TestPlansBuiltOnceByNew: a scheme builds one batch plan per level in its
// constructor and never another — not in Step, Run or Restore — on a
// sequential operator and on the shared-memory engine alike.
func TestPlansBuiltOnceByNew(t *testing.T) {
	m := mesh.Generators["trench"](0.02)
	lv := mesh.AssignLevels(m, 0.4/16, 0)
	if lv.NumLevels < 2 {
		t.Fatalf("want a multi-level configuration, got %d levels", lv.NumLevels)
	}
	op, err := sem.NewAcoustic3D(m, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, op.NumElements())
	for e := range part {
		part[e] = int32(e % 2)
	}
	pop, err := parallel.NewOperator(op, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	for _, tc := range []struct {
		name string
		op   sem.BatchKernel
	}{{"sequential", op}, {"parallel-K2", pop}} {
		t.Run(tc.name, func(t *testing.T) {
			ck := &countingKernel{BatchKernel: tc.op}
			s, err := FromMeshLevels(ck, lv, true)
			if err != nil {
				t.Fatal(err)
			}
			if ck.plans != lv.NumLevels {
				t.Fatalf("New built %d plans, want one per level (%d)", ck.plans, lv.NumLevels)
			}
			ck.plans = 0
			s.Step()
			s.Run(2)
			if err := s.Restore(saved(s.View())); err != nil {
				t.Fatal(err)
			}
			s.Step()
			if ck.plans != 0 {
				t.Fatalf("Step, Run and Restore built %d plans, want 0", ck.plans)
			}
		})
	}
}
