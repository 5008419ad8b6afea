package newmark

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

// TestPlanBuiltOnceByNew: the stepper builds its all-elements batch plan
// in New and never another — not in Step, Run or Restore — on a
// sequential operator and on the shared-memory engine alike.
func TestPlanBuiltOnceByNew(t *testing.T) {
	m := mesh.Uniform(4, 4, 4, 1, 1)
	op, err := sem.NewElastic3D(m, 2, false, 0)
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
			s := New(ck, 1e-3)
			if ck.plans != 1 {
				t.Fatalf("New built %d plans, want 1", ck.plans)
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
