package newmark

import (
	"testing"

	"golts/internal/mesh"
	"golts/internal/race"
	"golts/internal/sem"
)

// TestStepZeroAllocs asserts that a warmed-up global Newmark step on a
// sequential operator performs zero heap allocations, including with
// sources and sponge damping enabled.
func TestStepZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	m := mesh.Uniform(4, 4, 4, 1, 1)
	op, err := sem.NewElastic3D(m, 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(op, 1e-3)
	s.Sources = []sem.Source{{Dof: 10, W: sem.Ricker{F0: 1, T0: 1.2}}}
	s.Sigma = make([]float64, op.NumNodes())
	s.Sigma[0] = 2
	s.Step() // warm-up: kernel scratch, first-step branch
	s.Step()
	if n := testing.AllocsPerRun(5, s.Step); n != 0 {
		t.Errorf("Step allocates %v per step, want 0", n)
	}
}
