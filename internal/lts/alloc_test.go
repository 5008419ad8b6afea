package lts

import (
	"testing"

	"golts/internal/mesh"
	"golts/internal/parallel"
	"golts/internal/race"
	"golts/internal/sem"
)

// TestStepZeroAllocs asserts that a warmed-up multi-level LTS cycle
// performs zero heap allocations, on a sequential operator and as one Run
// on a 2-worker engine: the batch workspaces, the per-level buffers, the
// index sets and the per-worker cycle are all built in advance, so the
// steady-state stepping loop never touches the allocator.
func TestStepZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	m := mesh.Generators["trench"](0.02)
	lv := mesh.AssignLevels(m, 0.4/16, 0)
	if lv.NumLevels < 2 {
		t.Fatalf("want a multi-level configuration, got %d levels", lv.NumLevels)
	}
	op, err := sem.NewAcoustic3D(m, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, op.NumElements())
	for e := range part {
		part[e] = int32(2 * e / len(part))
	}
	pop, err := parallel.NewOperator(op, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	legs := []struct {
		name      string
		op        sem.BatchKernel
		optimized bool
	}{{"reference", op, false}, {"optimized", op, true}, {"2 workers", pop, true}}
	for _, leg := range legs {
		s, err := FromMeshLevels(leg.op, lv, leg.optimized)
		if err != nil {
			t.Fatal(err)
		}
		// Telemetry must stay free on the warm path: the per-level
		// counters are preallocated and the monotonic clock reads do
		// not allocate.
		s.Telemetry = true
		// More than four level-0 sources, far-coarse and halo alike: the
		// fused coarse pass must not need per-source scratch.
		probe, err := buildSets(op, lv.Lvl, lv.NumLevels, true)
		if err != nil {
			t.Fatal(err)
		}
		var src []sem.Source
		for n := 0; len(src) < 6; n++ {
			if probe.nodeLevel[n] == 0 && (len(src) < 3) == (probe.stepLvl[n] == 0) {
				src = append(src, sem.Source{Dof: n, W: sem.Ricker{F0: 1, T0: 1.2}})
			}
		}
		s.SetSources(src)
		s.Step() // warm-up: scratch grows, first-cycle branch taken
		s.Step()
		if n := testing.AllocsPerRun(5, s.Step); n != 0 {
			t.Errorf("%s: Step allocates %v per cycle, want 0", leg.name, n)
		}
	}
}
