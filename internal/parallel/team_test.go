package parallel

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/partition"
	"golts/internal/sem"
)

// soloView exposes only the engine's sem.BatchKernel methods, as the
// benchmark harness's timing decorator does: a scheme over it cannot see
// Run, Barrier or AddKuShare and steps with its team of one, every apply
// going through AddKuBatch.
type soloView struct{ sem.BatchKernel }

// geomKernel is what the team test needs of its operators.
type geomKernel interface {
	sem.BatchKernel
	NodeCoords(n int32) (x, y, z float64)
}

// TestTeamCycleBitwise: a scheme stepping its whole cycle SPMD on the
// engine's workers produces bitwise the fields of the same scheme driving
// the same engine one apply at a time, for acoustic and elastic physics
// on three levels, with the sponge on and sources on a far-coarse node, on
// a finest-level node and on both sides of every boundary between the
// workers' shares of the active region (the share levels 0 and 1 split)
// and of the far-coarse nodes (the coarse pass's split, which cuts the
// far-coarse runs).
func TestTeamCycleBitwise(t *testing.T) {
	m, ac := eqSetup(t)
	el, err := sem.NewElastic3D(m, 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		op   geomKernel
		cfl  float64
	}{{"acoustic", ac, 0.3 / 9}, {"elastic", el, 0.3 / 4}}
	const cycles = 8
	for _, c := range cases {
		lv := mesh.AssignLevels(m, c.cfl, 3)
		if lv.NumLevels != 3 {
			t.Fatalf("%s: want 3 levels, got %d", c.name, lv.NumLevels)
		}
		x0, x1, y0, y1, z0, z1 := m.Extent()
		sigma := sem.SpongeProfile(c.op.NumNodes(), c.op.NodeCoords, x0, x1, y0, y1, z0, z1,
			[6]bool{true, true, true, true, false, true}, 0.8, 3)
		for _, k := range []int{2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, k), func(t *testing.T) {
				part, err := partition.Assign(m, lv, k, partition.ScotchP, 7)
				if err != nil {
					t.Fatal(err)
				}
				pop, err := NewOperator(c.op, part, k)
				if err != nil {
					t.Fatal(err)
				}
				defer pop.Close()
				team := teamScheme(t, pop, lv, sigma, k)
				ref := teamScheme(t, soloView{pop}, lv, sigma, k)
				team.Run(cycles)
				ref.Run(cycles)
				peak := 0.0
				for _, v := range ref.U {
					peak = math.Max(peak, math.Abs(v))
				}
				if peak < 1e-9 {
					t.Fatalf("reference peak |u| = %g: too small for the comparison to mean anything", peak)
				}
				for i := range ref.U {
					if math.Float64bits(team.U[i]) != math.Float64bits(ref.U[i]) ||
						math.Float64bits(team.V[i]) != math.Float64bits(ref.V[i]) {
						t.Fatalf("dof %d: team u=%v v=%v, one apply at a time u=%v v=%v",
							i, team.U[i], team.V[i], ref.U[i], ref.V[i])
					}
				}
			})
		}
	}
}

// teamScheme builds a 3-level scheme over op, zero initial state, the
// given sponge and the sources TestTeamCycleBitwise describes for k
// workers.
func teamScheme(t *testing.T, op sem.BatchKernel, lv *mesh.Levels, sigma []float64, k int) *lts.Scheme {
	t.Helper()
	s, err := lts.FromMeshLevels(op, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	act, far := s.Domain()
	if len(far) == 0 {
		t.Fatal("no far-coarse nodes")
	}
	nodes := []int32{far[len(far)/2], act[len(act)-1]}
	for w := 1; w < k; w++ {
		b, bf := len(act)*w/k, len(far)*w/k
		nodes = append(nodes, act[b-1], act[b], far[bf-1], far[bf])
	}
	nc := op.Comps()
	var src []sem.Source
	for i, n := range nodes {
		src = append(src, sem.Source{Dof: int(n)*nc + i%nc, W: sem.Ricker{F0: 2, T0: 0.3}})
	}
	s.SetSources(src)
	s.Sigma = sigma
	return s
}

// TestCloseReleasesWorkers: Close stops every worker goroutine, also after
// cycles that parked workers inside barriers.
func TestCloseReleasesWorkers(t *testing.T) {
	m, op := eqSetup(t)
	lv := mesh.AssignLevels(m, 0.3/9, 3)
	base := runtime.NumGoroutine()
	part, err := partition.Assign(m, lv, 8, partition.ScotchP, 7)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := NewOperator(op, part, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lts.FromMeshLevels(pop, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	if n := runtime.NumGoroutine(); n < base+7 {
		t.Fatalf("%d goroutines with 8 workers, %d before: the workers are not running", n, base)
	}
	pop.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
