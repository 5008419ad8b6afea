package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/sem"
)

// SingleThreadEfficiency measures the §II-C claim with real wall-clock
// time: the optimised sequential LTS implementation achieves a large
// fraction (paper: >90%) of the Eq. (9) model speedup over global Newmark.
// This is the one experiment that runs the actual SEM kernels rather than
// the cluster simulator.
func SingleThreadEfficiency(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Name:  "single-thread",
		Title: "Measured single-thread LTS efficiency vs Eq. (9) model (3-D acoustic SEM, degree 4)",
		Header: []string{"mesh", "#elems", "levels", "model speedup", "work speedup",
			"measured speedup", "LTS efficiency"},
	}
	// A miniature trench: graded x-band through a 3-D acoustic box. Sized
	// so both schemes run in seconds.
	// Bands are wide enough that each level's interior dominates its
	// 2-column halo; the paper's application meshes have even larger
	// volume-to-surface ratios, which is where the >90% comes from.
	type tc struct {
		name   string
		levels []int // element columns per x-band, coarse->fine->coarse
	}
	cases := []tc{
		{"mini-trench-3lv", []int{14, 5, 6, 5, 14}},
		{"mini-trench-4lv", []int{14, 4, 4, 6, 4, 4, 14}},
	}
	sizesFor := map[string][]float64{
		"mini-trench-3lv": {1, 0.5, 0.25, 0.5, 1},
		"mini-trench-4lv": {1, 0.5, 0.25, 0.125, 0.25, 0.5, 1},
	}
	for _, c := range cases {
		xc := []float64{0}
		for bi, cnt := range c.levels {
			h := sizesFor[c.name][bi]
			for i := 0; i < cnt; i++ {
				xc = append(xc, xc[len(xc)-1]+h)
			}
		}
		ny, nz := 6, 6
		yc := make([]float64, ny+1)
		zc := make([]float64, nz+1)
		for i := range yc {
			yc[i] = float64(i)
		}
		for i := range zc {
			zc[i] = float64(i)
		}
		m, err := mesh.New(c.name, xc, yc, zc)
		if err != nil {
			return nil, err
		}
		lv := mesh.AssignLevels(m, cfg.CFL/16, 0)
		op, err := sem.NewAcoustic3D(m, 4, false)
		if err != nil {
			return nil, err
		}
		u0 := make([]float64, op.NDof())
		for n := 0; n < op.NumNodes(); n++ {
			x, _, _ := op.NodeCoords(int32(n))
			u0[n] = 1 / (1 + x*x)
		}
		// Global Newmark at the fine step.
		g := newmark.New(op, lv.CoarseDt/float64(lv.PMax()))
		if err := g.SetInitial(u0, make([]float64, op.NDof())); err != nil {
			return nil, err
		}
		tNewmark := secondsPerCycle(func() { g.Run(lv.PMax()) })
		// Optimised LTS.
		s, err := lts.FromMeshLevels(op, lv, true)
		if err != nil {
			return nil, err
		}
		if err := s.SetInitial(u0, make([]float64, op.NDof())); err != nil {
			return nil, err
		}
		tLTS := secondsPerCycle(s.Step)
		model := s.ModelSpeedup()
		measured := tNewmark / tLTS
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", m.NumElements()),
			fmt.Sprintf("%d", lv.NumLevels),
			fmt.Sprintf("%.2f", model),
			fmt.Sprintf("%.2f", s.EffectiveSpeedup()),
			fmt.Sprintf("%.2f", measured),
			fmt.Sprintf("%.0f%%", measured/model*100),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("num_cpu = %d; each scheme steps one untimed warm-up cycle, then the fastest of 3 windows of >= 0.5 s of whole cycles counts", runtime.NumCPU()),
		"work speedup counts element-steps incl. the halo overhead; measured speedup is wall-clock",
		"paper §II-C: the optimised SPECFEM3D implementation exceeds 90% of the modelled speedup; our halo fraction is larger on these miniature meshes")
	return t, nil
}

// secondsPerCycle returns the steady-state wall time of one coarse cycle:
// an untimed warm-up cycle absorbs the lazy batch-plan build and first-touch
// page faults, then the fastest of three windows of whole cycles, each at
// least half a second long, counts.
func secondsPerCycle(cycle func()) float64 {
	cycle()
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		n, t0 := 0, time.Now()
		for time.Since(t0) < 500*time.Millisecond {
			cycle()
			n++
		}
		best = min(best, time.Since(t0).Seconds()/float64(n))
	}
	return best
}
