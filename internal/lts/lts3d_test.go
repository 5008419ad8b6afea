package lts

import (
	"math"
	"testing"

	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/sem"
)

// graded3D builds a small 3-D acoustic setup with a refined x-band, and
// returns the operator and level assignment.
func graded3D(t testing.TB) (*sem.Acoustic3D, *mesh.Levels, *mesh.Mesh) {
	t.Helper()
	// 6 columns: sizes {1, 1, 0.5, 0.25, 1, 1} -> levels {1,1,2,3,1,1}.
	xc := []float64{0, 1, 2, 2.5, 2.75, 3.75, 4.75}
	yc := []float64{0, 1, 2, 3}
	zc := []float64{0, 1, 2, 3}
	m, err := mesh.New("graded3d", xc, yc, zc)
	if err != nil {
		t.Fatal(err)
	}
	op, err := sem.NewAcoustic3D(m, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	lv := mesh.AssignLevels(m, 0.3/16, 0) // CFL scaled for degree-4 GLL spacing
	if err := lv.Validate(m); err != nil {
		t.Fatal(err)
	}
	if lv.NumLevels != 3 {
		t.Fatalf("expected 3 levels, got %d", lv.NumLevels)
	}
	return op, lv, m
}

// TestLTS3DMatchesGlobalNewmark: LTS on the graded 3-D mesh and global
// Newmark at the fine step approximate the same solution; their difference
// after a fixed simulated time must be small compared to the field.
func TestLTS3DMatchesGlobalNewmark(t *testing.T) {
	op, lv, _ := graded3D(t)
	s, err := FromMeshLevels(op, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	fineDt := lv.CoarseDt / float64(lv.PMax())
	g := newmark.New(op, fineDt)
	u0 := make([]float64, op.NDof())
	for n := 0; n < op.NumNodes(); n++ {
		x, y, z := op.NodeCoords(int32(n))
		dx, dy, dz := x-2.4, y-1.5, z-1.5
		u0[n] = math.Exp(-1.5 * (dx*dx + dy*dy + dz*dz))
	}
	v0 := make([]float64, op.NDof())
	copy(s.U, u0)
	copy(s.V, v0)
	copy(g.U, u0)
	copy(g.V, v0)
	cycles := 24
	s.Run(cycles)
	g.Run(cycles * lv.PMax())
	if math.Abs(s.Time()-g.Time()) > 1e-12 {
		t.Fatalf("time mismatch: %v vs %v", s.Time(), g.Time())
	}
	scale, diff := 0.0, 0.0
	for i := range s.U {
		scale = math.Max(scale, math.Abs(g.U[i]))
		diff = math.Max(diff, math.Abs(s.U[i]-g.U[i]))
	}
	// Both schemes are O(Δt²) accurate; their difference is bounded by the
	// coarse-step truncation error.
	if diff > 0.02*scale {
		t.Errorf("LTS vs Newmark difference %v (scale %v)", diff, scale)
	}
}

// TestLTS3DOptimizedMatchesReference on the 3-D mesh.
func TestLTS3DOptimizedMatchesReference(t *testing.T) {
	op, lv, _ := graded3D(t)
	mk := func(optimized bool) *Scheme {
		s, err := FromMeshLevels(op, lv, optimized)
		if err != nil {
			t.Fatal(err)
		}
		u0 := make([]float64, op.NDof())
		for n := 0; n < op.NumNodes(); n++ {
			x, y, z := op.NodeCoords(int32(n))
			u0[n] = math.Sin(x) * math.Cos(0.7*y) * math.Cos(0.5*z)
		}
		copy(s.U, u0)
		return s
	}
	ref, opt := mk(false), mk(true)
	ref.Run(10)
	opt.Run(10)
	scale := 0.0
	for _, v := range ref.U {
		scale = math.Max(scale, math.Abs(v))
	}
	if d := maxAbsDiff(ref.U, opt.U); d > 1e-10*scale {
		t.Errorf("optimized differs from reference by %v (scale %v)", d, scale)
	}
	// The optimised engine must do strictly less work per cycle than the
	// full-vector non-LTS scheme would.
	if opt.ActualElemStepsPerCycle() >= opt.NonLTSElemStepsPerCycle() {
		t.Errorf("optimised LTS does %d elem-steps vs %d non-LTS",
			opt.ActualElemStepsPerCycle(), opt.NonLTSElemStepsPerCycle())
	}
}

// TestLTS3DSourceSeismogram: a Ricker source inside the fine region
// produces nearly identical seismograms under LTS and global Newmark.
func TestLTS3DSourceSeismogram(t *testing.T) {
	op, lv, _ := graded3D(t)
	src := sem.Source{
		Dof: int(op.NearestNode(2.6, 1.5, 1.5)),
		W:   sem.Ricker{F0: 2.5, T0: 0.5},
	}
	rcvDof := int(op.NearestNode(1.0, 1.0, 1.0))

	s, err := FromMeshLevels(op, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSources([]sem.Source{src})
	fineDt := lv.CoarseDt / float64(lv.PMax())
	g := newmark.New(op, fineDt)
	g.Sources = []sem.Source{src}

	cycles := 170 // ~3.2 time units: wavelet (t0=0.5) plus ~1.75 travel time
	ltsRec := make([]float64, 0, cycles)
	newRec := make([]float64, 0, cycles)
	for i := 0; i < cycles; i++ {
		s.Step()
		ltsRec = append(ltsRec, s.U[rcvDof])
		g.Run(lv.PMax())
		newRec = append(newRec, g.U[rcvDof])
	}
	peak, rms, rmsDiff := 0.0, 0.0, 0.0
	for i, v := range newRec {
		peak = math.Max(peak, math.Abs(v))
		rms += v * v
		d := ltsRec[i] - v
		rmsDiff += d * d
	}
	if peak == 0 {
		t.Fatal("no signal arrived at receiver")
	}
	// Both schemes carry O(Δt²) truncation error at the coarse step, so
	// they agree to that accuracy, not exactly.
	for i := range ltsRec {
		if math.Abs(ltsRec[i]-newRec[i]) > 0.10*peak {
			t.Fatalf("seismogram sample %d: LTS %v vs Newmark %v (peak %v)",
				i, ltsRec[i], newRec[i], peak)
		}
	}
	if math.Sqrt(rmsDiff/rms) > 0.05 {
		t.Errorf("relative RMS seismogram misfit %.4f, want < 0.05", math.Sqrt(rmsDiff/rms))
	}
}

// TestLTSElastic3D: the scheme also runs on the 3-component elastic
// operator and stays consistent between engines.
func TestLTSElastic3D(t *testing.T) {
	xc := []float64{0, 1, 2, 2.5, 3.5}
	m, err := mesh.New("el", xc, []float64{0, 1, 2}, []float64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	op, err := sem.NewElastic3D(m, 3, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	lv := mesh.AssignLevels(m, 0.3/9, 0)
	if lv.NumLevels != 2 {
		t.Fatalf("want 2 levels, got %d", lv.NumLevels)
	}
	mk := func(optimized bool) *Scheme {
		s, err := FromMeshLevels(op, lv, optimized)
		if err != nil {
			t.Fatal(err)
		}
		u0 := make([]float64, op.NDof())
		for n := 0; n < op.NumNodes(); n++ {
			x, y, z := op.NodeCoords(int32(n))
			r := math.Exp(-2 * ((x-2.2)*(x-2.2) + (y-1)*(y-1) + (z-1)*(z-1)))
			u0[3*n] = r
			u0[3*n+1] = 0.5 * r
		}
		copy(s.U, u0)
		return s
	}
	ref, opt := mk(false), mk(true)
	ref.Run(8)
	opt.Run(8)
	scale := 0.0
	for _, v := range ref.U {
		scale = math.Max(scale, math.Abs(v))
	}
	if d := maxAbsDiff(ref.U, opt.U); d > 1e-10*scale {
		t.Errorf("elastic optimized differs from reference by %v (scale %v)", d, scale)
	}
	// Stability over a longer run.
	opt.Run(200)
	for _, v := range opt.U {
		if math.IsNaN(v) {
			t.Fatal("elastic LTS produced NaN")
		}
	}
}

func BenchmarkLTS3DCycleVsNewmark(b *testing.B) {
	op, lv, _ := graded3D(b)
	s, err := FromMeshLevels(op, lv, true)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lts-cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	g := newmark.New(op, lv.CoarseDt/float64(lv.PMax()))
	b.Run("newmark-equivalent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Run(lv.PMax())
		}
	})
}

// BenchmarkSchemeNew: building the scheme of seq-lts-acoustic — trench
// 0.02, degree 4, acoustic, level CFL 0.4/16 — on a built operator: the
// level sets and one batch plan per level.
func BenchmarkSchemeNew(b *testing.B) {
	m := mesh.Generators["trench"](0.02)
	lv := mesh.AssignLevels(m, 0.4/16, 0)
	op, err := sem.NewAcoustic3D(m, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := FromMeshLevels(op, lv, true); err != nil {
			b.Fatal(err)
		}
	}
}
