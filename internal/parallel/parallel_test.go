package parallel

import (
	"math"
	"os"
	"testing"

	"golts/internal/leakgate"
	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/partition"
	"golts/internal/sem"
)

// TestMain fails the package when a test leaves an engine's worker
// goroutines running: every engine a test builds must be closed.
func TestMain(m *testing.M) {
	os.Exit(leakgate.Run(m))
}

func setup3D(t testing.TB) (*sem.Acoustic3D, *mesh.Levels, []int32, int) {
	t.Helper()
	xc := []float64{0, 1, 2, 2.5, 2.75, 3.75, 4.75}
	m, err := mesh.New("par3d", xc, []float64{0, 1, 2, 3}, []float64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	op, err := sem.NewAcoustic3D(m, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	lv := mesh.AssignLevels(m, 0.3/9, 0)
	const k = 4
	res, err := partition.PartitionMesh(m, lv, partition.Options{K: k, Method: partition.ScotchP, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return op, lv, res.Part, k
}

func maxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestAddKuMatchesSequential(t *testing.T) {
	op, _, part, k := setup3D(t)
	pop, err := NewOperator(op, part, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	u := make([]float64, op.NDof())
	for i := range u {
		u[i] = math.Sin(0.13 * float64(i))
	}
	seq := make([]float64, op.NDof())
	par := make([]float64, op.NDof())
	elems := sem.AllElements(op)
	op.AddKu(seq, u, elems)
	pop.AddKu(par, u, elems)
	scale := 0.0
	for _, v := range seq {
		scale = math.Max(scale, math.Abs(v))
	}
	if d := maxDiff(seq, par); d > 1e-12*scale {
		t.Errorf("parallel AddKu differs by %v (scale %v)", d, scale)
	}
	st := pop.Stats()
	if st.Applies != 1 || st.Messages == 0 || st.Volume == 0 {
		t.Errorf("stats not accumulated: %+v", st)
	}
}

func TestAddKuRestrictedElements(t *testing.T) {
	op, _, part, k := setup3D(t)
	pop, err := NewOperator(op, part, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	u := make([]float64, op.NDof())
	for i := range u {
		u[i] = float64(i % 11)
	}
	sub := []int32{3, 4, 5, 20, 21}
	seq := make([]float64, op.NDof())
	par := make([]float64, op.NDof())
	op.AddKu(seq, u, sub)
	pop.AddKu(par, u, sub)
	if d := maxDiff(seq, par); d > 1e-10 {
		t.Errorf("restricted parallel AddKu differs by %v", d)
	}
}

// TestParallelNewmark: the global stepper on the partitioned operator
// reproduces the sequential trajectory.
func TestParallelNewmark(t *testing.T) {
	op, lv, part, k := setup3D(t)
	pop, err := NewOperator(op, part, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	dt := lv.CoarseDt / float64(lv.PMax())
	sSeq := newmark.New(op, dt)
	sPar := newmark.New(pop, dt)
	u0 := make([]float64, op.NDof())
	for n := 0; n < op.NumNodes(); n++ {
		x, y, z := op.NodeCoords(int32(n))
		u0[n] = math.Exp(-((x - 2.4) * (x - 2.4)) - (y-1.5)*(y-1.5) - (z-1.5)*(z-1.5))
	}
	v0 := make([]float64, op.NDof())
	copy(sSeq.U, u0)
	copy(sSeq.V, v0)
	copy(sPar.U, u0)
	copy(sPar.V, v0)
	for i := 0; i < 40; i++ {
		sSeq.Step()
		sPar.Step()
	}
	scale := 0.0
	for _, v := range sSeq.U {
		scale = math.Max(scale, math.Abs(v))
	}
	if d := maxDiff(sSeq.U, sPar.U); d > 1e-11*scale {
		t.Errorf("parallel Newmark differs by %v (scale %v)", d, scale)
	}
}

// TestParallelLTS: the multi-level LTS scheme runs unchanged on the
// partitioned operator — the paper's parallel LTS execution — and matches
// the sequential run.
func TestParallelLTS(t *testing.T) {
	op, lv, part, k := setup3D(t)
	pop, err := NewOperator(op, part, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	sSeq, err := lts.FromMeshLevels(op, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	sPar, err := lts.FromMeshLevels(pop, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	u0 := make([]float64, op.NDof())
	for n := 0; n < op.NumNodes(); n++ {
		x, y, z := op.NodeCoords(int32(n))
		u0[n] = math.Cos(0.8*x) * math.Cos(0.6*y) * math.Cos(0.9*z)
	}
	v0 := make([]float64, op.NDof())
	copy(sSeq.U, u0)
	copy(sSeq.V, v0)
	copy(sPar.U, u0)
	copy(sPar.V, v0)
	for c := 0; c < 10; c++ {
		sSeq.Step()
	}
	for c := 0; c < 10; c++ {
		sPar.Step()
	}
	scale := 0.0
	for _, v := range sSeq.U {
		scale = math.Max(scale, math.Abs(v))
	}
	if d := maxDiff(sSeq.U, sPar.U); d > 1e-11*scale {
		t.Errorf("parallel LTS differs by %v (scale %v)", d, scale)
	}
	// LTS communicates every substep of every level: many more messages
	// than cycles.
	st := pop.Stats()
	if st.Applies < 10*int64(lv.PMax()) {
		t.Errorf("expected at least %d applies, got %d", 10*lv.PMax(), st.Applies)
	}
}

func TestOperatorValidation(t *testing.T) {
	op, _, part, _ := setup3D(t)
	if _, err := NewOperator(op, part[:3], 4); err == nil {
		t.Error("expected error for short partition")
	}
	bad := append([]int32(nil), part...)
	bad[0] = 99
	if _, err := NewOperator(op, bad, 4); err == nil {
		t.Error("expected error for out-of-range rank")
	}
}

func TestCloseIdempotent(t *testing.T) {
	op, _, part, k := setup3D(t)
	pop, err := NewOperator(op, part, k)
	if err != nil {
		t.Fatal(err)
	}
	pop.Close()
	pop.Close() // must not panic
}

func BenchmarkParallelApply(b *testing.B) {
	op, _, part, k := setup3D(b)
	pop, err := NewOperator(op, part, k)
	if err != nil {
		b.Fatal(err)
	}
	defer pop.Close()
	u := make([]float64, op.NDof())
	dst := make([]float64, op.NDof())
	elems := sem.AllElements(op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop.AddKu(dst, u, elems)
	}
}
