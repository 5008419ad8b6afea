package parallel

import (
	"fmt"
	"math"
	"testing"

	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/partition"
	"golts/internal/sem"
)

// The equivalence suite is the race-proof correctness contract of the
// engine: parallel trajectories must match the sequential reference within
// 1e-10 across worker counts {1,2,4,8}, two partitioners, and 1-3 LTS
// levels, and identical configurations must reproduce bitwise. Under
// -short (the -race CI job) the matrix shrinks to its corners.

const eqTol = 1e-10

func eqSetup(t testing.TB) (*mesh.Mesh, *sem.Acoustic3D) {
	t.Helper()
	// Grading 1 : 1/4 in x gives three natural p-levels to cap from.
	xc := []float64{0, 1, 2, 2.5, 2.75, 3, 3.25, 4.25}
	yc := []float64{0, 1, 2, 3}
	zc := []float64{0, 1, 2, 3}
	m, err := mesh.New("equiv3d", xc, yc, zc)
	if err != nil {
		t.Fatal(err)
	}
	op, err := sem.NewAcoustic3D(m, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	return m, op
}

func eqInitial(op *sem.Acoustic3D) ([]float64, []float64) {
	u0 := make([]float64, op.NDof())
	v0 := make([]float64, op.NDof())
	for n := 0; n < op.NumNodes(); n++ {
		x, y, z := op.NodeCoords(int32(n))
		u0[n] = math.Exp(-(x-2.8)*(x-2.8) - (y-1.5)*(y-1.5) - (z-1.5)*(z-1.5))
		v0[n] = 0.1 * math.Cos(0.7*x) * math.Cos(0.5*y) * math.Cos(0.4*z)
	}
	return u0, v0
}

func eqMatrix() (workers []int, methods []partition.Method, levels []int) {
	workers = []int{1, 2, 4, 8}
	methods = []partition.Method{partition.ScotchP, partition.Metis}
	levels = []int{1, 2, 3}
	if testing.Short() {
		workers = []int{1, 4}
		methods = methods[:1]
		levels = []int{1, 3}
	}
	return
}

// runLTS advances cycles LTS cycles on the given operator and returns the
// final displacement and velocity.
func runLTS(t *testing.T, op sem.BatchKernel, lv *mesh.Levels, u0, v0 []float64, cycles int) ([]float64, []float64) {
	t.Helper()
	s, err := lts.FromMeshLevels(op, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.U, u0)
	copy(s.V, v0)
	for c := 0; c < cycles; c++ {
		s.Step()
	}
	return s.U, s.V
}

func fieldScale(u []float64) float64 {
	s := 1.0
	for _, v := range u {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// TestEquivalenceLTS: parallel multi-level LTS trajectories match the
// sequential reference within 1e-10 for every (workers, partitioner,
// levels) combination.
func TestEquivalenceLTS(t *testing.T) {
	m, op := eqSetup(t)
	u0, v0 := eqInitial(op)
	workers, methods, levels := eqMatrix()
	const cycles = 8
	for _, nlv := range levels {
		lv := mesh.AssignLevels(m, 0.3/9, nlv)
		refU, refV := runLTS(t, op, lv, u0, v0, cycles)
		tol := eqTol * fieldScale(refU)
		for _, meth := range methods {
			for _, k := range workers {
				t.Run(fmt.Sprintf("levels=%d/%s/workers=%d", nlv, meth, k), func(t *testing.T) {
					part, err := partition.Assign(m, lv, k, meth, 7)
					if err != nil {
						t.Fatal(err)
					}
					pop, err := NewOperator(op, part, k)
					if err != nil {
						t.Fatal(err)
					}
					defer pop.Close()
					gotU, gotV := runLTS(t, pop, lv, u0, v0, cycles)
					if d := maxDiff(refU, gotU); d > tol {
						t.Errorf("U differs from sequential by %v (tol %v)", d, tol)
					}
					if d := maxDiff(refV, gotV); d > tol {
						t.Errorf("V differs from sequential by %v (tol %v)", d, tol)
					}
				})
			}
		}
	}
}

// TestEquivalenceNewmark: the global stepper on the engine matches the
// sequential stepper within 1e-10 across workers and partitioners.
func TestEquivalenceNewmark(t *testing.T) {
	m, op := eqSetup(t)
	u0, v0 := eqInitial(op)
	workers, methods, _ := eqMatrix()
	lv := mesh.AssignLevels(m, 0.3/9, 0)
	dt := lv.CoarseDt / float64(lv.PMax())
	steps := 30
	if testing.Short() {
		steps = 12
	}
	ref := newmark.New(op, dt)
	copy(ref.U, u0)
	copy(ref.V, v0)
	ref.Run(steps)
	tol := eqTol * fieldScale(ref.U)
	for _, meth := range methods {
		for _, k := range workers {
			t.Run(fmt.Sprintf("%s/workers=%d", meth, k), func(t *testing.T) {
				part, err := partition.Assign(m, lv, k, meth, 7)
				if err != nil {
					t.Fatal(err)
				}
				pop, err := NewOperator(op, part, k)
				if err != nil {
					t.Fatal(err)
				}
				defer pop.Close()
				s := newmark.New(pop, dt)
				copy(s.U, u0)
				copy(s.V, v0)
				s.Run(steps)
				if d := maxDiff(ref.U, s.U); d > tol {
					t.Errorf("U differs from sequential by %v (tol %v)", d, tol)
				}
				if d := maxDiff(ref.V, s.V); d > tol {
					t.Errorf("V differs from sequential by %v (tol %v)", d, tol)
				}
			})
		}
	}
}

// TestDeterminism: two runs with identical configuration produce bitwise
// identical fields — the sharded merge always sums ranks in the same
// order, independent of goroutine scheduling.
func TestDeterminism(t *testing.T) {
	m, op := eqSetup(t)
	u0, v0 := eqInitial(op)
	lv := mesh.AssignLevels(m, 0.3/9, 3)
	part, err := partition.Assign(m, lv, 4, partition.ScotchP, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]float64, []float64) {
		pop, err := NewOperator(op, part, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer pop.Close()
		return runLTS(t, pop, lv, u0, v0, 6)
	}
	u1, v1 := run()
	u2, v2 := run()
	for i := range u1 {
		if u1[i] != u2[i] || v1[i] != v2[i] {
			t.Fatalf("dof %d not bitwise reproducible: u %v vs %v, v %v vs %v",
				i, u1[i], u2[i], v1[i], v2[i])
		}
	}
}

// TestSingleWorkerBitwise: the K=1 engine reproduces the sequential LTS
// trajectory exactly — same element order, same accumulation order.
func TestSingleWorkerBitwise(t *testing.T) {
	m, op := eqSetup(t)
	u0, v0 := eqInitial(op)
	lv := mesh.AssignLevels(m, 0.3/9, 3)
	refU, refV := runLTS(t, op, lv, u0, v0, 6)
	pop, err := NewOperator(op, make([]int32, m.NumElements()), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	gotU, gotV := runLTS(t, pop, lv, u0, v0, 6)
	for i := range refU {
		if refU[i] != gotU[i] || refV[i] != gotV[i] {
			t.Fatalf("dof %d not bitwise equal to sequential", i)
		}
	}
}

// TestEquivalenceElastic covers the multi-component (Comps()==3) merge
// indexing: parallel LTS on the elastic operator matches the sequential
// reference within 1e-10.
func TestEquivalenceElastic(t *testing.T) {
	m, _ := eqSetup(t)
	op, err := sem.NewElastic3D(m, 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	u0 := make([]float64, op.NDof())
	v0 := make([]float64, op.NDof())
	nc := op.Comps()
	for n := 0; n < op.NumNodes(); n++ {
		x, y, z := op.NodeCoords(int32(n))
		g := math.Exp(-(x-2.8)*(x-2.8) - (y-1.5)*(y-1.5) - (z-1.5)*(z-1.5))
		for c := 0; c < nc; c++ {
			u0[n*nc+c] = g * float64(c+1) / 3
			v0[n*nc+c] = 0.05 * math.Cos(0.6*x+0.4*float64(c)) * math.Cos(0.5*y)
		}
	}
	lv := mesh.AssignLevels(m, 0.3/4, 3)
	refU, refV := runLTS(t, op, lv, u0, v0, 6)
	tol := eqTol * fieldScale(refU)
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", k), func(t *testing.T) {
			part, err := partition.Assign(m, lv, k, partition.ScotchP, 7)
			if err != nil {
				t.Fatal(err)
			}
			pop, err := NewOperator(op, part, k)
			if err != nil {
				t.Fatal(err)
			}
			defer pop.Close()
			gotU, gotV := runLTS(t, pop, lv, u0, v0, 6)
			if d := maxDiff(refU, gotU); d > tol {
				t.Errorf("U differs from sequential by %v (tol %v)", d, tol)
			}
			if d := maxDiff(refV, gotV); d > tol {
				t.Errorf("V differs from sequential by %v (tol %v)", d, tol)
			}
		})
	}
}

// TestStressInterleavedSchemes drives many applies through several cached
// plans at more workers than cores — grist for the -race job: the compute
// and merge phases of consecutive applies from different schemes must
// never overlap incorrectly.
func TestStressInterleavedSchemes(t *testing.T) {
	m, op := eqSetup(t)
	u0, v0 := eqInitial(op)
	lv := mesh.AssignLevels(m, 0.3/9, 3)
	part, err := partition.Assign(m, lv, 8, partition.ScotchP, 7)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := NewOperator(op, part, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	s, err := lts.FromMeshLevels(pop, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.U, u0)
	copy(s.V, v0)
	g := newmark.New(pop, lv.CoarseDt/float64(lv.PMax()))
	copy(g.U, u0)
	copy(g.V, v0)
	cycles := 8
	if testing.Short() {
		cycles = 3
	}
	for i := 0; i < cycles; i++ {
		s.Step()
		g.Run(2)
	}
	st := pop.Stats()
	if st.Applies == 0 || st.Volume == 0 {
		t.Fatalf("engine did no work: %+v", st)
	}
}
