package sem

import (
	"math"
	"math/rand"
	"testing"

	"golts/internal/mesh"
)

func mustAcoustic(m *mesh.Mesh, deg int, periodic bool) *Acoustic3D {
	op, err := NewAcoustic3D(m, deg, periodic)
	if err != nil {
		panic(err)
	}
	return op
}

func mustElastic(m *mesh.Mesh, deg int, periodic bool) *Elastic3D {
	op, err := NewElastic3D(m, deg, periodic, 0)
	if err != nil {
		panic(err)
	}
	return op
}

func TestAcousticMassMatchesVolume(t *testing.T) {
	m := mesh.Uniform(3, 2, 2, 0.7, 1)
	op := mustAcoustic(m, 4, false)
	total := 0.0
	for _, mi := range op.MInv() {
		total += 1 / mi
	}
	want := 0.7 * 0.7 * 0.7 * 12 // volume * rho
	if math.Abs(total-want) > 1e-10 {
		t.Errorf("total mass %v, want %v", total, want)
	}
}

func TestAcousticKuConstantIsZero(t *testing.T) {
	for _, periodic := range []bool{false, true} {
		m := mesh.Uniform(2, 2, 2, 1, 1)
		op := mustAcoustic(m, 3, periodic)
		u := make([]float64, op.NDof())
		for i := range u {
			u[i] = -2.5
		}
		ku := make([]float64, op.NDof())
		op.AddKu(ku, u, AllElements(op))
		for i, v := range ku {
			if math.Abs(v) > 1e-9 {
				t.Fatalf("periodic=%v: Ku(const) nonzero at %d: %v", periodic, i, v)
			}
		}
	}
}

func TestAcousticSymmetry(t *testing.T) {
	m := mesh.Uniform(2, 3, 2, 1, 1)
	m.C[3] = 2.5 // heterogeneous material
	op := mustAcoustic(m, 4, false)
	rng := rand.New(rand.NewSource(3))
	n := op.NDof()
	elems := AllElements(op)
	u := make([]float64, n)
	v := make([]float64, n)
	for i := range u {
		u[i] = rng.NormFloat64()
		v[i] = rng.NormFloat64()
	}
	ku := make([]float64, n)
	kv := make([]float64, n)
	op.AddKu(ku, u, elems)
	op.AddKu(kv, v, elems)
	var vku, ukv float64
	for i := range u {
		vku += v[i] * ku[i]
		ukv += u[i] * kv[i]
	}
	if math.Abs(vku-ukv) > 1e-8*math.Max(1, math.Abs(vku)) {
		t.Fatalf("K not symmetric: %v vs %v", vku, ukv)
	}
}

// TestAcousticMatches1D: a field varying only in x on a 3-D mesh must give
// the same acceleration as the 1-D operator on the corresponding line.
func TestAcousticMatches1D(t *testing.T) {
	const deg = 4
	nx := 5
	m := mesh.Uniform(nx, 2, 2, 1, 1.3)
	op3 := mustAcoustic(m, deg, false)
	xc := make([]float64, nx+1)
	c1 := make([]float64, nx)
	rho := make([]float64, nx)
	for i := range xc {
		xc[i] = float64(i)
	}
	for i := range c1 {
		c1[i] = 1.3
		rho[i] = 1
	}
	op1, err := NewOp1D(xc, c1, rho, deg, FreeBC, FreeBC)
	if err != nil {
		t.Fatal(err)
	}
	// u(x) only.
	u3 := make([]float64, op3.NDof())
	u1 := make([]float64, op1.NDof())
	for gi := 0; gi <= deg*nx; gi++ {
		val := math.Sin(1.1 * op1.NodeX(gi))
		u1[gi] = val
		for j := 0; j <= deg*2; j++ {
			for k := 0; k <= deg*2; k++ {
				u3[op3.NodeIndex(gi, j, k)] = val
			}
		}
	}
	a3 := make([]float64, op3.NDof())
	a1 := make([]float64, op1.NDof())
	accel(op3, a3, u3, AllElements(op3))
	accel(op1, a1, u1, AllElements(op1))
	for gi := 0; gi <= deg*nx; gi++ {
		// Sample at an interior (j, k) node.
		got := a3[op3.NodeIndex(gi, 3, 5)]
		want := a1[gi]
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("accel mismatch at x-node %d: 3D %v vs 1D %v", gi, got, want)
		}
	}
}

func TestAcousticRestrictedApplication(t *testing.T) {
	m := mesh.Uniform(4, 3, 3, 1, 1)
	op := mustAcoustic(m, 2, false)
	n := op.NDof()
	u := make([]float64, n)
	// Support: strictly interior nodes of element (1,1,1).
	e := m.EIndex(1, 1, 1)
	var nb []int32
	nb = op.ElemNodes(e, nb)
	for _, nd := range nb {
		u[nd] = float64(nd%7) + 1
	}
	// Elements sharing any node with e: its 3x3x3 neighborhood.
	var adj []int32
	for dk := -1; dk <= 1; dk++ {
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				adj = append(adj, int32(m.EIndex(1+di, 1+dj, 1+dk)))
			}
		}
	}
	full := make([]float64, n)
	part := make([]float64, n)
	op.AddKu(full, u, AllElements(op))
	op.AddKu(part, u, adj)
	for i := range full {
		if full[i] != part[i] {
			t.Fatalf("restricted application differs at %d: %v vs %v", i, full[i], part[i])
		}
	}
}

func TestElasticRigidMotionsInNullSpace(t *testing.T) {
	m := mesh.Uniform(3, 2, 2, 0.8, 2)
	op := mustElastic(m, 4, false)
	n := op.NumNodes()
	// Rigid translations along each axis, plus an infinitesimal rotation
	// u = ω × x (a linear field, exactly representable at degree >= 1, with
	// zero strain).
	fields := make([][]float64, 0, 4)
	for c := 0; c < 3; c++ {
		u := make([]float64, op.NDof())
		for nd := 0; nd < n; nd++ {
			u[3*nd+c] = 1
		}
		fields = append(fields, u)
	}
	rot := make([]float64, op.NDof())
	omega := [3]float64{0.3, -1.1, 0.7}
	for nd := 0; nd < n; nd++ {
		x, y, z := op.NodeCoords(int32(nd))
		rot[3*nd+0] = omega[1]*z - omega[2]*y
		rot[3*nd+1] = omega[2]*x - omega[0]*z
		rot[3*nd+2] = omega[0]*y - omega[1]*x
	}
	fields = append(fields, rot)
	for fi, u := range fields {
		ku := make([]float64, op.NDof())
		op.AddKu(ku, u, AllElements(op))
		for i, v := range ku {
			if math.Abs(v) > 1e-8 {
				t.Fatalf("field %d: Ku nonzero at dof %d: %v", fi, i, v)
			}
		}
	}
}

func TestElasticSymmetryAndPSD(t *testing.T) {
	m := mesh.Uniform(2, 2, 2, 1, 1.7)
	m.Rho[0] = 2
	op := mustElastic(m, 3, false)
	rng := rand.New(rand.NewSource(4))
	n := op.NDof()
	elems := AllElements(op)
	u := make([]float64, n)
	v := make([]float64, n)
	for i := range u {
		u[i] = rng.NormFloat64()
		v[i] = rng.NormFloat64()
	}
	ku := make([]float64, n)
	kv := make([]float64, n)
	op.AddKu(ku, u, elems)
	op.AddKu(kv, v, elems)
	var vku, ukv, uku float64
	for i := range u {
		vku += v[i] * ku[i]
		ukv += u[i] * kv[i]
		uku += u[i] * ku[i]
	}
	if math.Abs(vku-ukv) > 1e-8*math.Max(1, math.Abs(vku)) {
		t.Fatalf("elastic K not symmetric: %v vs %v", vku, ukv)
	}
	if uku < -1e-9 {
		t.Fatalf("elastic K not PSD: %v", uku)
	}
}

// TestElasticPWaveMatchesAcoustic: for displacement u = (f(x), 0, 0) on a
// periodic mesh, the elastic operator reduces to the scalar operator with
// modulus λ+2μ = ρ c_p², so the x-acceleration must match the acoustic
// operator built with the same c_p.
func TestElasticPWaveMatchesAcoustic(t *testing.T) {
	const deg = 4
	m := mesh.Uniform(4, 2, 2, 1, 1.5)
	el := mustElastic(m, deg, true)
	ac := mustAcoustic(m, deg, true)
	uE := make([]float64, el.NDof())
	uA := make([]float64, ac.NDof())
	kx := 2 * math.Pi / 4.0
	for nd := 0; nd < ac.NumNodes(); nd++ {
		x, _, _ := ac.NodeCoords(int32(nd))
		val := math.Cos(kx * x)
		uA[nd] = val
		uE[3*nd] = val
	}
	aE := make([]float64, el.NDof())
	aA := make([]float64, ac.NDof())
	accel(el, aE, uE, AllElements(el))
	accel(ac, aA, uA, AllElements(ac))
	for nd := 0; nd < ac.NumNodes(); nd++ {
		if math.Abs(aE[3*nd]-aA[nd]) > 1e-8*math.Max(1, math.Abs(aA[nd])) {
			t.Fatalf("node %d: elastic %v vs acoustic %v", nd, aE[3*nd], aA[nd])
		}
		if math.Abs(aE[3*nd+1]) > 1e-9 || math.Abs(aE[3*nd+2]) > 1e-9 {
			t.Fatalf("node %d: transverse acceleration should vanish: %v %v", nd, aE[3*nd+1], aE[3*nd+2])
		}
	}
}

func TestElasticRejectsBadCsRatio(t *testing.T) {
	m := mesh.Uniform(2, 2, 2, 1, 1)
	if _, err := NewElastic3D(m, 2, false, 0.9); err == nil {
		t.Error("expected error for cs/cp = 0.9")
	}
}

func TestClosestNode(t *testing.T) {
	m := mesh.Uniform(4, 4, 4, 1, 1)
	op := mustAcoustic(m, 4, false)
	n := op.NearestNode(2.0, 1.0, 3.0)
	x, y, z := op.NodeCoords(n)
	if math.Abs(x-2) > 1e-12 || math.Abs(y-1) > 1e-12 || math.Abs(z-3) > 1e-12 {
		t.Errorf("closest node at (%v,%v,%v), want (2,1,3)", x, y, z)
	}
}

func TestRickerWavelet(t *testing.T) {
	w := Ricker{F0: 2, T0: 0.6}
	if got := w.Amp(0.6); math.Abs(got-1) > 1e-12 {
		t.Errorf("Ricker peak %v, want 1", got)
	}
	if got := w.Amp(10); math.Abs(got) > 1e-10 {
		t.Errorf("Ricker tail %v, want ~0", got)
	}
	// Integral of a Ricker wavelet over the real line is zero.
	s := 0.0
	for ti := 0; ti < 4000; ti++ {
		s += w.Amp(float64(ti) * 0.001)
	}
	if math.Abs(s*0.001) > 1e-6 {
		t.Errorf("Ricker integral %v, want ~0", s*0.001)
	}
}

func TestSpongeProfile(t *testing.T) {
	m := mesh.Uniform(4, 4, 4, 1, 1)
	op := mustAcoustic(m, 2, false)
	// Absorb on all faces except z0 (free surface).
	sigma := SpongeProfile(op.NumNodes(), op.NodeCoords, 0, 4, 0, 4, 0, 4,
		[6]bool{true, true, true, true, false, true}, 1.0, 10)
	// Center node undamped.
	c := op.NearestNode(2, 2, 2)
	if sigma[c] != 0 {
		t.Errorf("center damped: %v", sigma[c])
	}
	// x0 face fully damped.
	f := op.NearestNode(0, 2, 2)
	if math.Abs(sigma[f]-10) > 1e-12 {
		t.Errorf("x0 face sigma %v, want 10", sigma[f])
	}
	// z0 face (free surface) undamped at interior (x, y).
	fs := op.NearestNode(2, 2, 0)
	if sigma[fs] != 0 {
		t.Errorf("free surface damped: %v", sigma[fs])
	}
}

func BenchmarkAcousticAddKu125Node(b *testing.B) {
	m := mesh.Uniform(6, 6, 6, 1, 1)
	op := mustAcoustic(m, 4, false)
	u := make([]float64, op.NDof())
	for i := range u {
		u[i] = math.Sin(float64(i) * 0.01)
	}
	dst := make([]float64, op.NDof())
	elems := AllElements(op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.AddKu(dst, u, elems)
	}
	b.ReportMetric(float64(b.N)*float64(len(elems))/b.Elapsed().Seconds(), "elem/s")
}

func BenchmarkElasticAddKu125Node(b *testing.B) {
	m := mesh.Uniform(4, 4, 4, 1, 1)
	op := mustElastic(m, 4, false)
	u := make([]float64, op.NDof())
	for i := range u {
		u[i] = math.Sin(float64(i) * 0.01)
	}
	dst := make([]float64, op.NDof())
	elems := AllElements(op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.AddKu(dst, u, elems)
	}
	b.ReportMetric(float64(b.N)*float64(len(elems))/b.Elapsed().Seconds(), "elem/s")
}
