package sem

import (
	"math"
	"math/rand"
	"testing"

	"golts/internal/gll"
)

func uniform1D(ne int, l float64, c float64, deg int, left, right BC1D) *Op1D {
	xc := make([]float64, ne+1)
	cs := make([]float64, ne)
	rho := make([]float64, ne)
	for i := range xc {
		xc[i] = l * float64(i) / float64(ne)
	}
	for i := range cs {
		cs[i] = c
		rho[i] = 1
	}
	op, err := NewOp1D(xc, cs, rho, deg, left, right)
	if err != nil {
		panic(err)
	}
	return op
}

func TestOp1DValidation(t *testing.T) {
	if _, err := NewOp1D([]float64{0}, nil, nil, 4, FreeBC, FreeBC); err == nil {
		t.Error("expected error for empty mesh")
	}
	if _, err := NewOp1D([]float64{0, 1}, []float64{1}, []float64{1, 2}, 4, FreeBC, FreeBC); err == nil {
		t.Error("expected error for material length mismatch")
	}
	if _, err := NewOp1D([]float64{0, 1, 0.5}, []float64{1, 1}, []float64{1, 1}, 4, FreeBC, FreeBC); err == nil {
		t.Error("expected error for inverted element")
	}
	if _, err := NewOp1D([]float64{0, 1}, []float64{-1}, []float64{1}, 4, FreeBC, FreeBC); err == nil {
		t.Error("expected error for negative velocity")
	}
}

func TestOp1DMassMatchesDomain(t *testing.T) {
	// Total mass Σ 1/minv must equal ρ * length.
	op := uniform1D(7, 3.5, 2, 4, FreeBC, FreeBC)
	total := 0.0
	for _, mi := range op.MInv() {
		total += 1 / mi
	}
	if math.Abs(total-3.5) > 1e-12 {
		t.Errorf("total mass %v, want 3.5", total)
	}
}

func TestOp1DKuConstantIsZero(t *testing.T) {
	op := uniform1D(5, 1, 1, 4, FreeBC, FreeBC)
	u := make([]float64, op.NDof())
	for i := range u {
		u[i] = 7.3
	}
	ku := make([]float64, op.NDof())
	op.AddKu(ku, u, AllElements(op))
	for i, v := range ku {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("Ku(const) nonzero at %d: %v", i, v)
		}
	}
}

func TestOp1DSymmetryAndPSD(t *testing.T) {
	op := uniform1D(6, 2, 1.5, 4, FreeBC, FreeBC)
	rng := rand.New(rand.NewSource(1))
	n := op.NDof()
	elems := AllElements(op)
	for trial := 0; trial < 10; trial++ {
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
		if math.Abs(vku-ukv) > 1e-9*math.Max(1, math.Abs(vku)) {
			t.Fatalf("K not symmetric: %v vs %v", vku, ukv)
		}
		if uku < -1e-10 {
			t.Fatalf("K not positive semidefinite: uᵀKu = %v", uku)
		}
	}
}

// TestOp1DMatchesDenseAssembly compares the matrix-free kernel against a
// brute-force dense assembly K_ij = Σ_e μ/J Σ_q w_q l_i'(ξ_q) l_j'(ξ_q).
func TestOp1DMatchesDenseAssembly(t *testing.T) {
	xc := []float64{0, 0.5, 1.3, 1.7, 3}
	c := []float64{1, 2, 0.7, 1.4}
	rho := []float64{1, 0.5, 2, 1}
	deg := 3
	op, err := NewOp1D(xc, c, rho, deg, FreeBC, FreeBC)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gll.New(deg)
	if err != nil {
		t.Fatal(err)
	}
	n := op.NDof()
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for e := 0; e < 4; e++ {
		j := (xc[e+1] - xc[e]) / 2
		mu := rho[e] * c[e] * c[e]
		for a := 0; a <= deg; a++ {
			for b := 0; b <= deg; b++ {
				kab := 0.0
				for q := 0; q <= deg; q++ {
					kab += r.Weights[q] * r.D[q][a] * r.D[q][b]
				}
				dense[e*deg+a][e*deg+b] += mu / j * kab
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	u := make([]float64, n)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	ku := make([]float64, n)
	op.AddKu(ku, u, AllElements(op))
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += dense[i][j] * u[j]
		}
		if math.Abs(ku[i]-want) > 1e-10 {
			t.Fatalf("Ku[%d] = %v, dense gives %v", i, ku[i], want)
		}
	}
}

// TestOp1DRestrictedApplication: applying only the elements whose nodal
// values are nonzero gives the same result as applying all elements — the
// property the LTS active sets rely on.
func TestOp1DRestrictedApplication(t *testing.T) {
	op := uniform1D(10, 1, 1, 4, FreeBC, FreeBC)
	n := op.NDof()
	u := make([]float64, n)
	// Support only inside elements 3 and 4.
	for i := 3*4 + 1; i < 5*4; i++ {
		u[i] = float64(i)
	}
	full := make([]float64, n)
	op.AddKu(full, u, AllElements(op))
	part := make([]float64, n)
	op.AddKu(part, u, []int32{2, 3, 4, 5})
	for i := range full {
		if full[i] != part[i] {
			t.Fatalf("restricted application differs at %d: %v vs %v", i, full[i], part[i])
		}
	}
}

func TestOp1DDirichletZerosMass(t *testing.T) {
	op := uniform1D(4, 1, 1, 4, FixedBC, FreeBC)
	if op.MInv()[0] != 0 {
		t.Error("left boundary inverse mass not zeroed")
	}
	if op.MInv()[op.NumNodes()-1] == 0 {
		t.Error("right boundary should be free")
	}
}

func TestOp1DNodeX(t *testing.T) {
	op := uniform1D(4, 4, 1, 4, FreeBC, FreeBC)
	if got := op.NodeX(0); got != 0 {
		t.Errorf("NodeX(0) = %v", got)
	}
	if got := op.NodeX(op.NumNodes() - 1); math.Abs(got-4) > 1e-12 {
		t.Errorf("NodeX(last) = %v, want 4", got)
	}
	if got := op.NodeX(4); math.Abs(got-1) > 1e-12 {
		t.Errorf("NodeX(4) = %v, want 1 (element boundary)", got)
	}
	// Nodes strictly increasing.
	for i := 1; i < op.NumNodes(); i++ {
		if op.NodeX(i) <= op.NodeX(i-1) {
			t.Fatalf("node coordinates not increasing at %d", i)
		}
	}
}

// TestOp1DDiscreteEigenmode: for the free-free uniform bar, cos(kπx/L) is
// close to a discrete eigenvector: Ku ≈ ω² M u with spectral accuracy.
func TestOp1DDiscreteEigenmode(t *testing.T) {
	const L, c = 1.0, 1.0
	op := uniform1D(12, L, c, 6, FreeBC, FreeBC)
	n := op.NDof()
	u := make([]float64, n)
	k := math.Pi / L
	for i := 0; i < n; i++ {
		u[i] = math.Cos(k * op.NodeX(i))
	}
	ku := make([]float64, n)
	op.AddKu(ku, u, AllElements(op))
	want := c * c * k * k // ω²
	for i := 0; i < n; i++ {
		got := ku[i] * op.MInv()[i] / u[i]
		if math.Abs(u[i]) < 0.1 {
			continue // avoid dividing by near-zero mode values
		}
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("eigenvalue at node %d: %v, want %v", i, got, want)
		}
	}
}

func BenchmarkOp1DAddKu(b *testing.B) {
	op := uniform1D(256, 1, 1, 4, FreeBC, FreeBC)
	u := make([]float64, op.NDof())
	for i := range u {
		u[i] = math.Sin(float64(i))
	}
	dst := make([]float64, op.NDof())
	elems := AllElements(op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.AddKu(dst, u, elems)
	}
}
