package gll

import (
	"math"
	"testing"
	"testing/quick"
)

// Helpers over a rule that only the tests use: they check the nodes,
// weights and derivative matrix that New builds.

// mustNew is New for the constant degrees of the tests.
func mustNew(n int) *Rule {
	r, err := New(n)
	if err != nil {
		panic(err)
	}
	return r
}

// lagrange evaluates the j-th Lagrange cardinal polynomial of the rule's
// nodes at an arbitrary point xi in [-1, 1].
func (r *Rule) lagrange(j int, xi float64) float64 {
	p := 1.0
	for m, xm := range r.Points {
		if m == j {
			continue
		}
		p *= (xi - xm) / (r.Points[j] - xm)
	}
	return p
}

// interpolate evaluates the polynomial with nodal values u (len N+1) at xi.
func (r *Rule) interpolate(u []float64, xi float64) float64 {
	s := 0.0
	for j := range u {
		s += u[j] * r.lagrange(j, xi)
	}
	return s
}

// integrate approximates the integral of f over [-1, 1] with the GLL rule.
// Exact for polynomials of degree <= 2N-1.
func (r *Rule) integrate(f func(float64) float64) float64 {
	s := 0.0
	for i, x := range r.Points {
		s += r.Weights[i] * f(x)
	}
	return s
}

// derivAt computes the derivative of the nodal polynomial u at node i:
// sum_j D[i][j] u[j].
func (r *Rule) derivAt(u []float64, i int) float64 {
	s := 0.0
	row := r.D[i]
	for j, uj := range u {
		s += row[j] * uj
	}
	return s
}

func TestNewRejectsBadDegree(t *testing.T) {
	for _, n := range []int{-3, -1, 0} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): expected error", n)
		}
	}
}

func TestKnownDegree1(t *testing.T) {
	r := mustNew(1)
	want := []float64{-1, 1}
	for i, x := range want {
		if math.Abs(r.Points[i]-x) > 1e-15 {
			t.Errorf("point[%d] = %v, want %v", i, r.Points[i], x)
		}
		if math.Abs(r.Weights[i]-1) > 1e-15 {
			t.Errorf("weight[%d] = %v, want 1", i, r.Weights[i])
		}
	}
}

func TestKnownDegree2(t *testing.T) {
	r := mustNew(2)
	wantP := []float64{-1, 0, 1}
	wantW := []float64{1.0 / 3, 4.0 / 3, 1.0 / 3}
	for i := range wantP {
		if math.Abs(r.Points[i]-wantP[i]) > 1e-14 {
			t.Errorf("point[%d] = %v, want %v", i, r.Points[i], wantP[i])
		}
		if math.Abs(r.Weights[i]-wantW[i]) > 1e-14 {
			t.Errorf("weight[%d] = %v, want %v", i, r.Weights[i], wantW[i])
		}
	}
}

// TestKnownDegree4 checks the degree-4 rule used throughout the paper
// (125-node hexahedra = degree 4 in each dimension).
func TestKnownDegree4(t *testing.T) {
	r := mustNew(4)
	s := math.Sqrt(3.0 / 7.0)
	wantP := []float64{-1, -s, 0, s, 1}
	wantW := []float64{1.0 / 10, 49.0 / 90, 32.0 / 45, 49.0 / 90, 1.0 / 10}
	for i := range wantP {
		if math.Abs(r.Points[i]-wantP[i]) > 1e-14 {
			t.Errorf("point[%d] = %v, want %v", i, r.Points[i], wantP[i])
		}
		if math.Abs(r.Weights[i]-wantW[i]) > 1e-14 {
			t.Errorf("weight[%d] = %v, want %v", i, r.Weights[i], wantW[i])
		}
	}
}

func TestWeightsSumToTwo(t *testing.T) {
	for n := 1; n <= 12; n++ {
		r := mustNew(n)
		s := 0.0
		for _, w := range r.Weights {
			s += w
		}
		if math.Abs(s-2) > 1e-12 {
			t.Errorf("degree %d: weights sum to %v, want 2", n, s)
		}
	}
}

func TestPointsSymmetricAndSorted(t *testing.T) {
	for n := 1; n <= 12; n++ {
		r := mustNew(n)
		for i := 0; i <= n; i++ {
			if got, want := r.Points[i], -r.Points[n-i]; math.Abs(got-want) > 1e-15 {
				t.Errorf("degree %d: point %d not symmetric: %v vs %v", n, i, got, want)
			}
			if i > 0 && r.Points[i] <= r.Points[i-1] {
				t.Errorf("degree %d: points not strictly ascending at %d", n, i)
			}
		}
	}
}

// TestQuadratureExactness: GLL with N+1 points integrates polynomials of
// degree up to 2N-1 exactly.
func TestQuadratureExactness(t *testing.T) {
	for n := 1; n <= 8; n++ {
		r := mustNew(n)
		for deg := 0; deg <= 2*n-1; deg++ {
			got := r.integrate(func(x float64) float64 { return math.Pow(x, float64(deg)) })
			want := 0.0
			if deg%2 == 0 {
				want = 2.0 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("degree %d rule, x^%d: got %v want %v", n, deg, got, want)
			}
		}
	}
}

// TestQuadratureInexactAt2N documents that x^(2N) is NOT integrated exactly
// (the well-known GLL under-integration that nevertheless yields the
// diagonal mass matrix).
func TestQuadratureInexactAt2N(t *testing.T) {
	r := mustNew(4)
	got := r.integrate(func(x float64) float64 { return math.Pow(x, 8) })
	want := 2.0 / 9.0
	if math.Abs(got-want) < 1e-6 {
		t.Errorf("x^8 with degree-4 rule unexpectedly exact: %v vs %v", got, want)
	}
}

// TestDerivativeMatrixExactOnPolynomials: D applied to nodal values of x^k
// must reproduce k x^(k-1) at the nodes for k <= N.
func TestDerivativeMatrixExactOnPolynomials(t *testing.T) {
	for n := 1; n <= 8; n++ {
		r := mustNew(n)
		for k := 0; k <= n; k++ {
			u := make([]float64, n+1)
			for i, x := range r.Points {
				u[i] = math.Pow(x, float64(k))
			}
			for i, x := range r.Points {
				got := r.derivAt(u, i)
				want := 0.0
				if k > 0 {
					want = float64(k) * math.Pow(x, float64(k-1))
				}
				if math.Abs(got-want) > 1e-10 {
					t.Errorf("degree %d, d/dx x^%d at node %d: got %v want %v", n, k, i, got, want)
				}
			}
		}
	}
}

// TestDerivativeRowsSumToZero: derivative of the constant 1 is 0, so each
// row of D sums to zero.
func TestDerivativeRowsSumToZero(t *testing.T) {
	for n := 1; n <= 10; n++ {
		r := mustNew(n)
		for i := 0; i <= n; i++ {
			s := 0.0
			for j := 0; j <= n; j++ {
				s += r.D[i][j]
			}
			if math.Abs(s) > 1e-11 {
				t.Errorf("degree %d: row %d of D sums to %v", n, i, s)
			}
		}
	}
}

func TestLagrangeCardinalProperty(t *testing.T) {
	r := mustNew(5)
	for j := 0; j <= 5; j++ {
		for i, x := range r.Points {
			got := r.lagrange(j, x)
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("l_%d(x_%d) = %v, want %v", j, i, got, want)
			}
		}
	}
}

func TestInterpolateReproducesPolynomial(t *testing.T) {
	r := mustNew(6)
	f := func(x float64) float64 { return 3*x*x*x - 2*x + 0.5 }
	u := make([]float64, 7)
	for i, x := range r.Points {
		u[i] = f(x)
	}
	for _, xi := range []float64{-0.9, -0.33, 0, 0.17, 0.71, 1} {
		if got, want := r.interpolate(u, xi), f(xi); math.Abs(got-want) > 1e-11 {
			t.Errorf("interp at %v: got %v want %v", xi, got, want)
		}
	}
}

// Property: interpolation is linear in the nodal values.
func TestInterpolationLinearityProperty(t *testing.T) {
	r := mustNew(4)
	f := func(a, b [5]float64, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		s = math.Mod(s, 100)
		xi := 0.37
		var u, v, w [5]float64
		for i := range u {
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				return true
			}
			u[i], v[i] = a[i], b[i]
			w[i] = a[i] + s*b[i]
		}
		got := r.interpolate(w[:], xi)
		want := r.interpolate(u[:], xi) + s*r.interpolate(v[:], xi)
		scale := math.Max(1, math.Abs(want))
		return math.Abs(got-want) <= 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLegendreKnownValues(t *testing.T) {
	// P_2(x) = (3x^2-1)/2, P_3(x) = (5x^3-3x)/2
	for _, x := range []float64{-1, -0.5, 0, 0.3, 1} {
		if got, want := legendre(2, x), (3*x*x-1)/2; math.Abs(got-want) > 1e-14 {
			t.Errorf("P2(%v) = %v, want %v", x, got, want)
		}
		if got, want := legendre(3, x), (5*x*x*x-3*x)/2; math.Abs(got-want) > 1e-14 {
			t.Errorf("P3(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLegendreDerivEndpoints(t *testing.T) {
	for n := 1; n <= 6; n++ {
		want := float64(n*(n+1)) / 2
		if got := legendreDeriv(n, 1); math.Abs(got-want) > 1e-12 {
			t.Errorf("P%d'(1) = %v, want %v", n, got, want)
		}
	}
}

func BenchmarkRuleConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustNew(4)
	}
}
