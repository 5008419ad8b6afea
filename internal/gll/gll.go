// Package gll provides Gauss-Legendre-Lobatto (GLL) quadrature rules and
// Lagrange interpolation utilities on the reference interval [-1, 1].
//
// GLL collocation is the foundation of the spectral element method (SEM):
// placing both the interpolation nodes and the quadrature points at the GLL
// points yields a diagonal mass matrix while retaining spectral accuracy,
// which is what makes explicit time stepping cheap (paper §I-B).
package gll

import (
	"fmt"
	"math"
)

// Rule holds the GLL points, quadrature weights and the Lagrange derivative
// matrix for polynomial degree N (N+1 points).
type Rule struct {
	// N is the polynomial degree; the rule has N+1 points.
	N int
	// Points are the GLL nodes in ascending order; Points[0] = -1,
	// Points[N] = +1.
	Points []float64
	// Weights are the quadrature weights w_i = 2 / (N(N+1) P_N(x_i)^2).
	Weights []float64
	// D is the Lagrange derivative matrix: D[i][j] = l'_j(x_i), where l_j is
	// the Lagrange cardinal polynomial of the GLL nodes. Stored row-major as
	// a dense (N+1)x(N+1) matrix.
	D [][]float64
}

// New constructs the GLL rule of degree n (n+1 points). n must be >= 1.
func New(n int) (*Rule, error) {
	if n < 1 {
		return nil, fmt.Errorf("gll: degree must be >= 1, got %d", n)
	}
	r := &Rule{N: n}
	r.Points = lobattoPoints(n)
	r.Weights = make([]float64, n+1)
	for i, x := range r.Points {
		p := legendre(n, x)
		r.Weights[i] = 2.0 / (float64(n*(n+1)) * p * p)
	}
	r.D = derivativeMatrix(n, r.Points)
	return r, nil
}

// legendre evaluates the Legendre polynomial P_n(x) by the three-term
// recurrence.
func legendre(n int, x float64) float64 {
	if n == 0 {
		return 1
	}
	if n == 1 {
		return x
	}
	pm, p := 1.0, x
	for k := 2; k <= n; k++ {
		pm, p = p, ((2*float64(k)-1)*x*p-(float64(k)-1)*pm)/float64(k)
	}
	return p
}

// legendreDeriv evaluates P_n'(x) using the standard identity
// (1-x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x)).
func legendreDeriv(n int, x float64) float64 {
	if n == 0 {
		return 0
	}
	if x == 1 || x == -1 {
		// P_n'(±1) = ±1^{n-1} n(n+1)/2
		s := 1.0
		if x < 0 && n%2 == 0 {
			s = -1
		}
		return s * float64(n*(n+1)) / 2
	}
	return float64(n) * (legendre(n-1, x) - x*legendre(n, x)) / (1 - x*x)
}

// lobattoPoints computes the n+1 GLL points: the roots of (1-x^2) P_n'(x).
// Interior roots are found by Newton iteration from Chebyshev-Gauss-Lobatto
// initial guesses, which converge for all practical degrees.
func lobattoPoints(n int) []float64 {
	pts := make([]float64, n+1)
	pts[0], pts[n] = -1, 1
	for i := 1; i < n; i++ {
		// Chebyshev-Lobatto initial guess.
		x := -math.Cos(math.Pi * float64(i) / float64(n))
		for iter := 0; iter < 100; iter++ {
			// f(x) = P_n'(x); f'(x) from the Legendre ODE:
			// (1-x^2) P_n'' - 2x P_n' + n(n+1) P_n = 0
			// => P_n'' = (2x P_n' - n(n+1) P_n) / (1-x^2)
			f := legendreDeriv(n, x)
			fp := (2*x*legendreDeriv(n, x) - float64(n*(n+1))*legendre(n, x)) / (1 - x*x)
			dx := f / fp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		pts[i] = x
	}
	// Enforce exact symmetry: average with the mirrored root.
	for i := 1; i < n; i++ {
		j := n - i
		if i < j {
			m := (pts[j] - pts[i]) / 2
			pts[i], pts[j] = -m, m
		} else if i == j {
			pts[i] = 0
		}
	}
	return pts
}

// derivativeMatrix builds D[i][j] = l'_j(x_i) using the closed form for GLL
// nodes:
//
//	D_ij = P_n(x_i) / (P_n(x_j) (x_i - x_j))   for i != j,
//	D_00 = -n(n+1)/4,  D_nn = +n(n+1)/4,  D_ii = 0 otherwise.
func derivativeMatrix(n int, x []float64) [][]float64 {
	d := make([][]float64, n+1)
	for i := range d {
		d[i] = make([]float64, n+1)
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			switch {
			case i == j:
				switch i {
				case 0:
					d[i][j] = -float64(n*(n+1)) / 4
				case n:
					d[i][j] = float64(n*(n+1)) / 4
				default:
					d[i][j] = 0
				}
			default:
				d[i][j] = legendre(n, x[i]) / (legendre(n, x[j]) * (x[i] - x[j]))
			}
		}
	}
	return d
}
