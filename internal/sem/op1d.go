package sem

import (
	"fmt"

	"golts/internal/gll"
)

// Op1D is a 1-D scalar SEM wave operator ρ ü = ∂x(μ ∂x u) on a line of
// elements with per-element size and material. It is the smallest system
// exhibiting the CFL bottleneck and is used by the quickstart example and
// by the LTS correctness tests (it matches the paper's Fig. 1 setting).
type Op1D struct {
	Rule *gll.Rule
	// XC are the element boundary coordinates (len NE+1).
	XC []float64
	// C and Rho are the wave speed and density per element.
	C, Rho []float64

	ne   int
	deg  int
	minv []float64
	conn []int32   // flat connectivity: ne × (deg+1) node ids
	dfl  []float64 // derivative matrix, row-major, stride deg+1
	dtf  []float64 // transposed derivative matrix
}

// BC1D selects the boundary condition at an end of the 1-D domain.
type BC1D int

const (
	// FreeBC is the natural (Neumann, stress-free) boundary condition.
	FreeBC BC1D = iota
	// FixedBC is the homogeneous Dirichlet condition, enforced by zeroing
	// the inverse mass at the boundary node.
	FixedBC
)

// NewOp1D builds the operator for basis degree deg. left and right choose
// the boundary conditions.
func NewOp1D(xc, c, rho []float64, deg int, left, right BC1D) (*Op1D, error) {
	ne := len(xc) - 1
	if ne < 1 {
		return nil, fmt.Errorf("sem: need at least one element")
	}
	if len(c) != ne || len(rho) != ne {
		return nil, fmt.Errorf("sem: material arrays must have %d entries, got c=%d rho=%d", ne, len(c), len(rho))
	}
	for i := 0; i < ne; i++ {
		if xc[i+1] <= xc[i] {
			return nil, fmt.Errorf("sem: element %d has non-positive size", i)
		}
		if c[i] <= 0 || rho[i] <= 0 {
			return nil, fmt.Errorf("sem: element %d has non-positive material", i)
		}
	}
	r, err := gll.New(deg)
	if err != nil {
		return nil, err
	}
	op := &Op1D{Rule: r, XC: xc, C: c, Rho: rho, ne: ne, deg: deg}
	nn := op.NumNodes()
	mass := make([]float64, nn)
	for e := 0; e < ne; e++ {
		j := (xc[e+1] - xc[e]) / 2
		for a := 0; a <= deg; a++ {
			mass[e*deg+a] += rho[e] * r.Weights[a] * j
		}
	}
	op.minv = make([]float64, nn)
	for i, m := range mass {
		op.minv[i] = 1 / m
	}
	if left == FixedBC {
		op.minv[0] = 0
	}
	if right == FixedBC {
		op.minv[nn-1] = 0
	}
	nq := deg + 1
	op.conn = make([]int32, ne*nq)
	for e := 0; e < ne; e++ {
		for a := 0; a < nq; a++ {
			op.conn[e*nq+a] = int32(e*deg + a)
		}
	}
	op.dfl = make([]float64, nq*nq)
	op.dtf = make([]float64, nq*nq)
	for i := 0; i < nq; i++ {
		for j := 0; j < nq; j++ {
			op.dfl[i*nq+j] = r.D[i][j]
			op.dtf[i*nq+j] = r.D[j][i]
		}
	}
	return op, nil
}

// NumNodes returns the number of global GLL nodes: NE*deg + 1.
func (op *Op1D) NumNodes() int { return op.ne*op.deg + 1 }

// Comps returns 1: the operator is scalar.
func (op *Op1D) Comps() int { return 1 }

// NDof returns the number of degrees of freedom.
func (op *Op1D) NDof() int { return op.NumNodes() }

// NumElements returns the element count.
func (op *Op1D) NumElements() int { return op.ne }

// MInv returns the inverse lumped mass.
func (op *Op1D) MInv() []float64 { return op.minv }

// ElemNodes appends the deg+1 node ids of element e from the flat table.
func (op *Op1D) ElemNodes(e int, buf []int32) []int32 {
	nq := op.deg + 1
	return append(buf, op.conn[e*nq:(e+1)*nq]...)
}

// ConnTable exposes the flat connectivity (implements Connectivity).
func (op *Op1D) ConnTable() ([]int32, int) { return op.conn, op.deg + 1 }

// NodeX returns the physical coordinate of global node n.
func (op *Op1D) NodeX(n int) float64 {
	e := n / op.deg
	a := n % op.deg
	if e == op.ne {
		e, a = op.ne-1, op.deg
	}
	x0, x1 := op.XC[e], op.XC[e+1]
	return x0 + (x1-x0)*(op.Rule.Points[a]+1)/2
}

// AddKu accumulates dst += K u for the listed elements: AddKuScratch with
// a pooled scratch.
func (op *Op1D) AddKu(dst, u []float64, elems []int32) {
	sc := scratchPool.Get().(*Scratch)
	op.AddKuScratch(dst, u, elems, sc)
	scratchPool.Put(sc)
}

// AddKuScratch accumulates dst += K u for the listed elements:
//
//	(K u)_i = Σ_e μ_e / J_e Σ_q w_q D_{qi} (Σ_j D_{qj} u_j) .
//
// Zero heap allocations once sc is warm.
func (op *Op1D) AddKuScratch(dst, u []float64, elems []int32, sc *Scratch) {
	checkLen("dst", dst, op.NDof())
	checkLen("u", u, op.NDof())
	nq := op.deg + 1
	d, dt := op.dfl, op.dtf
	w := op.Rule.Weights
	f := sc.floats(nq)
	for _, e := range elems {
		base := int(e) * op.deg
		j := (op.XC[e+1] - op.XC[e]) / 2
		mu := op.Rho[e] * op.C[e] * op.C[e]
		s := mu / j
		for q := 0; q < nq; q++ {
			du := 0.0
			row := d[q*nq : q*nq+nq]
			for a := 0; a < nq; a++ {
				du += row[a] * u[base+a]
			}
			f[q] = w[q] * s * du
		}
		for a := 0; a < nq; a++ {
			acc := 0.0
			row := dt[a*nq : a*nq+nq]
			for q := 0; q < nq; q++ {
				acc += row[q] * f[q]
			}
			dst[base+a] += acc
		}
	}
}

var (
	_ Operator     = (*Op1D)(nil)
	_ Connectivity = (*Op1D)(nil)
)
