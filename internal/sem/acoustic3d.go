package sem

import (
	"fmt"

	"golts/internal/gll"
	"golts/internal/mesh"
)

// Acoustic3D is the scalar wave operator ρ ü = ∇·(μ ∇u), μ = ρ c², on a
// structured hexahedral mesh with tensor-product GLL bases (degree 4 gives
// the paper's 125-node elements). Because the mesh elements are axis-aligned
// boxes, the Jacobian is diagonal, and the stiffness action reduces to six
// 1-D tensor contractions per element — the same computational structure as
// SPECFEM3D's kernels.
type Acoustic3D struct {
	M    *mesh.Mesh
	Rule *gll.Rule
	// Periodic selects periodic boundary conditions in all directions
	// (nodes on opposite faces are identified); otherwise all boundaries
	// are free surfaces (natural/Neumann), as on the paper's top surface.
	Periodic bool

	core3d
}

// NewAcoustic3D builds the operator on mesh m with basis degree deg.
func NewAcoustic3D(m *mesh.Mesh, deg int, periodic bool) (*Acoustic3D, error) {
	r, err := gll.New(deg)
	if err != nil {
		return nil, err
	}
	op := &Acoustic3D{M: m, Rule: r, Periodic: periodic}
	op.initCore(m, r, deg, periodic, m.Rho)
	return op, nil
}

// Comps returns 1.
func (op *Acoustic3D) Comps() int { return 1 }

// NDof returns the degree-of-freedom count.
func (op *Acoustic3D) NDof() int { return op.NumNodes() }

// AddKu accumulates dst += K u for the listed elements: AddKuScratch with
// a pooled scratch.
func (op *Acoustic3D) AddKu(dst, u []float64, elems []int32) {
	sc := scratchPool.Get().(*Scratch)
	op.AddKuScratch(dst, u, elems, sc)
	scratchPool.Put(sc)
}

// AddKuScratch accumulates dst += K u for the listed elements. Per element:
// gather nodal values through the flat connectivity table, differentiate
// along each axis with the flat 1-D derivative matrix, scale by metric
// terms and quadrature weights, and scatter back with the transposed
// derivative. Zero heap allocations once sc is warm.
func (op *Acoustic3D) AddKuScratch(dst, u []float64, elems []int32, sc *Scratch) {
	checkLen("dst", dst, op.NDof())
	checkLen("u", u, op.NDof())
	nq, n3 := op.nq, op.n3
	d, dt := op.dfl, op.dtf
	w := op.Rule.Weights
	buf := sc.floats(4 * n3)
	ue := buf[0*n3 : 1*n3]
	fx := buf[1*n3 : 2*n3]
	fy := buf[2*n3 : 3*n3]
	fz := buf[3*n3 : 4*n3]
	for _, e := range elems {
		dx, dy, dz := op.M.ElemSize(int(e))
		jdet := dx * dy * dz / 8
		ax, ay, az := 2/dx, 2/dy, 2/dz
		mu := op.M.Rho[e] * op.M.C[e] * op.M.C[e]
		sx, sy, sz := mu*jdet*ax*ax, mu*jdet*ay*ay, mu*jdet*az*az
		nb := op.elemConn(int(e))
		for i, n := range nb {
			ue[i] = u[n]
		}
		// Forward derivatives scaled by weights and metric; the a axis
		// (stride 1 in the element-local layout) runs innermost.
		for c := 0; c < nq; c++ {
			dc := d[c*nq : c*nq+nq]
			for b := 0; b < nq; b++ {
				db := d[b*nq : b*nq+nq]
				cb := (c*nq + b) * nq
				yb := c * nq * nq
				wbc := w[b] * w[c]
				for a := 0; a < nq; a++ {
					da := d[a*nq : a*nq+nq]
					yi := yb + a
					zi := b*nq + a
					var dxu, dyu, dzu float64
					for m := 0; m < nq; m++ {
						dxu += da[m] * ue[cb+m]
						dyu += db[m] * ue[yi+m*nq]
						dzu += dc[m] * ue[zi+m*nq*nq]
					}
					wa := w[a]
					fx[cb+a] = sx * wa * wbc * dxu
					fy[cb+a] = sy * wa * wbc * dyu
					fz[cb+a] = sz * wa * wbc * dzu
				}
			}
		}
		// Transposed scatter: dst_l += Σ_m D[m][l] f(m). The three axis
		// sums accumulate in x-then-y-then-z order — the same chain as the
		// batched axis sweeps, which keeps AddKuBatch bitwise-identical to
		// this loop.
		for c := 0; c < nq; c++ {
			dc := dt[c*nq : c*nq+nq]
			for b := 0; b < nq; b++ {
				db := dt[b*nq : b*nq+nq]
				cb := (c*nq + b) * nq
				yb := c * nq * nq
				for a := 0; a < nq; a++ {
					da := dt[a*nq : a*nq+nq]
					yi := yb + a
					zi := b*nq + a
					var acc float64
					for m := 0; m < nq; m++ {
						acc += da[m] * fx[cb+m]
					}
					for m := 0; m < nq; m++ {
						acc += db[m] * fy[yi+m*nq]
					}
					for m := 0; m < nq; m++ {
						acc += dc[m] * fz[zi+m*nq*nq]
					}
					dst[nb[cb+a]] += acc
				}
			}
		}
	}
}

var (
	_ Operator     = (*Acoustic3D)(nil)
	_ Connectivity = (*Acoustic3D)(nil)
)

func (op *Acoustic3D) String() string {
	return fmt.Sprintf("Acoustic3D(%s, deg=%d, nodes=%d, periodic=%v)", op.M.Name, op.deg, op.NumNodes(), op.Periodic)
}
