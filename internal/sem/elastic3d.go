package sem

import (
	"fmt"

	"golts/internal/gll"
	"golts/internal/mesh"
)

// Elastic3D is the 3-component isotropic elastic wave operator
// ρ ü = ∇·T, T = λ (∇·u) I + 2 μ ε(u) (paper Eqs. 1-2 with the isotropic
// specialisation of Hooke's law), discretized with tensor-product GLL
// bases on a structured hexahedral mesh. The mesh's C field is the
// compressional speed c_p; the shear speed is c_s = CsRatio * c_p
// (default 1/√3, a Poisson solid).
type Elastic3D struct {
	M    *mesh.Mesh
	Rule *gll.Rule
	// Periodic selects periodic boundaries; otherwise all faces are free
	// surfaces (the natural boundary condition r̂·T = 0 of Eq. 1).
	Periodic bool
	// CsRatio is c_s / c_p per element.
	CsRatio float64

	core3d
}

// NewElastic3D builds the elastic operator on mesh m with basis degree deg.
// csRatio <= 0 selects the Poisson-solid default 1/√3.
func NewElastic3D(m *mesh.Mesh, deg int, periodic bool, csRatio float64) (*Elastic3D, error) {
	r, err := gll.New(deg)
	if err != nil {
		return nil, err
	}
	if csRatio <= 0 {
		csRatio = 0.5773502691896258 // 1/√3
	}
	if csRatio*csRatio >= 0.75 {
		// λ = ρ(c_p² − 2 c_s²) must stay positive-definite combined with μ;
		// physically c_s/c_p < √3/2 ≈ 0.866 keeps λ > -(2/3)μ; we require
		// λ >= 0 for simplicity: c_s²/c_p² <= 1/2... allow up to 0.75 with
		// warning-free behaviour but reject beyond.
		return nil, fmt.Errorf("sem: cs/cp ratio %v too large (need < √3/2)", csRatio)
	}
	op := &Elastic3D{M: m, Rule: r, Periodic: periodic, CsRatio: csRatio}
	op.initCore(m, r, deg, periodic, m.Rho)
	return op, nil
}

// Lame returns the Lamé parameters (λ, μ) of element e.
func (op *Elastic3D) Lame(e int) (lam, mu float64) {
	cp := op.M.C[e]
	cs := op.CsRatio * cp
	rho := op.M.Rho[e]
	mu = rho * cs * cs
	lam = rho * (cp*cp - 2*cs*cs)
	return lam, mu
}

// Comps returns 3 (displacement components).
func (op *Elastic3D) Comps() int { return 3 }

// NDof returns 3 * NumNodes().
func (op *Elastic3D) NDof() int { return 3 * op.NumNodes() }

// AddKu accumulates dst += K u for the listed elements: AddKuScratch with
// a pooled scratch.
func (op *Elastic3D) AddKu(dst, u []float64, elems []int32) {
	sc := scratchPool.Get().(*Scratch)
	op.AddKuScratch(dst, u, elems, sc)
	scratchPool.Put(sc)
}

// AddKuScratch accumulates dst += K u for the listed elements. Per GLL
// point the kernel computes the displacement gradient (nine tensor
// contractions), forms the isotropic stress T = λ tr(ε) I + 2 μ ε, and
// scatters w J T : ∇φ back with the transposed derivative matrices — the
// structure of the SPECFEM3D forces kernel on undeformed elements. All
// element state (connectivity, derivative matrices) is precomputed flat;
// zero heap allocations once sc is warm.
func (op *Elastic3D) AddKuScratch(dst, u []float64, elems []int32, sc *Scratch) {
	checkLen("dst", dst, op.NDof())
	checkLen("u", u, op.NDof())
	nq, n3 := op.nq, op.n3
	d, dt := op.dfl, op.dtf
	w := op.Rule.Weights
	// Element-local buffers: displacement per component and stress-flux
	// terms t[3*comp+axis] = w J alpha[axis] T_{comp,axis}.
	buf := sc.floats(12 * n3)
	ux := buf[0*n3 : 1*n3]
	uy := buf[1*n3 : 2*n3]
	uz := buf[2*n3 : 3*n3]
	var tf [9][]float64
	for i := range tf {
		tf[i] = buf[(3+i)*n3 : (4+i)*n3]
	}
	for _, e := range elems {
		dx, dy, dz := op.M.ElemSize(int(e))
		jdet := dx * dy * dz / 8
		ax, ay, az := 2/dx, 2/dy, 2/dz
		lam, mu := op.Lame(int(e))
		nb := op.elemConn(int(e))
		for i, n := range nb {
			j := 3 * int(n)
			ux[i], uy[i], uz[i] = u[j], u[j+1], u[j+2]
		}
		for c := 0; c < nq; c++ {
			dc := d[c*nq : c*nq+nq]
			for b := 0; b < nq; b++ {
				db := d[b*nq : b*nq+nq]
				cb := (c*nq + b) * nq
				wbc := w[b] * w[c] * jdet
				for a := 0; a < nq; a++ {
					da := d[a*nq : a*nq+nq]
					yi := c*nq*nq + a
					zi := b*nq + a
					// Displacement gradient g[comp][axis].
					var g00, g01, g02, g10, g11, g12, g20, g21, g22 float64
					for m := 0; m < nq; m++ {
						dm, em, fm := da[m], db[m], dc[m]
						xm, ym, zm := cb+m, yi+m*nq, zi+m*nq*nq
						g00 += dm * ux[xm]
						g01 += em * ux[ym]
						g02 += fm * ux[zm]
						g10 += dm * uy[xm]
						g11 += em * uy[ym]
						g12 += fm * uy[zm]
						g20 += dm * uz[xm]
						g21 += em * uz[ym]
						g22 += fm * uz[zm]
					}
					g00 *= ax
					g01 *= ay
					g02 *= az
					g10 *= ax
					g11 *= ay
					g12 *= az
					g20 *= ax
					g21 *= ay
					g22 *= az
					tr := g00 + g11 + g22
					wq := w[a] * wbc
					wx, wy, wz := wq*ax, wq*ay, wq*az
					q := cb + a
					// Include the test-function metric factor per axis so
					// the scatter is a pure transposed contraction.
					tf[0][q] = wx * (2*mu*g00 + lam*tr)
					tf[1][q] = wy * (mu * (g01 + g10))
					tf[2][q] = wz * (mu * (g02 + g20))
					tf[3][q] = wx * (mu * (g10 + g01))
					tf[4][q] = wy * (2*mu*g11 + lam*tr)
					tf[5][q] = wz * (mu * (g12 + g21))
					tf[6][q] = wx * (mu * (g20 + g02))
					tf[7][q] = wy * (mu * (g21 + g12))
					tf[8][q] = wz * (2*mu*g22 + lam*tr)
				}
			}
		}
		for c := 0; c < nq; c++ {
			dc := dt[c*nq : c*nq+nq]
			for b := 0; b < nq; b++ {
				db := dt[b*nq : b*nq+nq]
				cb := (c*nq + b) * nq
				for a := 0; a < nq; a++ {
					da := dt[a*nq : a*nq+nq]
					yi := c*nq*nq + a
					zi := b*nq + a
					// Axis sums in x-then-y-then-z order: the same chain as
					// the batched axis sweeps, which keeps AddKuBatch
					// bitwise-identical to this loop.
					var s0, s1, s2 float64
					for m := 0; m < nq; m++ {
						dm, xm := da[m], cb+m
						s0 += dm * tf[0][xm]
						s1 += dm * tf[3][xm]
						s2 += dm * tf[6][xm]
					}
					for m := 0; m < nq; m++ {
						em, ym := db[m], yi+m*nq
						s0 += em * tf[1][ym]
						s1 += em * tf[4][ym]
						s2 += em * tf[7][ym]
					}
					for m := 0; m < nq; m++ {
						fm, zm := dc[m], zi+m*nq*nq
						s0 += fm * tf[2][zm]
						s1 += fm * tf[5][zm]
						s2 += fm * tf[8][zm]
					}
					j := 3 * int(nb[cb+a])
					dst[j] += s0
					dst[j+1] += s1
					dst[j+2] += s2
				}
			}
		}
	}
}

var (
	_ Operator     = (*Elastic3D)(nil)
	_ Connectivity = (*Elastic3D)(nil)
)

func (op *Elastic3D) String() string {
	return fmt.Sprintf("Elastic3D(%s, deg=%d, nodes=%d, periodic=%v)", op.M.Name, op.deg, op.NumNodes(), op.Periodic)
}
