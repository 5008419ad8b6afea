package sem

import (
	"fmt"

	"golts/internal/gll"
	"golts/internal/mesh"
)

// VoigtC is the elasticity tensor of Hooke's law (paper Eq. 2) in Voigt
// notation: a symmetric 6x6 matrix with up to 21 independent parameters
// (the fully anisotropic / triclinic case the paper mentions). Index order
// is the seismological convention [xx, yy, zz, yz, xz, xy], with
// engineering shear strains (γ = 2ε) on the strain side.
type VoigtC [6][6]float64

// IsotropicC builds the two-parameter isotropic tensor from the Lamé
// constants.
func IsotropicC(lam, mu float64) VoigtC {
	var c VoigtC
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c[i][j] = lam
		}
		c[i][i] = lam + 2*mu
		c[i+3][i+3] = mu
	}
	return c
}

// VTIC builds a transversely isotropic tensor with a vertical symmetry
// axis from the five Love parameters (A, C, L, N, F) — the standard
// anisotropy model for layered Earth media.
func VTIC(a, cc, l, n, f float64) VoigtC {
	var c VoigtC
	c[0][0], c[1][1] = a, a
	c[2][2] = cc
	c[0][1], c[1][0] = a-2*n, a-2*n
	c[0][2], c[2][0] = f, f
	c[1][2], c[2][1] = f, f
	c[3][3], c[4][4] = l, l
	c[5][5] = n
	return c
}

// Symmetric reports whether the tensor has the required major symmetry.
func (c VoigtC) Symmetric() bool {
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if c[i][j] != c[j][i] {
				return false
			}
		}
	}
	return true
}

// Anisotropic3D is the 3-component elastic wave operator with a general
// (up to triclinic) elasticity tensor per element: T = C : ε(u), the
// unrestricted form of paper Eq. 2. It generalises Elastic3D, which it
// reproduces exactly when every element carries IsotropicC.
type Anisotropic3D struct {
	M    *mesh.Mesh
	Rule *gll.Rule
	// Periodic selects periodic boundaries (otherwise free surfaces).
	Periodic bool
	// C is the per-element elasticity tensor.
	C []VoigtC

	core3d
}

// NewAnisotropic3D builds the operator; c must hold one symmetric tensor
// per element.
func NewAnisotropic3D(m *mesh.Mesh, deg int, periodic bool, c []VoigtC) (*Anisotropic3D, error) {
	if len(c) != m.NumElements() {
		return nil, fmt.Errorf("sem: %d tensors for %d elements", len(c), m.NumElements())
	}
	for e := range c {
		if !c[e].Symmetric() {
			return nil, fmt.Errorf("sem: element %d elasticity tensor not symmetric", e)
		}
	}
	r, err := gll.New(deg)
	if err != nil {
		return nil, err
	}
	op := &Anisotropic3D{M: m, Rule: r, Periodic: periodic, C: c}
	op.initCore(m, r, deg, periodic, m.Rho)
	return op, nil
}

// Comps returns 3.
func (op *Anisotropic3D) Comps() int { return 3 }

// NDof returns 3 * NumNodes().
func (op *Anisotropic3D) NDof() int { return 3 * op.NumNodes() }

// AddKu accumulates dst += K u for the listed elements: AddKuScratch with
// a pooled scratch.
func (op *Anisotropic3D) AddKu(dst, u []float64, elems []int32) {
	sc := scratchPool.Get().(*Scratch)
	op.AddKuScratch(dst, u, elems, sc)
	scratchPool.Put(sc)
}

// AddKuScratch accumulates dst += K u: per GLL point, the strain in Voigt
// form, the stress s = C e, and the transposed-gradient scatter. Flat
// connectivity and derivative matrices; zero heap allocations once sc is
// warm.
func (op *Anisotropic3D) AddKuScratch(dst, u []float64, elems []int32, sc *Scratch) {
	checkLen("dst", dst, op.NDof())
	checkLen("u", u, op.NDof())
	nq, n3 := op.nq, op.n3
	d, dt := op.dfl, op.dtf
	w := op.Rule.Weights
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
		cm := &op.C[e]
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
					// Voigt strain with engineering shears.
					e0, e1, e2 := g00, g11, g22
					e3 := g12 + g21
					e4 := g02 + g20
					e5 := g01 + g10
					s0 := cm[0][0]*e0 + cm[0][1]*e1 + cm[0][2]*e2 + cm[0][3]*e3 + cm[0][4]*e4 + cm[0][5]*e5
					s1 := cm[1][0]*e0 + cm[1][1]*e1 + cm[1][2]*e2 + cm[1][3]*e3 + cm[1][4]*e4 + cm[1][5]*e5
					s2 := cm[2][0]*e0 + cm[2][1]*e1 + cm[2][2]*e2 + cm[2][3]*e3 + cm[2][4]*e4 + cm[2][5]*e5
					s3 := cm[3][0]*e0 + cm[3][1]*e1 + cm[3][2]*e2 + cm[3][3]*e3 + cm[3][4]*e4 + cm[3][5]*e5
					s4 := cm[4][0]*e0 + cm[4][1]*e1 + cm[4][2]*e2 + cm[4][3]*e3 + cm[4][4]*e4 + cm[4][5]*e5
					s5 := cm[5][0]*e0 + cm[5][1]*e1 + cm[5][2]*e2 + cm[5][3]*e3 + cm[5][4]*e4 + cm[5][5]*e5
					wq := w[a] * wbc
					wx, wy, wz := wq*ax, wq*ay, wq*az
					q := cb + a
					// Stress tensor rows from Voigt stress:
					// [s0 s5 s4; s5 s1 s3; s4 s3 s2].
					tf[0][q] = wx * s0
					tf[1][q] = wy * s5
					tf[2][q] = wz * s4
					tf[3][q] = wx * s5
					tf[4][q] = wy * s1
					tf[5][q] = wz * s3
					tf[6][q] = wx * s4
					tf[7][q] = wy * s3
					tf[8][q] = wz * s2
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
	_ Operator     = (*Anisotropic3D)(nil)
	_ Connectivity = (*Anisotropic3D)(nil)
)

func (op *Anisotropic3D) String() string {
	return fmt.Sprintf("Anisotropic3D(%s, deg=%d, nodes=%d)", op.M.Name, op.deg, op.NumNodes())
}
