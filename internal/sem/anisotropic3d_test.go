package sem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// Anisotropic3D is a test-only 3-component elastic operator with a
// general (up to triclinic) elasticity tensor per element: T = C : ε(u),
// the unrestricted form of paper Eq. 2. It generalises Elastic3D, which it
// reproduces exactly when every element carries IsotropicC. No production
// path builds it; it is kept as a dense-stress client of core3d and of the
// batch layer (plans, gather/scatter, the tier-dispatched contraction
// kernels), pinned like the production operators by
// TestAddKuBatchBitwise.
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
	_ BatchKernel  = (*Anisotropic3D)(nil)
	_ Connectivity = (*Anisotropic3D)(nil)
)

func (op *Anisotropic3D) String() string {
	return fmt.Sprintf("Anisotropic3D(%s, deg=%d, nodes=%d)", op.M.Name, op.deg, op.NumNodes())
}

// anCstRows is the per-block constant row count of the anisotropic plan:
// ax, ay, az, jdet plus the 36 Voigt tensor entries.
const anCstRows = 40

// NewBatchPlan implements BatchKernel.
func (op *Anisotropic3D) NewBatchPlan(elems []int32) BatchPlan {
	pl := newElemBatchPlan(op, elems, anCstRows, op.nq, op.Rule.Weights)
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		row := pl.cst[blk*anCstRows:]
		for i := 0; i < batchB; i++ {
			e := int(pl.lanes[blk+i])
			dx, dy, dz := op.M.ElemSize(e)
			row[0*batchB+i] = 2 / dx
			row[1*batchB+i] = 2 / dy
			row[2*batchB+i] = 2 / dz
			row[3*batchB+i] = dx * dy * dz / 8
			cm := &op.C[e]
			for r := 0; r < 6; r++ {
				for cc := 0; cc < 6; cc++ {
					row[(4+r*6+cc)*batchB+i] = cm[r][cc]
				}
			}
		}
	}
	return pl
}

// AddKuBatch implements BatchKernel; bitwise-identical to AddKuScratch
// over plan.Elems(). The same driver as Elastic3D.AddKuBatch with the
// Voigt stress pass anStressN at every degree.
func (op *Anisotropic3D) AddKuBatch(dst, u []float64, plan BatchPlan, bs *BatchScratch) {
	pl := checkPlan(op, plan, dst, u)
	pb := op.n3 * batchB
	ws := bs.floats(12 * pb)
	ux := ws[0*pb : 1*pb]
	uy := ws[1*pb : 2*pb]
	uz := ws[2*pb : 3*pb]
	gg := ws[3*pb : 12*pb]
	d, dt := op.dfl, op.dtf
	deg4 := op.deg == 4
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		pl.gather3(u, blk, ux, uy, uz)
		for k, in := range [3][]float64{ux, uy, uz} {
			gx := gg[(3*k+0)*pb : (3*k+1)*pb]
			gy := gg[(3*k+1)*pb : (3*k+2)*pb]
			gz := gg[(3*k+2)*pb : (3*k+3)*pb]
			if deg4 {
				grad5(gx, gy, gz, in, d)
			} else {
				gradN(gx, gy, gz, in, d, op.nq)
			}
		}
		anStressN(gg, pl.cst[blk*anCstRows:], pl.wpair, op.n3)
		for k, out := range [3][]float64{ux, uy, uz} {
			tx := gg[(3*k+0)*pb : (3*k+1)*pb]
			ty := gg[(3*k+1)*pb : (3*k+2)*pb]
			tz := gg[(3*k+2)*pb : (3*k+3)*pb]
			if deg4 {
				trans5(out, tx, ty, tz, dt)
			} else {
				transN(out, tx, ty, tz, dt, op.nq)
			}
		}
		pl.scatter3(dst, blk, ux, uy, uz)
	}
}

// anStressN is the anisotropic counterpart of elStressN: the Voigt
// strain is contracted with the per-element 6×6 tensor (cst rows 4..39,
// row-major) exactly as the scalar kernel writes it, left-to-right.
func anStressN(g, cst, w []float64, n3 int) {
	const bb = batchB
	pb := n3 * bb
	g0 := g[0*pb : 1*pb]
	g1 := g[1*pb : 2*pb]
	g2 := g[2*pb : 3*pb]
	g3 := g[3*pb : 4*pb]
	g4 := g[4*pb : 5*pb]
	g5 := g[5*pb : 6*pb]
	g6 := g[6*pb : 7*pb]
	g7 := g[7*pb : 8*pb]
	g8 := g[8*pb : 9*pb]
	pax := cst[0*bb : 1*bb]
	pay := cst[1*bb : 2*bb]
	paz := cst[2*bb : 3*bb]
	pjd := cst[3*bb : 4*bb]
	cm := cst[4*bb : 40*bb]
	for q := 0; q < n3; q++ {
		wa, wbc0 := w[2*q], w[2*q+1]
		o := q * bb
		for i := 0; i < bb; i++ {
			axv, ayv, azv := pax[i], pay[i], paz[i]
			wq := wa * (wbc0 * pjd[i])
			wx, wy, wz := wq*axv, wq*ayv, wq*azv
			e0 := axv * g0[o+i]
			e1 := ayv * g4[o+i]
			e2 := azv * g8[o+i]
			e3 := azv*g5[o+i] + ayv*g7[o+i]
			e4 := azv*g2[o+i] + axv*g6[o+i]
			e5 := ayv*g1[o+i] + axv*g3[o+i]
			s0 := cm[0*bb+i]*e0 + cm[1*bb+i]*e1 + cm[2*bb+i]*e2 + cm[3*bb+i]*e3 + cm[4*bb+i]*e4 + cm[5*bb+i]*e5
			s1 := cm[6*bb+i]*e0 + cm[7*bb+i]*e1 + cm[8*bb+i]*e2 + cm[9*bb+i]*e3 + cm[10*bb+i]*e4 + cm[11*bb+i]*e5
			s2 := cm[12*bb+i]*e0 + cm[13*bb+i]*e1 + cm[14*bb+i]*e2 + cm[15*bb+i]*e3 + cm[16*bb+i]*e4 + cm[17*bb+i]*e5
			s3 := cm[18*bb+i]*e0 + cm[19*bb+i]*e1 + cm[20*bb+i]*e2 + cm[21*bb+i]*e3 + cm[22*bb+i]*e4 + cm[23*bb+i]*e5
			s4 := cm[24*bb+i]*e0 + cm[25*bb+i]*e1 + cm[26*bb+i]*e2 + cm[27*bb+i]*e3 + cm[28*bb+i]*e4 + cm[29*bb+i]*e5
			s5 := cm[30*bb+i]*e0 + cm[31*bb+i]*e1 + cm[32*bb+i]*e2 + cm[33*bb+i]*e3 + cm[34*bb+i]*e4 + cm[35*bb+i]*e5
			g0[o+i] = wx * s0
			g1[o+i] = wy * s5
			g2[o+i] = wz * s4
			g3[o+i] = wx * s5
			g4[o+i] = wy * s1
			g5[o+i] = wz * s3
			g6[o+i] = wx * s4
			g7[o+i] = wy * s3
			g8[o+i] = wz * s2
		}
	}
}

func isoTensors(m *mesh.Mesh, lam, mu float64) []VoigtC {
	c := make([]VoigtC, m.NumElements())
	for e := range c {
		c[e] = IsotropicC(lam, mu)
	}
	return c
}

// TestAnisotropicReducesToIsotropic: with IsotropicC the general operator
// must agree with Elastic3D to roundoff on random fields.
func TestAnisotropicReducesToIsotropic(t *testing.T) {
	m := mesh.Uniform(3, 2, 2, 0.9, 1.5)
	iso, err := NewElastic3D(m, 3, false, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lam, mu := iso.Lame(0)
	gen, err := NewAnisotropic3D(m, 3, false, isoTensors(m, lam, mu))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	u := make([]float64, iso.NDof())
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	a := make([]float64, iso.NDof())
	b := make([]float64, iso.NDof())
	iso.AddKu(a, u, AllElements(iso))
	gen.AddKu(b, u, AllElements(gen))
	scale := 0.0
	for _, v := range a {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-11*scale {
			t.Fatalf("dof %d: iso %v vs anis %v", i, a[i], b[i])
		}
	}
}

// TestAnisotropicRigidMotions: rigid translations and rotations carry zero
// strain for any elasticity tensor.
func TestAnisotropicRigidMotions(t *testing.T) {
	m := mesh.Uniform(2, 2, 2, 1, 1)
	// A random symmetric positive-ish tensor (symmetry suffices here).
	var c VoigtC
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			v := rng.Float64()
			c[i][j], c[j][i] = v, v
		}
		c[i][i] += 3
	}
	cs := make([]VoigtC, m.NumElements())
	for e := range cs {
		cs[e] = c
	}
	op, err := NewAnisotropic3D(m, 3, false, cs)
	if err != nil {
		t.Fatal(err)
	}
	rot := make([]float64, op.NDof())
	omega := [3]float64{0.4, -0.2, 1.1}
	for nd := 0; nd < op.NumNodes(); nd++ {
		x, y, z := op.NodeCoords(int32(nd))
		rot[3*nd+0] = 1 + omega[1]*z - omega[2]*y
		rot[3*nd+1] = -2 + omega[2]*x - omega[0]*z
		rot[3*nd+2] = 0.5 + omega[0]*y - omega[1]*x
	}
	ku := make([]float64, op.NDof())
	op.AddKu(ku, rot, AllElements(op))
	for i, v := range ku {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("rigid motion produced force at dof %d: %v", i, v)
		}
	}
}

// TestVTIWaveSpeeds: in a VTI medium, a vertically propagating P wave
// travels at sqrt(C/ρ) and a vertically propagating S wave at sqrt(L/ρ) —
// distinct from the horizontal speeds sqrt(A/ρ), sqrt(N/ρ).
func TestVTIWaveSpeeds(t *testing.T) {
	const (
		rho = 1.0
		A   = 4.0 // horizontal P: c = 2
		C   = 2.0 // vertical P:   c = sqrt(2)
		L   = 0.8 // vertical S
		N   = 1.2 // horizontal SH
		F   = 0.7
	)
	m := mesh.Uniform(4, 4, 4, 0.5, 1)
	cs := make([]VoigtC, m.NumElements())
	for e := range cs {
		cs[e] = VTIC(A, C, L, N, F)
	}
	op, err := NewAnisotropic3D(m, 4, true, cs)
	if err != nil {
		t.Fatal(err)
	}
	// Vertical standing P wave: u_z = cos(k z) is an eigenmode with
	// ω² = (C/ρ) k². Check A·u = ω² u via the operator.
	kz := 2 * math.Pi / 2.0
	checkMode := func(comp int, k float64, axis int, want float64) {
		u := make([]float64, op.NDof())
		for nd := 0; nd < op.NumNodes(); nd++ {
			x, y, z := op.NodeCoords(int32(nd))
			coord := [3]float64{x, y, z}[axis]
			u[3*nd+comp] = math.Cos(k * coord)
		}
		ku := make([]float64, op.NDof())
		op.AddKu(ku, u, AllElements(op))
		for nd := 0; nd < op.NumNodes(); nd++ {
			d := 3*nd + comp
			if math.Abs(u[d]) < 0.3 {
				continue
			}
			got := ku[d] * op.MInv()[nd] / u[d]
			if math.Abs(got-want) > 2e-3*want {
				t.Fatalf("comp %d axis %d: eigenvalue %v, want %v", comp, axis, got, want)
			}
		}
	}
	checkMode(2, kz, 2, C/rho*kz*kz) // vertical P
	checkMode(0, kz, 2, L/rho*kz*kz) // vertical S (x-polarised, z-propagating)
	kx := 2 * math.Pi / 2.0
	checkMode(0, kx, 0, A/rho*kx*kx) // horizontal P
	checkMode(1, kx, 0, N/rho*kx*kx) // horizontal SH
}

func TestAnisotropicValidation(t *testing.T) {
	m := mesh.Uniform(2, 2, 2, 1, 1)
	if _, err := NewAnisotropic3D(m, 2, false, nil); err == nil {
		t.Error("expected error for missing tensors")
	}
	bad := isoTensors(m, 1, 1)
	bad[0][0][1] = 99 // break symmetry
	if _, err := NewAnisotropic3D(m, 2, false, bad); err == nil {
		t.Error("expected error for asymmetric tensor")
	}
}

// TestAnisotropicWithLTS: the general operator slots into the LTS scheme
// via the sem.Operator interface (smoke run through the interface used by
// package lts: masked, element-restricted application).
func TestAnisotropicRestrictedApplication(t *testing.T) {
	m := mesh.Uniform(4, 2, 2, 1, 1)
	op, err := NewAnisotropic3D(m, 2, false, isoTensors(m, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, op.NDof())
	var nb []int32
	nb = op.ElemNodes(5, nb)
	for _, n := range nb {
		u[3*n] = float64(n % 5)
	}
	full := make([]float64, op.NDof())
	part := make([]float64, op.NDof())
	op.AddKu(full, u, AllElements(op))
	// Elements sharing nodes with element 5.
	var adj []int32
	seen := map[int32]bool{}
	for e := 0; e < m.NumElements(); e++ {
		var eb []int32
		eb = op.ElemNodes(e, eb)
		for _, n := range eb {
			for _, n2 := range nb {
				if n == n2 && !seen[int32(e)] {
					seen[int32(e)] = true
					adj = append(adj, int32(e))
				}
			}
		}
	}
	op.AddKu(part, u, adj)
	for i := range full {
		if full[i] != part[i] {
			t.Fatalf("restricted application differs at %d", i)
		}
	}
}
