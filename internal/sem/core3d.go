package sem

import (
	"math"

	"golts/internal/gll"
	"golts/internal/mesh"
)

// core3d is the shared kernel core of the 3-D operators (acoustic and
// isotropic elastic): the precomputed state that makes the stiffness
// kernels flat and allocation-free.
//
//   - conn is the flat gather/scatter table, built once at construction:
//     conn[e*n3+i] is the global node of element e's i-th local GLL node
//     (a fastest, then b, then c). ElemNodes, mass assembly, and the
//     AddKu kernels all read it; no call path re-derives element
//     connectivity through NodeIndex.
//   - dfl/dtf are the GLL derivative matrix and its transpose stored
//     row-major with stride nq (dfl[i*nq+j] = D[i][j] = l'_j(x_i)), so the
//     tensor contractions run over contiguous rows with no [][]float64
//     double indirection.
//
// The struct is embedded by value in each operator; the operators keep
// their exported M/Rule/Periodic fields and mirror them here for the
// kernels.
type core3d struct {
	msh           *mesh.Mesh
	rule          *gll.Rule
	deg           int
	nq, n3        int // nodes per axis (deg+1) and per element (deg+1)³
	nxn, nyn, nzn int
	periodic      bool

	conn []int32   // flat connectivity: numElements × n3 node ids
	dfl  []float64 // derivative matrix, row-major, stride nq
	dtf  []float64 // transposed derivative matrix, row-major, stride nq
	minv []float64 // per-node inverse lumped mass
}

// initCore fills the dimensions, the flat derivative matrices, and the
// connectivity table, then assembles the lumped mass.
func (c *core3d) initCore(m *mesh.Mesh, r *gll.Rule, deg int, periodic bool, rho []float64) {
	c.msh, c.rule, c.deg, c.periodic = m, r, deg, periodic
	c.nq = deg + 1
	c.n3 = c.nq * c.nq * c.nq
	c.nxn, c.nyn, c.nzn = deg*m.NX+1, deg*m.NY+1, deg*m.NZ+1
	if periodic {
		c.nxn, c.nyn, c.nzn = deg*m.NX, deg*m.NY, deg*m.NZ
	}
	c.dfl = make([]float64, c.nq*c.nq)
	c.dtf = make([]float64, c.nq*c.nq)
	for i := 0; i < c.nq; i++ {
		for j := 0; j < c.nq; j++ {
			c.dfl[i*c.nq+j] = r.D[i][j]
			c.dtf[i*c.nq+j] = r.D[j][i]
		}
	}
	ne := m.NumElements()
	c.conn = make([]int32, ne*c.n3)
	p := 0
	for e := 0; e < ne; e++ {
		i, j, k := m.ECoords(e)
		for cc := 0; cc < c.nq; cc++ {
			for b := 0; b < c.nq; b++ {
				for a := 0; a < c.nq; a++ {
					c.conn[p] = c.NodeIndex(deg*i+a, deg*j+b, deg*k+cc)
					p++
				}
			}
		}
	}
	c.assembleMass(rho)
}

// assembleMass builds the diagonal lumped mass from the flat connectivity.
func (c *core3d) assembleMass(rho []float64) {
	mass := make([]float64, c.NumNodes())
	w := c.rule.Weights
	nq := c.nq
	for e := 0; e < c.msh.NumElements(); e++ {
		dx, dy, dz := c.msh.ElemSize(e)
		jdet := dx * dy * dz / 8
		re := rho[e]
		nb := c.elemConn(e)
		idx := 0
		for cc := 0; cc < nq; cc++ {
			for b := 0; b < nq; b++ {
				for a := 0; a < nq; a++ {
					mass[nb[idx]] += re * w[a] * w[b] * w[cc] * jdet
					idx++
				}
			}
		}
	}
	c.minv = make([]float64, len(mass))
	for i, m := range mass {
		c.minv[i] = 1 / m
	}
}

// elemConn returns the connectivity view of element e: a zero-copy slice
// of the flat table.
func (c *core3d) elemConn(e int) []int32 {
	return c.conn[e*c.n3 : (e+1)*c.n3 : (e+1)*c.n3]
}

// NumNodes returns the unique global GLL node count.
func (c *core3d) NumNodes() int { return c.nxn * c.nyn * c.nzn }

// NumElements returns the mesh element count.
func (c *core3d) NumElements() int { return c.msh.NumElements() }

// MInv returns the per-node inverse lumped mass.
func (c *core3d) MInv() []float64 { return c.minv }

// NodeIndex maps per-axis GLL indices to the global node id, wrapping when
// periodic.
func (c *core3d) NodeIndex(i, j, k int) int32 {
	if c.periodic {
		if i == c.deg*c.msh.NX {
			i = 0
		}
		if j == c.deg*c.msh.NY {
			j = 0
		}
		if k == c.deg*c.msh.NZ {
			k = 0
		}
	}
	return int32((k*c.nyn+j)*c.nxn + i)
}

// ElemNodes appends the (deg+1)³ node ids of element e: a copy from the
// precomputed flat table.
func (c *core3d) ElemNodes(e int, buf []int32) []int32 {
	return append(buf, c.elemConn(e)...)
}

// ConnTable exposes the flat connectivity (implements Connectivity).
func (c *core3d) ConnTable() ([]int32, int) { return c.conn, c.n3 }

// NodeCoords returns the physical coordinates of node n.
func (c *core3d) NodeCoords(n int32) (x, y, z float64) {
	i := int(n) % c.nxn
	j := (int(n) / c.nxn) % c.nyn
	k := int(n) / (c.nxn * c.nyn)
	return axisCoord(c.rule, c.deg, c.msh.XC, i), axisCoord(c.rule, c.deg, c.msh.YC, j), axisCoord(c.rule, c.deg, c.msh.ZC, k)
}

// NearestNode returns the node nearest to (x, y, z), ties to the lowest
// node id: exactly what a scan of every node computing
// (nx-x)*(nx-x) + (ny-y)*(ny-y) + (nz-z)*(nz-z) with a strict < returns.
// x, y and z must be finite. The nodes form a tensor-product lattice, so
// the squared distance is a sum of per-axis terms; only indices whose term
// is within rounding of their axis minimum can win, and only their product
// is scanned — O(nodes per axis), not O(NumNodes).
func (c *core3d) NearestNode(x, y, z float64) int32 {
	mx := c.axisMin(c.msh.XC, c.nxn, x)
	my := c.axisMin(c.msh.YC, c.nyn, y)
	mz := c.axisMin(c.msh.ZC, c.nzn, z)
	// Rounding in the three-term sum is a few ulps of it; anything
	// farther from its axis minimum cannot tie the best sum.
	tol := 1e-9 * (mx + my + mz)
	best, bd := int32(0), math.Inf(1)
	for k := 0; k < c.nzn; k++ {
		nz := axisCoord(c.rule, c.deg, c.msh.ZC, k)
		if (nz-z)*(nz-z) > mz+tol {
			continue
		}
		for j := 0; j < c.nyn; j++ {
			ny := axisCoord(c.rule, c.deg, c.msh.YC, j)
			if (ny-y)*(ny-y) > my+tol {
				continue
			}
			for i := 0; i < c.nxn; i++ {
				nx := axisCoord(c.rule, c.deg, c.msh.XC, i)
				if (nx-x)*(nx-x) > mx+tol {
					continue
				}
				if d := (nx-x)*(nx-x) + (ny-y)*(ny-y) + (nz-z)*(nz-z); d < bd {
					best, bd = int32((k*c.nyn+j)*c.nxn+i), d
				}
			}
		}
	}
	return best
}

// axisMin returns the smallest squared distance from x to the first n
// lattice coordinates of one axis.
func (c *core3d) axisMin(bc []float64, n int, x float64) float64 {
	m := math.Inf(1)
	for gi := 0; gi < n; gi++ {
		d := axisCoord(c.rule, c.deg, bc, gi) - x
		m = min(m, d*d)
	}
	return m
}

func axisCoord(r *gll.Rule, deg int, bc []float64, gi int) float64 {
	e := gi / deg
	a := gi % deg
	if e == len(bc)-1 {
		e, a = len(bc)-2, deg
	}
	return bc[e] + (bc[e+1]-bc[e])*(r.Points[a]+1)/2
}
