// Package mesh provides structured, non-uniformly graded hexahedral meshes
// for wave propagation, mirroring the role of the user-supplied hexahedral
// meshes in SPECFEM3D (paper §II-C, §IV-A).
//
// Elements are axis-aligned boxes on a tensor grid with per-axis spacing
// arrays, which keeps the element Jacobian diagonal while still allowing the
// local refinement (small elements near surface features, velocity
// anomalies) that creates the CFL bottleneck the paper addresses.
package mesh

import (
	"fmt"
	"math"
)

// Mesh is a structured hexahedral mesh with graded spacing and per-element
// material properties.
type Mesh struct {
	// Name identifies the benchmark family ("trench", "embedding", ...).
	Name string
	// NX, NY, NZ are the element counts along each axis.
	NX, NY, NZ int
	// XC, YC, ZC are the element boundary coordinates along each axis
	// (length NX+1, NY+1, NZ+1, strictly ascending).
	XC, YC, ZC []float64
	// C is the compressional wave speed per element (length NX*NY*NZ).
	C []float64
	// Rho is the density per element (length NX*NY*NZ).
	Rho []float64
}

// New builds a mesh from boundary coordinate arrays with uniform material
// (c = 1, rho = 1). Material fields can be overwritten afterwards.
func New(name string, xc, yc, zc []float64) (*Mesh, error) {
	for _, c := range [][]float64{xc, yc, zc} {
		if len(c) < 2 {
			return nil, fmt.Errorf("mesh: need at least 2 boundary coordinates per axis, got %d", len(c))
		}
		for i := 1; i < len(c); i++ {
			if c[i] <= c[i-1] {
				return nil, fmt.Errorf("mesh: boundary coordinates must be strictly ascending (axis value %g after %g)", c[i], c[i-1])
			}
		}
	}
	m := &Mesh{
		Name: name,
		NX:   len(xc) - 1, NY: len(yc) - 1, NZ: len(zc) - 1,
		XC: xc, YC: yc, ZC: zc,
	}
	n := m.NumElements()
	m.C = make([]float64, n)
	m.Rho = make([]float64, n)
	for i := range m.C {
		m.C[i] = 1
		m.Rho[i] = 1
	}
	return m, nil
}

// NumElements returns the total element count NX*NY*NZ.
func (m *Mesh) NumElements() int { return m.NX * m.NY * m.NZ }

// EIndex maps (i, j, k) element coordinates to the linear element id.
func (m *Mesh) EIndex(i, j, k int) int { return (k*m.NY+j)*m.NX + i }

// ECoords is the inverse of EIndex.
func (m *Mesh) ECoords(e int) (i, j, k int) {
	i = e % m.NX
	j = (e / m.NX) % m.NY
	k = e / (m.NX * m.NY)
	return
}

// Dx returns the x-extent of elements in column i.
func (m *Mesh) Dx(i int) float64 { return m.XC[i+1] - m.XC[i] }

// Dy returns the y-extent of elements in row j.
func (m *Mesh) Dy(j int) float64 { return m.YC[j+1] - m.YC[j] }

// Dz returns the z-extent of elements in layer k.
func (m *Mesh) Dz(k int) float64 { return m.ZC[k+1] - m.ZC[k] }

// ElemSize returns the box dimensions of element e.
func (m *Mesh) ElemSize(e int) (dx, dy, dz float64) {
	i, j, k := m.ECoords(e)
	return m.Dx(i), m.Dy(j), m.Dz(k)
}

// CharLength returns the characteristic element size h_e used in the CFL
// condition (Eq. 7): the smallest box dimension.
func (m *Mesh) CharLength(e int) float64 {
	dx, dy, dz := m.ElemSize(e)
	return math.Min(dx, math.Min(dy, dz))
}

// StableDt returns the per-element CFL-stable time step C_CFL * h_e / c_e
// (Eq. 7 before taking the global minimum).
func (m *Mesh) StableDt(e int, cfl float64) float64 {
	return cfl * m.CharLength(e) / m.C[e]
}

// GlobalDt returns the globally stable time step: the minimum of StableDt
// over all elements. This is the non-LTS bottleneck step Δt_min = Δt/p_max.
func (m *Mesh) GlobalDt(cfl float64) float64 {
	dt := math.Inf(1)
	for e := 0; e < m.NumElements(); e++ {
		if d := m.StableDt(e, cfl); d < dt {
			dt = d
		}
	}
	return dt
}

// NumCornerNodes returns the number of element corner (vertex) nodes.
func (m *Mesh) NumCornerNodes() int { return (m.NX + 1) * (m.NY + 1) * (m.NZ + 1) }

// NumGLLNodes returns the number of unique GLL nodes for basis degree deg
// (shared between neighbouring elements): the "DOF" column of the paper's
// Fig. 5 table counts exactly these.
func (m *Mesh) NumGLLNodes(deg int) int {
	return (deg*m.NX + 1) * (deg*m.NY + 1) * (deg*m.NZ + 1)
}

// CornerIndex maps corner-node grid coordinates to a linear node id.
func (m *Mesh) CornerIndex(i, j, k int) int {
	return (k*(m.NY+1)+j)*(m.NX+1) + i
}

// FaceNeighbors appends to buf the element ids sharing a face with e (up to
// 6) and returns the extended slice. This adjacency defines the mesh's dual
// graph (paper §III-A.1).
func (m *Mesh) FaceNeighbors(e int, buf []int32) []int32 {
	i, j, k := m.ECoords(e)
	if i > 0 {
		buf = append(buf, int32(m.EIndex(i-1, j, k)))
	}
	if i < m.NX-1 {
		buf = append(buf, int32(m.EIndex(i+1, j, k)))
	}
	if j > 0 {
		buf = append(buf, int32(m.EIndex(i, j-1, k)))
	}
	if j < m.NY-1 {
		buf = append(buf, int32(m.EIndex(i, j+1, k)))
	}
	if k > 0 {
		buf = append(buf, int32(m.EIndex(i, j, k-1)))
	}
	if k < m.NZ-1 {
		buf = append(buf, int32(m.EIndex(i, j, k+1)))
	}
	return buf
}

// CornerIncidence returns the node -> incident-elements relation in CSR form
// (offsets of length NumCornerNodes+1, element ids concatenated). Each
// corner node touches up to 8 elements; this relation defines the hyperedges
// of the paper's hypergraph model (§III-A.2).
func (m *Mesh) CornerIncidence() (offsets []int32, elems []int32) {
	nn := m.NumCornerNodes()
	offsets = make([]int32, nn+1)
	// Count incident elements per node.
	for k := 0; k < m.NZ; k++ {
		for j := 0; j < m.NY; j++ {
			for i := 0; i < m.NX; i++ {
				for dk := 0; dk <= 1; dk++ {
					for dj := 0; dj <= 1; dj++ {
						for di := 0; di <= 1; di++ {
							offsets[m.CornerIndex(i+di, j+dj, k+dk)+1]++
						}
					}
				}
			}
		}
	}
	for i := 0; i < nn; i++ {
		offsets[i+1] += offsets[i]
	}
	elems = make([]int32, offsets[nn])
	fill := make([]int32, nn)
	for k := 0; k < m.NZ; k++ {
		for j := 0; j < m.NY; j++ {
			for i := 0; i < m.NX; i++ {
				e := int32(m.EIndex(i, j, k))
				for dk := 0; dk <= 1; dk++ {
					for dj := 0; dj <= 1; dj++ {
						for di := 0; di <= 1; di++ {
							n := m.CornerIndex(i+di, j+dj, k+dk)
							elems[offsets[n]+fill[n]] = e
							fill[n]++
						}
					}
				}
			}
		}
	}
	return offsets, elems
}

// Extent returns the bounding box of the mesh.
func (m *Mesh) Extent() (x0, x1, y0, y1, z0, z1 float64) {
	return m.XC[0], m.XC[m.NX], m.YC[0], m.YC[m.NY], m.ZC[0], m.ZC[m.NZ]
}
