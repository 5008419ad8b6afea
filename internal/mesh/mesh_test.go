package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

// Point queries that only the tests use.

// centroid returns the centroid coordinates of element e.
func (m *Mesh) centroid(e int) (x, y, z float64) {
	i, j, k := m.ECoords(e)
	return (m.XC[i] + m.XC[i+1]) / 2, (m.YC[j] + m.YC[j+1]) / 2, (m.ZC[k] + m.ZC[k+1]) / 2
}

// locateElement returns the element containing point (x, y, z), clamping to
// the nearest element when the point lies outside the mesh.
func (m *Mesh) locateElement(x, y, z float64) int {
	return m.EIndex(locate(m.XC, x), locate(m.YC, y), locate(m.ZC, z))
}

func locate(c []float64, x float64) int {
	n := len(c) - 1
	if x <= c[0] {
		return 0
	}
	if x >= c[n] {
		return n - 1
	}
	lo, hi := 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if c[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", []float64{0}, []float64{0, 1}, []float64{0, 1}); err == nil {
		t.Error("expected error for single boundary coordinate")
	}
	if _, err := New("bad", []float64{0, 1}, []float64{0, 1, 0.5}, []float64{0, 1}); err == nil {
		t.Error("expected error for non-ascending coordinates")
	}
	if _, err := New("ok", []float64{0, 1, 2}, []float64{0, 1}, []float64{0, 0.5}); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	m := Uniform(4, 3, 5, 1, 1)
	for e := 0; e < m.NumElements(); e++ {
		i, j, k := m.ECoords(e)
		if m.EIndex(i, j, k) != e {
			t.Fatalf("round trip failed for element %d -> (%d,%d,%d)", e, i, j, k)
		}
		if i < 0 || i >= m.NX || j < 0 || j >= m.NY || k < 0 || k >= m.NZ {
			t.Fatalf("coords out of range for element %d", e)
		}
	}
}

func TestIndexRoundTripProperty(t *testing.T) {
	m := Uniform(7, 6, 5, 1, 1)
	f := func(e uint16) bool {
		id := int(e) % m.NumElements()
		i, j, k := m.ECoords(id)
		return m.EIndex(i, j, k) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElemSizeUniform(t *testing.T) {
	m := Uniform(3, 3, 3, 2.5, 1)
	for e := 0; e < m.NumElements(); e++ {
		dx, dy, dz := m.ElemSize(e)
		for _, d := range []float64{dx, dy, dz} {
			if math.Abs(d-2.5) > 1e-12 {
				t.Fatalf("element %d size %v, want 2.5", e, d)
			}
		}
		if math.Abs(m.CharLength(e)-2.5) > 1e-12 {
			t.Fatalf("char length wrong")
		}
	}
}

func TestStableDtScalesWithVelocity(t *testing.T) {
	m := Uniform(2, 2, 2, 1, 1)
	m.C[0] = 4
	if got, want := m.StableDt(0, 0.5), 0.5/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("StableDt = %v, want %v", got, want)
	}
	if got, want := m.GlobalDt(0.5), 0.125; math.Abs(got-want) > 1e-12 {
		t.Errorf("GlobalDt = %v, want %v", got, want)
	}
}

func TestFaceNeighbors(t *testing.T) {
	m := Uniform(3, 3, 3, 1, 1)
	center := m.EIndex(1, 1, 1)
	nb := m.FaceNeighbors(center, nil)
	if len(nb) != 6 {
		t.Fatalf("center element has %d neighbors, want 6", len(nb))
	}
	corner := m.EIndex(0, 0, 0)
	nb = m.FaceNeighbors(corner, nil)
	if len(nb) != 3 {
		t.Fatalf("corner element has %d neighbors, want 3", len(nb))
	}
	// Symmetry: if b is a neighbor of a, a is a neighbor of b.
	for e := 0; e < m.NumElements(); e++ {
		for _, b := range m.FaceNeighbors(e, nil) {
			found := false
			for _, a := range m.FaceNeighbors(int(b), nil) {
				if int(a) == e {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", e, b)
			}
		}
	}
}

func TestCornerIncidence(t *testing.T) {
	m := Uniform(2, 2, 2, 1, 1)
	off, elems := m.CornerIncidence()
	if len(off) != m.NumCornerNodes()+1 {
		t.Fatalf("offsets length %d, want %d", len(off), m.NumCornerNodes()+1)
	}
	// Total incidences: 8 corners per element.
	if got, want := int(off[len(off)-1]), 8*m.NumElements(); got != want {
		t.Fatalf("total incidences %d, want %d", got, want)
	}
	// The central node of a 2x2x2 mesh touches all 8 elements.
	c := m.CornerIndex(1, 1, 1)
	if got := off[c+1] - off[c]; got != 8 {
		t.Fatalf("central corner touches %d elements, want 8", got)
	}
	seen := map[int32]bool{}
	for _, e := range elems[off[c]:off[c+1]] {
		if seen[e] {
			t.Fatalf("duplicate element %d at central corner", e)
		}
		seen[e] = true
	}
	// A domain corner touches exactly 1.
	cc := m.CornerIndex(0, 0, 0)
	if got := off[cc+1] - off[cc]; got != 1 {
		t.Fatalf("domain corner touches %d, want 1", got)
	}
}

func TestLocateElement(t *testing.T) {
	m := Uniform(4, 4, 4, 1, 1)
	e := m.locateElement(2.5, 0.5, 3.9)
	i, j, k := m.ECoords(e)
	if i != 2 || j != 0 || k != 3 {
		t.Errorf("located (%d,%d,%d), want (2,0,3)", i, j, k)
	}
	// Out-of-range points clamp.
	e = m.locateElement(-5, 100, 2.2)
	i, j, k = m.ECoords(e)
	if i != 0 || j != 3 || k != 2 {
		t.Errorf("clamped to (%d,%d,%d), want (0,3,2)", i, j, k)
	}
}

func TestNumGLLNodes(t *testing.T) {
	m := Uniform(2, 3, 4, 1, 1)
	// degree 4: (2*4+1)(3*4+1)(4*4+1) = 9*13*17
	if got, want := m.NumGLLNodes(4), 9*13*17; got != want {
		t.Errorf("NumGLLNodes = %d, want %d", got, want)
	}
}

func TestExtentAndCentroid(t *testing.T) {
	m := Uniform(2, 2, 2, 1.5, 1)
	x0, x1, _, _, _, z1 := m.Extent()
	if x0 != 0 || math.Abs(x1-3) > 1e-12 || math.Abs(z1-3) > 1e-12 {
		t.Errorf("extent wrong: %v %v %v", x0, x1, z1)
	}
	cx, cy, cz := m.centroid(0)
	if math.Abs(cx-0.75) > 1e-12 || math.Abs(cy-0.75) > 1e-12 || math.Abs(cz-0.75) > 1e-12 {
		t.Errorf("centroid wrong: %v %v %v", cx, cy, cz)
	}
}
