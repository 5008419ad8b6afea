package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomMesh builds a small mesh with random (positive) spacings and
// velocities from quick-generated bytes.
func randomMesh(spacings []byte, vels []byte) *Mesh {
	dim := func(b byte) int { return 2 + int(b%3) }
	if len(spacings) < 3 {
		spacings = []byte{1, 2, 3}
	}
	nx, ny, nz := dim(spacings[0]), dim(spacings[1]), dim(spacings[2])
	mk := func(n int, seed byte) []float64 {
		xs := []float64{0}
		r := rand.New(rand.NewSource(int64(seed) + 1))
		for i := 0; i < n; i++ {
			xs = append(xs, xs[len(xs)-1]+0.25+r.Float64())
		}
		return xs
	}
	m, err := New("rand", mk(nx, spacings[0]), mk(ny, spacings[1]), mk(nz, spacings[2]))
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewSource(int64(len(vels)) + 7))
	for e := range m.C {
		m.C[e] = 0.5 + 3*r.Float64()
	}
	return m
}

// Property: levels always partition the elements, every multiplier is a
// power of two, and the assignment is CFL-stable.
func TestLevelsInvariantsProperty(t *testing.T) {
	f := func(sp [3]byte, v []byte) bool {
		m := randomMesh(sp[:], v)
		lv := AssignLevels(m, 0.5, 0)
		if err := lv.Validate(m); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		total := 0
		for _, c := range lv.Count {
			total += c
		}
		return total == m.NumElements()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the theoretical speedup is always in [1, pMax].
func TestSpeedupBoundsProperty(t *testing.T) {
	f := func(sp [3]byte, v []byte) bool {
		m := randomMesh(sp[:], v)
		lv := AssignLevels(m, 0.5, 0)
		s := lv.TheoreticalSpeedup()
		return s >= 1-1e-12 && s <= float64(lv.PMax())+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: locateElement returns an element whose box contains (or is
// nearest to, for clamped inputs) the query point.
func TestLocateElementProperty(t *testing.T) {
	m := Trench(0.02)
	x0, x1, y0, y1, z0, z1 := m.Extent()
	f := func(a, b, c float64) bool {
		x := x0 + math.Mod(math.Abs(a), 1)*(x1-x0)
		y := y0 + math.Mod(math.Abs(b), 1)*(y1-y0)
		z := z0 + math.Mod(math.Abs(c), 1)*(z1-z0)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		e := m.locateElement(x, y, z)
		i, j, k := m.ECoords(e)
		return m.XC[i] <= x+1e-9 && x <= m.XC[i+1]+1e-9 &&
			m.YC[j] <= y+1e-9 && y <= m.YC[j+1]+1e-9 &&
			m.ZC[k] <= z+1e-9 && z <= m.ZC[k+1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: smoothing never coarsens an element's absolute substep (it
// only promotes, possibly followed by a level renormalisation) and leaves
// a valid assignment.
func TestSmoothMonotoneProperty(t *testing.T) {
	f := func(sp [3]byte, v []byte) bool {
		m := randomMesh(sp[:], v)
		lv := AssignLevels(m, 0.5, 0)
		beforeSub := make([]float64, m.NumElements())
		for e := range beforeSub {
			beforeSub[e] = lv.CoarseDt / float64(lv.PFor(e))
		}
		lv.Smooth(m, 1)
		for e := range beforeSub {
			if lv.CoarseDt/float64(lv.PFor(e)) > beforeSub[e]*(1+1e-12) {
				return false
			}
		}
		return lv.Validate(m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: corner incidence is the exact transpose of the 8-corners-per-
// element relation.
func TestCornerIncidenceProperty(t *testing.T) {
	f := func(sp [3]byte) bool {
		m := randomMesh(sp[:], nil)
		off, elems := m.CornerIncidence()
		if int(off[len(off)-1]) != 8*m.NumElements() {
			return false
		}
		// Every element appears exactly 8 times.
		cnt := make([]int, m.NumElements())
		for _, e := range elems {
			cnt[e]++
		}
		for _, c := range cnt {
			if c != 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
