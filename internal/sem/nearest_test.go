package sem

import (
	"math"
	"math/rand"
	"testing"

	"golts/internal/mesh"
)

// bruteNearest is the oracle NearestNode must reproduce bit for bit: a scan
// of every node's coordinates (NodeCoords, precomputed) with a strict <, so
// ties go to the lowest node id.
func bruteNearest(coords [][3]float64, x, y, z float64) int32 {
	best, bd := int32(0), math.Inf(1)
	for n, c := range coords {
		nx, ny, nz := c[0], c[1], c[2]
		d := (nx-x)*(nx-x) + (ny-y)*(ny-y) + (nz-z)*(nz-z)
		if d < bd {
			best, bd = int32(n), d
		}
	}
	return best
}

// nearestQueries returns the query points of the equivalence test: random
// points (a tenth of them outside the box), exact node coordinates,
// midpoints between axis-adjacent nodes — with the other two coordinates on
// the node, near it or far off the box, so the tie is exact or sits below
// the rounding of the three-term sum — and element corners and centres.
func nearestQueries(c *core3d, rng *rand.Rand) [][3]float64 {
	m := c.msh
	x0, x1, y0, y1, z0, z1 := m.Extent()
	lo := [3]float64{x0, y0, z0}
	span := [3]float64{x1 - x0, y1 - y0, z1 - z0}
	var pts [][3]float64
	for i := 0; i < 200; i++ {
		var p [3]float64
		for a := range p {
			f := rng.Float64()
			if i%10 == 0 { // outside the box, on either side
				f = 1.05 + rng.Float64()
				if rng.Intn(2) == 0 {
					f = 1 - f
				}
			}
			p[a] = lo[a] + f*span[a]
		}
		pts = append(pts, p)
	}
	dims := [3]int{c.nxn, c.nyn, c.nzn}
	coords := func(ijk [3]int) [3]float64 {
		x, y, z := c.NodeCoords(c.NodeIndex(ijk[0], ijk[1], ijk[2]))
		return [3]float64{x, y, z}
	}
	for i := 0; i < 400; i++ {
		ijk := [3]int{rng.Intn(c.nxn), rng.Intn(c.nyn), rng.Intn(c.nzn)}
		if i < 100 { // the node itself
			pts = append(pts, coords(ijk))
			continue
		}
		axis := rng.Intn(3)
		if ijk[axis] == dims[axis]-1 {
			ijk[axis]--
		}
		a := coords(ijk)
		ijk[axis]++
		b := coords(ijk)
		p := a
		p[axis] = (a[axis] + b[axis]) / 2
		if i%2 == 1 { // near the node, or far enough off the box that the
			// midpoint's two terms differ by less than the sum's rounding
			off := [2]float64{0.02, 4}[i%4/2]
			for o := range p {
				if o != axis {
					p[o] += (rng.Float64() - 0.5) * span[o] * off
				}
			}
		}
		pts = append(pts, p)
	}
	for _, x := range m.XC {
		for _, y := range m.YC {
			for _, z := range m.ZC {
				pts = append(pts, [3]float64{x, y, z})
			}
		}
	}
	for e := 0; e < m.NumElements(); e++ {
		i, j, k := m.ECoords(e)
		pts = append(pts, [3]float64{(m.XC[i] + m.XC[i+1]) / 2, (m.YC[j] + m.YC[j+1]) / 2, (m.ZC[k] + m.ZC[k+1]) / 2})
	}
	return pts
}

// TestNearestNodeMatchesBruteForce pins the lattice search against the
// full scan on both 3-D operators at degrees 2, 3 and 4 (one periodic), at
// two mesh sizes, on every kind of query point including exact ties.
func TestNearestNodeMatchesBruteForce(t *testing.T) {
	for _, m := range []*mesh.Mesh{mesh.Uniform(5, 3, 4, 0.5, 1), mesh.Trench(0.0005)} {
		ops := []struct {
			name string
			c    *core3d
		}{
			{"acoustic-periodic-deg3", &mustAcoustic(m, 3, true).core3d},
			{"elastic-deg4", &mustElastic(m, 4, false).core3d},
			{"elastic-deg2", &mustElastic(m, 2, false).core3d},
		}
		for _, op := range ops {
			coords := make([][3]float64, op.c.NumNodes())
			for n := range coords {
				coords[n][0], coords[n][1], coords[n][2] = op.c.NodeCoords(int32(n))
			}
			rng := rand.New(rand.NewSource(int64(len(m.XC))))
			for _, p := range nearestQueries(op.c, rng) {
				got, want := op.c.NearestNode(p[0], p[1], p[2]), bruteNearest(coords, p[0], p[1], p[2])
				if got != want {
					t.Fatalf("%s on %s (%d nodes): NearestNode(%v) = %d, brute force %d",
						op.name, m.Name, op.c.NumNodes(), p, got, want)
				}
			}
		}
	}
}
