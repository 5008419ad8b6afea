package sem

import (
	"math"
	"testing"

	"golts/internal/mesh"
	"golts/internal/race"
)

// The reference kernels below are direct transcriptions of the pre-flat
// implementations (per-call ElemNodes, [][]float64 derivative matrices,
// closure indexing, per-call buffers). The flat/specialised kernels must
// reproduce them to 1e-12 relative.

func refAddKuAcoustic(op *Acoustic3D, dst, u []float64, elems []int32) {
	nq := op.deg + 1
	n3 := nq * nq * nq
	d := op.Rule.D
	w := op.Rule.Weights
	ue := make([]float64, n3)
	fx := make([]float64, n3)
	fy := make([]float64, n3)
	fz := make([]float64, n3)
	nb := make([]int32, 0, n3)
	idx := func(a, b, c int) int { return (c*nq+b)*nq + a }
	for _, e := range elems {
		dx, dy, dz := op.M.ElemSize(int(e))
		jdet := dx * dy * dz / 8
		ax, ay, az := 2/dx, 2/dy, 2/dz
		mu := op.M.Rho[e] * op.M.C[e] * op.M.C[e]
		sx, sy, sz := mu*jdet*ax*ax, mu*jdet*ay*ay, mu*jdet*az*az
		nb = op.ElemNodes(int(e), nb[:0])
		for i, n := range nb {
			ue[i] = u[n]
		}
		for c := 0; c < nq; c++ {
			for b := 0; b < nq; b++ {
				wbc := w[b] * w[c]
				for a := 0; a < nq; a++ {
					var dxu, dyu, dzu float64
					for m := 0; m < nq; m++ {
						dxu += d[a][m] * ue[idx(m, b, c)]
						dyu += d[b][m] * ue[idx(a, m, c)]
						dzu += d[c][m] * ue[idx(a, b, m)]
					}
					wa := w[a]
					fx[idx(a, b, c)] = sx * wa * wbc * dxu
					fy[idx(a, b, c)] = sy * wa * wbc * dyu
					fz[idx(a, b, c)] = sz * wa * wbc * dzu
				}
			}
		}
		for c := 0; c < nq; c++ {
			for b := 0; b < nq; b++ {
				for a := 0; a < nq; a++ {
					var acc float64
					for m := 0; m < nq; m++ {
						acc += d[m][a]*fx[idx(m, b, c)] + d[m][b]*fy[idx(a, m, c)] + d[m][c]*fz[idx(a, b, m)]
					}
					dst[nb[idx(a, b, c)]] += acc
				}
			}
		}
	}
}

func refAddKuElastic(op *Elastic3D, dst, u []float64, elems []int32) {
	nq := op.deg + 1
	n3 := nq * nq * nq
	d := op.Rule.D
	w := op.Rule.Weights
	ue := make([][]float64, 3)
	var tf [3][3][]float64
	for c := 0; c < 3; c++ {
		ue[c] = make([]float64, n3)
		for dd := 0; dd < 3; dd++ {
			tf[c][dd] = make([]float64, n3)
		}
	}
	nb := make([]int32, 0, n3)
	idx := func(a, b, c int) int { return (c*nq+b)*nq + a }
	for _, e := range elems {
		dx, dy, dz := op.M.ElemSize(int(e))
		jdet := dx * dy * dz / 8
		alpha := [3]float64{2 / dx, 2 / dy, 2 / dz}
		lam, mu := op.Lame(int(e))
		nb = op.ElemNodes(int(e), nb[:0])
		for i, n := range nb {
			ue[0][i] = u[3*n]
			ue[1][i] = u[3*n+1]
			ue[2][i] = u[3*n+2]
		}
		for c := 0; c < nq; c++ {
			for b := 0; b < nq; b++ {
				for a := 0; a < nq; a++ {
					var g [3][3]float64
					for comp := 0; comp < 3; comp++ {
						var gx, gy, gz float64
						uc := ue[comp]
						for m := 0; m < nq; m++ {
							gx += d[a][m] * uc[idx(m, b, c)]
							gy += d[b][m] * uc[idx(a, m, c)]
							gz += d[c][m] * uc[idx(a, b, m)]
						}
						g[comp][0] = alpha[0] * gx
						g[comp][1] = alpha[1] * gy
						g[comp][2] = alpha[2] * gz
					}
					tr := g[0][0] + g[1][1] + g[2][2]
					wq := w[a] * w[b] * w[c] * jdet
					q := idx(a, b, c)
					for comp := 0; comp < 3; comp++ {
						for ax := 0; ax < 3; ax++ {
							t := mu * (g[comp][ax] + g[ax][comp])
							if comp == ax {
								t += lam * tr
							}
							tf[comp][ax][q] = wq * alpha[ax] * t
						}
					}
				}
			}
		}
		for c := 0; c < nq; c++ {
			for b := 0; b < nq; b++ {
				for a := 0; a < nq; a++ {
					n := nb[idx(a, b, c)]
					for comp := 0; comp < 3; comp++ {
						var acc float64
						tx, ty, tz := tf[comp][0], tf[comp][1], tf[comp][2]
						for m := 0; m < nq; m++ {
							acc += d[m][a]*tx[idx(m, b, c)] + d[m][b]*ty[idx(a, m, c)] + d[m][c]*tz[idx(a, b, m)]
						}
						dst[3*int(n)+comp] += acc
					}
				}
			}
		}
	}
}

func refAddKuOp1D(op *Op1D, dst, u []float64, elems []int32) {
	nq := op.deg + 1
	d := op.Rule.D
	w := op.Rule.Weights
	f := make([]float64, nq)
	for _, e := range elems {
		base := int(e) * op.deg
		j := (op.XC[e+1] - op.XC[e]) / 2
		mu := op.Rho[e] * op.C[e] * op.C[e]
		s := mu / j
		for q := 0; q < nq; q++ {
			du := 0.0
			for a := 0; a < nq; a++ {
				du += d[q][a] * u[base+a]
			}
			f[q] = w[q] * s * du
		}
		for a := 0; a < nq; a++ {
			acc := 0.0
			for q := 0; q < nq; q++ {
				acc += d[q][a] * f[q]
			}
			dst[base+a] += acc
		}
	}
}

// kernelMesh is a small graded mesh with non-trivial material contrasts.
func kernelMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.New("kernel",
		[]float64{0, 0.7, 1.5, 2.0},
		[]float64{0, 1.1, 2.0},
		[]float64{0, 0.9, 2.1})
	if err != nil {
		t.Fatal(err)
	}
	for e := range m.C {
		m.C[e] = 1 + 0.3*float64(e%5)
		m.Rho[e] = 1 + 0.1*float64(e%3)
	}
	return m
}

// pseudoField fills u with a deterministic non-smooth field.
func pseudoField(u []float64) { BenchField(u) }

func maxRelDiff(a, b []float64) float64 {
	scale := 0.0
	for _, v := range b {
		if math.Abs(v) > scale {
			scale = math.Abs(v)
		}
	}
	if scale == 0 {
		scale = 1
	}
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d / scale
}

// TestKernelsMatchReference checks every operator's flat (and, at deg=4,
// specialised) kernel against the pre-flat reference implementation at
// 1e-12 relative, across degrees and boundary types.
func TestKernelsMatchReference(t *testing.T) {
	m := kernelMesh(t)
	for _, deg := range []int{2, 3, 4, 5} {
		for _, periodic := range []bool{false, true} {
			ac, err := NewAcoustic3D(m, deg, periodic)
			if err != nil {
				t.Fatal(err)
			}
			el, err := NewElastic3D(m, deg, periodic, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Restricted element list exercising gather/scatter overlap.
			elems := []int32{0, 1, 3, 4, 7, 10, 11}
			var sc Scratch
			for _, tc := range []struct {
				name string
				op   Operator
				ref  func(dst, u []float64, elems []int32)
			}{
				{"acoustic", ac, func(dst, u []float64, list []int32) { refAddKuAcoustic(ac, dst, u, list) }},
				{"elastic", el, func(dst, u []float64, list []int32) { refAddKuElastic(el, dst, u, list) }},
			} {
				u := make([]float64, tc.op.NDof())
				pseudoField(u)
				want := make([]float64, tc.op.NDof())
				tc.ref(want, u, elems)
				got := make([]float64, tc.op.NDof())
				tc.op.AddKuScratch(got, u, elems, &sc)
				if d := maxRelDiff(got, want); d > 1e-12 {
					t.Errorf("%s deg=%d periodic=%v: kernel differs from reference by %g", tc.name, deg, periodic, d)
				}
				// Plain AddKu must agree exactly with AddKuScratch.
				got2 := make([]float64, tc.op.NDof())
				tc.op.AddKu(got2, u, elems)
				for i := range got2 {
					if got2[i] != got[i] {
						t.Fatalf("%s deg=%d: AddKu != AddKuScratch at %d", tc.name, deg, i)
					}
				}
			}
		}
	}
	// 1-D operator across degrees.
	for _, deg := range []int{1, 2, 4, 6} {
		xc := []float64{0, 0.5, 1.2, 2.0, 2.3, 3.1}
		c := []float64{1, 2, 1.5, 3, 1}
		rho := []float64{1, 1.2, 0.8, 1, 2}
		op, err := NewOp1D(xc, c, rho, deg, FreeBC, FixedBC)
		if err != nil {
			t.Fatal(err)
		}
		u := make([]float64, op.NDof())
		pseudoField(u)
		elems := []int32{0, 2, 3}
		want := make([]float64, op.NDof())
		refAddKuOp1D(op, want, u, elems)
		got := make([]float64, op.NDof())
		var sc Scratch
		op.AddKuScratch(got, u, elems, &sc)
		if d := maxRelDiff(got, want); d > 1e-12 {
			t.Errorf("op1d deg=%d: kernel differs from reference by %g", deg, d)
		}
	}
}

// TestConnTable checks the flat connectivity against ElemNodes on every
// operator, including the periodic wrap.
func TestConnTable(t *testing.T) {
	m := kernelMesh(t)
	for _, periodic := range []bool{false, true} {
		op, err := NewAcoustic3D(m, 3, periodic)
		if err != nil {
			t.Fatal(err)
		}
		conn, npe := op.ConnTable()
		if npe != 64 {
			t.Fatalf("nodes per element = %d, want 64", npe)
		}
		if len(conn) != npe*op.NumElements() {
			t.Fatalf("conn length %d, want %d", len(conn), npe*op.NumElements())
		}
		var nb []int32
		for e := 0; e < op.NumElements(); e++ {
			nb = op.ElemNodes(e, nb[:0])
			for i, n := range nb {
				if conn[e*npe+i] != n {
					t.Fatalf("periodic=%v elem %d node %d: conn %d, ElemNodes %d", periodic, e, i, conn[e*npe+i], n)
				}
			}
		}
	}
}

// TestAddKuScratchZeroAllocs asserts the allocation contract of the
// kernel fast path on all three operators: after warm-up, zero heap
// allocations per apply.
func TestAddKuScratchZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	m := kernelMesh(t)
	for _, deg := range []int{3, 4} { // generic and specialised paths
		ac, _ := NewAcoustic3D(m, deg, false)
		el, _ := NewElastic3D(m, deg, false, 0)
		o1, err := NewOp1D([]float64{0, 1, 2, 3}, []float64{1, 1, 1}, []float64{1, 1, 1}, deg, FreeBC, FreeBC)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			op   Operator
		}{
			{"acoustic", ac}, {"elastic", el}, {"op1d", o1},
		} {
			op := tc.op
			u := make([]float64, op.NDof())
			pseudoField(u)
			dst := make([]float64, op.NDof())
			elems := AllElements(op)
			var sc Scratch
			op.AddKuScratch(dst, u, elems, &sc) // warm-up
			if n := testing.AllocsPerRun(10, func() {
				op.AddKuScratch(dst, u, elems, &sc)
			}); n != 0 {
				t.Errorf("%s deg=%d: AddKuScratch allocates %v per run, want 0", tc.name, deg, n)
			}
		}
	}
}

// TestRestrictionAccel checks the node-restricted accel against the full
// Accel on the support and that off-support entries are untouched.
func TestRestrictionAccel(t *testing.T) {
	m := kernelMesh(t)
	op, err := NewElastic3D(m, 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	elems := []int32{0, 1, 5}
	r := NewRestriction(op, elems)
	// Support must match a brute-force node set.
	seen := map[int32]bool{}
	var nb []int32
	for _, e := range elems {
		nb = op.ElemNodes(int(e), nb[:0])
		for _, n := range nb {
			seen[n] = true
		}
	}
	if len(seen) != len(r.Nodes) {
		t.Fatalf("restriction support %d nodes, want %d", len(r.Nodes), len(seen))
	}
	for i := 1; i < len(r.Nodes); i++ {
		if r.Nodes[i-1] >= r.Nodes[i] {
			t.Fatal("restriction support not strictly ascending")
		}
	}
	u := make([]float64, op.NDof())
	pseudoField(u)
	want := make([]float64, op.NDof())
	Accel(op, want, u, elems)
	const sentinel = 1e300
	got := make([]float64, op.NDof())
	for i := range got {
		got[i] = sentinel
	}
	var sc Scratch
	r.Accel(op, got, u, &sc)
	onSupport := make([]bool, op.NumNodes())
	for _, n := range r.Nodes {
		onSupport[n] = true
	}
	for n := 0; n < op.NumNodes(); n++ {
		for c := 0; c < 3; c++ {
			d := n*3 + c
			if onSupport[n] {
				if math.Abs(got[d]-want[d]) > 1e-12*math.Max(1, math.Abs(want[d])) {
					t.Fatalf("dof %d: restricted accel %g, full %g", d, got[d], want[d])
				}
			} else if got[d] != sentinel {
				t.Fatalf("dof %d off support was written", d)
			}
		}
	}
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(10, func() { r.Accel(op, got, u, &sc) }); n != 0 {
		t.Errorf("Restriction.Accel allocates %v per run, want 0", n)
	}
}
