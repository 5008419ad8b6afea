package lts

import (
	"math"
	"testing"

	"golts/internal/newmark"
	"golts/internal/sem"
)

// graded1D builds a 1-D operator whose element sizes induce the given
// 1-based levels under power-of-two refinement: level k elements have size
// h/2^(k-1).
func graded1D(levels []uint8, h, c float64, deg int) (*sem.Op1D, []uint8, int) {
	xc := make([]float64, len(levels)+1)
	cs := make([]float64, len(levels))
	rho := make([]float64, len(levels))
	maxL := 1
	for i, l := range levels {
		xc[i+1] = xc[i] + h/float64(int(1)<<(l-1))
		cs[i] = c
		rho[i] = 1
		if int(l) > maxL {
			maxL = int(l)
		}
	}
	op, err := sem.NewOp1D(xc, cs, rho, deg, sem.FreeBC, sem.FreeBC)
	if err != nil {
		panic(err)
	}
	return op, levels, maxL
}

// coarseDt returns a stable coarse step for graded1D meshes: the CFL-scaled
// size of the coarse elements.
func coarseDt(h, c float64, deg int) float64 {
	// Conservative GLL CFL: the smallest GLL subinterval scales like
	// h/deg²; factor 0.5 for safety.
	return 0.5 * h / c / float64(deg*deg)
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestSingleLevelMatchesNewmarkExactly: with one level the LTS scheme must
// reproduce global Newmark bit for bit (same arithmetic).
func TestSingleLevelMatchesNewmarkExactly(t *testing.T) {
	op, lv, nl := graded1D([]uint8{1, 1, 1, 1, 1, 1}, 1, 1, 4)
	dt := coarseDt(1, 1, 4)
	s, err := New(op, lv, nl, dt, true)
	if err != nil {
		t.Fatal(err)
	}
	g := newmark.New(op, dt)
	u0 := make([]float64, op.NDof())
	v0 := make([]float64, op.NDof())
	for i := range u0 {
		x := op.NodeX(i)
		u0[i] = math.Sin(math.Pi * x / 6)
		v0[i] = 0.1 * math.Cos(math.Pi*x/6)
	}
	copy(s.U, u0)
	copy(s.V, v0)
	copy(g.U, u0)
	copy(g.V, v0)
	for n := 0; n < 50; n++ {
		s.Step()
		g.Step()
	}
	for i := range s.U {
		if s.U[i] != g.U[i] || s.V[i] != g.V[i] {
			t.Fatalf("dof %d: LTS (%v, %v) vs Newmark (%v, %v)", i, s.U[i], s.V[i], g.U[i], g.V[i])
		}
	}
}

// TestOptimizedMatchesReference: the active-set engine and the full-vector
// Algorithm 1 engine produce the same trajectory to roundoff, across level
// configurations.
func TestOptimizedMatchesReference(t *testing.T) {
	configs := [][]uint8{
		{1, 1, 2, 2, 1, 1},
		{1, 1, 1, 2, 3, 3, 2, 1, 1, 1},
		{1, 2, 3, 4, 3, 2, 1, 1},
		{3, 3, 1, 1, 1, 1, 3, 3}, // fine at both ends
	}
	for ci, levels := range configs {
		op, lv, nl := graded1D(levels, 1, 1, 4)
		dt := coarseDt(1, 1, 4)
		ref, err := New(op, lv, nl, dt, false)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(op, lv, nl, dt, true)
		if err != nil {
			t.Fatal(err)
		}
		u0 := make([]float64, op.NDof())
		for i := range u0 {
			x := op.NodeX(i)
			u0[i] = math.Exp(-2 * (x - 2) * (x - 2))
		}
		copy(ref.U, u0)
		copy(opt.U, u0)
		ref.Run(30)
		opt.Run(30)
		scale := 0.0
		for _, v := range ref.U {
			scale = math.Max(scale, math.Abs(v))
		}
		if d := maxAbsDiff(ref.U, opt.U); d > 1e-11*scale {
			t.Errorf("config %d: |U_ref - U_opt| = %v (scale %v)", ci, d, scale)
		}
		if d := maxAbsDiff(ref.V, opt.V); d > 1e-10 {
			t.Errorf("config %d: |V_ref - V_opt| = %v", ci, d)
		}
	}
}

// denseLTSOracle is an independent, brute-force transcription of the
// recursive multi-level scheme using full dense vectors and a dense A
// matrix, with no masking machinery: the verification oracle for the
// Scheme implementation.
type denseLTSOracle struct {
	a         [][]float64 // A = M⁻¹K dense
	nodeLevel []uint8     // 0-based
	nlv       int
	dt        float64
	u, v      []float64
	started   bool
}

func newDenseOracle(op sem.Operator, elemLevel []uint8, nlv int, dt float64) *denseLTSOracle {
	n := op.NDof()
	nc := op.Comps()
	o := &denseLTSOracle{nlv: nlv, dt: dt, u: make([]float64, n), v: make([]float64, n)}
	// Dense A by probing. A unit vector at dof j only excites the elements
	// incident to node j/nc, so each column is probed through the scalar
	// stiffness path over that incidence list and read on its node
	// support: O(support) instead of O(NDof).
	inc := make([][]int32, op.NumNodes())
	var nb []int32
	for e := 0; e < op.NumElements(); e++ {
		nb = op.ElemNodes(e, nb[:0])
		for _, nd := range nb {
			inc[nd] = append(inc[nd], int32(e))
		}
	}
	o.a = make([][]float64, n)
	for i := 0; i < n; i++ {
		o.a[i] = make([]float64, n)
	}
	probe := make([]float64, n)
	col := make([]float64, n)
	var scr sem.Scratch
	minv := op.MInv()
	support := make(map[int][]int32) // per node: shared by its nc dofs
	for j := 0; j < n; j++ {
		nodes, ok := support[j/nc]
		if !ok {
			nodes = sem.NodesOf(op, inc[j/nc])
			support[j/nc] = nodes
		}
		probe[j] = 1
		op.AddKuScratch(col, probe, inc[j/nc], &scr)
		probe[j] = 0
		for _, nd := range nodes {
			for c := 0; c < nc; c++ {
				d := int(nd)*nc + c
				o.a[d][j] = minv[nd] * col[d]
				col[d] = 0
			}
		}
	}
	// Node levels: max level of incident elements.
	o.nodeLevel = make([]uint8, op.NumNodes())
	for e := 0; e < op.NumElements(); e++ {
		nb = op.ElemNodes(e, nb[:0])
		for _, nd := range nb {
			if elemLevel[e]-1 > o.nodeLevel[nd] {
				o.nodeLevel[nd] = elemLevel[e] - 1
			}
		}
	}
	return o
}

// apl computes A·P_li·u densely.
func (o *denseLTSOracle) apl(li int, u []float64) []float64 {
	n := len(u)
	masked := make([]float64, n)
	for d := 0; d < n; d++ {
		if int(o.nodeLevel[d]) == li {
			masked[d] = u[d]
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += o.a[i][j] * masked[j]
		}
		out[i] = s
	}
	return out
}

func (o *denseLTSOracle) advance(li int, f, u []float64) []float64 {
	n := len(u)
	dt := o.dt / float64(int(1)<<li)
	cur := append([]float64(nil), u...)
	var v []float64
	for m := 0; m < 2; m++ {
		z := o.apl(li, cur)
		if li == o.nlv-1 {
			if m == 0 {
				v = make([]float64, n)
				for d := 0; d < n; d++ {
					v[d] = -dt / 2 * (f[d] + z[d])
				}
			} else {
				for d := 0; d < n; d++ {
					v[d] -= dt * (f[d] + z[d])
				}
			}
			for d := 0; d < n; d++ {
				cur[d] += dt * v[d]
			}
		} else {
			fz := make([]float64, n)
			for d := 0; d < n; d++ {
				fz[d] = f[d] + z[d]
			}
			end := o.advance(li+1, fz, cur)
			if m == 0 {
				v = make([]float64, n)
				for d := 0; d < n; d++ {
					v[d] = (end[d] - cur[d]) / dt
				}
			} else {
				for d := 0; d < n; d++ {
					v[d] += 2 * (end[d] - cur[d]) / dt
				}
			}
			for d := 0; d < n; d++ {
				cur[d] += dt * v[d]
			}
		}
	}
	return cur
}

func (o *denseLTSOracle) step() {
	n := len(o.u)
	w := o.apl(0, o.u)
	if o.nlv == 1 {
		if !o.started {
			for d := 0; d < n; d++ {
				o.v[d] -= o.dt / 2 * w[d]
			}
			o.started = true
		} else {
			for d := 0; d < n; d++ {
				o.v[d] -= o.dt * w[d]
			}
		}
		for d := 0; d < n; d++ {
			o.u[d] += o.dt * o.v[d]
		}
		return
	}
	end := o.advance(1, w, o.u)
	if !o.started {
		for d := 0; d < n; d++ {
			o.v[d] += (end[d] - o.u[d]) / o.dt
		}
		o.started = true
	} else {
		for d := 0; d < n; d++ {
			o.v[d] += 2 * (end[d] - o.u[d]) / o.dt
		}
	}
	for d := 0; d < n; d++ {
		o.u[d] += o.dt * o.v[d]
	}
}

// TestSchemeMatchesDenseOracle validates both engines against the dense
// no-masking transcription on a 3-level mesh.
func TestSchemeMatchesDenseOracle(t *testing.T) {
	levels := []uint8{1, 1, 2, 3, 3, 2, 1}
	op, lv, nl := graded1D(levels, 1, 1, 3)
	dt := coarseDt(1, 1, 3)
	oracle := newDenseOracle(op, lv, nl, dt)
	u0 := make([]float64, op.NDof())
	for i := range u0 {
		x := op.NodeX(i)
		u0[i] = math.Sin(1.3*x) + 0.2*x
	}
	copy(oracle.u, u0)
	for _, optimized := range []bool{false, true} {
		s, err := New(op, lv, nl, dt, optimized)
		if err != nil {
			t.Fatal(err)
		}
		copy(s.U, u0)
		o := newDenseOracle(op, lv, nl, dt)
		copy(o.u, u0)
		for n := 0; n < 12; n++ {
			s.Step()
			o.step()
		}
		if d := maxAbsDiff(s.U, o.u); d > 1e-10 {
			t.Errorf("optimized=%v: |U - oracle| = %v", optimized, d)
		}
		if d := maxAbsDiff(s.V, o.v); d > 1e-9 {
			t.Errorf("optimized=%v: |V - oracle| = %v", optimized, d)
		}
	}
}

// TestLTSSecondOrderConvergence: on a graded mesh the LTS solution
// converges at second order in Δt to the analytic standing wave.
func TestLTSSecondOrderConvergence(t *testing.T) {
	levels := []uint8{1, 1, 1, 2, 3, 3, 2, 1, 1, 1}
	op, lv, nl := graded1D(levels, 1, 1, 5)
	l := op.XC[len(op.XC)-1]
	k := math.Pi / l
	runErr := func(dt float64) float64 {
		s, err := New(op, lv, nl, dt, true)
		if err != nil {
			t.Fatal(err)
		}
		u0 := make([]float64, op.NDof())
		for i := range u0 {
			u0[i] = math.Cos(k * op.NodeX(i))
		}
		copy(s.U, u0)
		T := 0.75 * l // ωT = 3π/4: phase error visible
		steps := int(math.Round(T / dt))
		s.Run(steps)
		tEnd := float64(steps) * dt
		maxErr := 0.0
		for i := range u0 {
			want := math.Cos(k*op.NodeX(i)) * math.Cos(k*tEnd)
			maxErr = math.Max(maxErr, math.Abs(s.U[i]-want))
		}
		return maxErr
	}
	base := coarseDt(1, 1, 5)
	e1 := runErr(base)
	e2 := runErr(base / 2)
	ratio := e1 / e2
	if ratio < 3.2 || ratio > 4.8 {
		t.Errorf("LTS time convergence ratio %v, want ~4 (errors %v, %v)", ratio, e1, e2)
	}
}

// TestLTSEnergyStability: the LTS-leap-frog family conserves a modified
// discrete energy (Diaz & Grote), so the instantaneous energy oscillates
// in a band of width O(Δt²) with no secular growth. The test checks (a)
// boundedness over many cycles and (b) that the oscillation band shrinks
// when Δt is halved.
func TestLTSEnergyStability(t *testing.T) {
	levels := []uint8{1, 2, 3, 3, 2, 1, 1, 1}
	op, lv, nl := graded1D(levels, 1, 1, 4)
	band := func(dt float64, cycles int) (lo, hi, mean float64) {
		s, err := New(op, lv, nl, dt, true)
		if err != nil {
			t.Fatal(err)
		}
		u0 := make([]float64, op.NDof())
		for i := range u0 {
			x := op.NodeX(i)
			u0[i] = math.Exp(-4 * (x - 1.5) * (x - 1.5))
		}
		copy(s.U, u0)
		s.Step()
		e := s.Energy()
		lo, hi, mean = e, e, e
		for i := 1; i < cycles; i++ {
			s.Step()
			e = s.Energy()
			lo = math.Min(lo, e)
			hi = math.Max(hi, e)
			mean += e
		}
		return lo, hi, mean / float64(cycles)
	}
	dt := coarseDt(1, 1, 4)
	lo1, hi1, mean1 := band(dt, 3000)
	if (hi1-lo1)/mean1 > 0.15 {
		t.Errorf("energy band [%v, %v] too wide (mean %v)", lo1, hi1, mean1)
	}
	lo2, hi2, mean2 := band(dt/2, 6000)
	w1 := (hi1 - lo1) / mean1
	w2 := (hi2 - lo2) / mean2
	if w2 > 0.6*w1 {
		t.Errorf("energy band did not shrink with Δt: %.4f -> %.4f", w1, w2)
	}
	_ = lo2
}

// TestLTSUnstableWhenFineElementAtCoarseLevel: misassigning a fine element
// to the coarse level violates its CFL bound and must blow up — evidence
// the level machinery actually controls stability.
func TestLTSUnstableWhenFineElementAtCoarseLevel(t *testing.T) {
	// Element sizes correspond to levels {1,1,3,1}, but we assign all to
	// level 1 and step at the coarse rate.
	op, _, _ := graded1D([]uint8{1, 1, 3, 1}, 1, 1, 4)
	all1 := []uint8{1, 1, 1, 1}
	dt := coarseDt(1, 1, 4) * 2 // comfortably stable for h, fatal for h/4
	s, err := New(op, all1, 1, dt, true)
	if err != nil {
		t.Fatal(err)
	}
	u0 := make([]float64, op.NDof())
	for i := range u0 {
		u0[i] = math.Sin(2.0 * op.NodeX(i))
	}
	copy(s.U, u0)
	s.Run(200)
	norm := 0.0
	for _, v := range s.U {
		norm += v * v
	}
	if !(norm > 1e6) && !math.IsNaN(norm) {
		t.Skip("coarse step still stable on this mesh; CFL margin too generous")
	}
	// Now the correct assignment must remain stable at the same coarse dt.
	s2, err := New(op, []uint8{1, 1, 3, 1}, 3, dt, true)
	if err != nil {
		t.Fatal(err)
	}
	copy(s2.U, u0)
	s2.Run(200)
	norm2 := 0.0
	for _, v := range s2.U {
		norm2 += v * v
	}
	if math.IsNaN(norm2) || norm2 > 1e3 {
		t.Errorf("LTS with correct levels unstable: |u|² = %v", norm2)
	}
}

func TestWorkAccounting(t *testing.T) {
	levels := []uint8{1, 1, 2, 2, 1, 1}
	op, lv, nl := graded1D(levels, 1, 1, 4)
	dt := coarseDt(1, 1, 4)
	s, err := New(op, lv, nl, dt, true)
	if err != nil {
		t.Fatal(err)
	}
	// Force elements: level 2 has 2 own + the 2 coarse neighbors sharing
	// nodes (1-D: elements 1 and 4) = 4; level 1 nodes exist in elements
	// 0,1,4,5 (elements 2,3 have only level-2 nodes).
	fc := s.ForceElemCounts()
	if fc[1] != 4 {
		t.Errorf("level-2 force elements = %d, want 4", fc[1])
	}
	if got := s.HaloElems()[1]; got != 2 {
		t.Errorf("level-2 halo = %d, want 2", got)
	}
	// Ideal work: 4*1 + 2*2 = 8; actual: |F1|*1 + |F2|*2 = fc[0] + 8.
	if got, want := s.IdealElemStepsPerCycle(), int64(8); got != want {
		t.Errorf("ideal work %d, want %d", got, want)
	}
	if got, want := s.ActualElemStepsPerCycle(), int64(fc[0])+8; got != want {
		t.Errorf("actual work %d, want %d", got, want)
	}
	if e := s.Efficiency(); e <= 0 || e > 1 {
		t.Errorf("efficiency %v outside (0, 1]", e)
	}
	// Work counters accumulate as predicted.
	s.Run(3)
	wantApplies := int64(fc[0])*3 + int64(fc[1])*2*3
	if s.Work.ElemApplies != wantApplies {
		t.Errorf("ElemApplies = %d, want %d", s.Work.ElemApplies, wantApplies)
	}
	if s.Work.Cycles != 3 {
		t.Errorf("Cycles = %d", s.Work.Cycles)
	}
}

func TestModelSpeedupMatchesEquation9(t *testing.T) {
	// Two-level: 6 coarse + 2 fine, p=2: speedup = 2*8/(2*2+6) = 1.6.
	levels := []uint8{1, 1, 1, 2, 2, 1, 1, 1}
	op, lv, nl := graded1D(levels, 1, 1, 2)
	s, err := New(op, lv, nl, 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ModelSpeedup(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("model speedup %v, want 1.6", got)
	}
	if s.EffectiveSpeedup() >= s.ModelSpeedup() {
		t.Errorf("effective speedup %v should be below model %v (halo overhead)",
			s.EffectiveSpeedup(), s.ModelSpeedup())
	}
}

func TestValidationErrors(t *testing.T) {
	op, lv, nl := graded1D([]uint8{1, 2, 1}, 1, 1, 2)
	if _, err := New(op, lv, nl, -1, true); err == nil {
		t.Error("expected error for negative dt")
	}
	if _, err := New(op, []uint8{1, 2}, nl, 0.1, true); err == nil {
		t.Error("expected error for wrong level count")
	}
	if _, err := New(op, []uint8{1, 5, 1}, 2, 0.1, true); err == nil {
		t.Error("expected error for out-of-range level")
	}
}

func BenchmarkLTSCycle1D(b *testing.B) {
	levels := make([]uint8, 64)
	for i := range levels {
		levels[i] = 1
	}
	levels[30], levels[31], levels[32] = 2, 3, 2
	op, lv, nl := graded1D(levels, 1, 1, 4)
	s, err := New(op, lv, nl, coarseDt(1, 1, 4), true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
