package lts

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"golts/internal/mesh"
	"golts/internal/sem"
)

// oracle is the full-vector LTS-Newmark stepper the package shipped
// before the active-region rewrite, kept verbatim as the test oracle:
// every per-level buffer is full-length and every pointwise pass walks
// the node index lists. It shares nothing with Scheme but the index sets
// (whose levelNodes / forceElems / stepNodesAt lists are what they always
// were; the force-node lists it derives itself) and always runs the
// per-element kernel, which kernel_test.go pins bitwise against the
// batched one.
type oracle struct {
	op      sem.Operator
	dt      float64
	sigma   []float64
	sources []sem.Source
	sets    *sets
	nlv     int
	// forceNodes[li]: all nodes of forceElems[li], in first-touched order.
	forceNodes [][]int32

	U, V   []float64
	t      float64
	cycleT float64
	start  bool

	zbuf, fbuf, vbuf, usnap [][]float64
	mask, kbuf              []float64
	scr                     sem.Scratch
}

func newOracle(op sem.Operator, elemLevel []uint8, numLevels int, dt float64, optimized bool) *oracle {
	st, err := buildSets(op, elemLevel, numLevels, optimized)
	if err != nil {
		panic(err)
	}
	nd := op.NDof()
	o := &oracle{
		op: op, dt: dt, sets: st, nlv: numLevels,
		U: make([]float64, nd), V: make([]float64, nd),
		mask: make([]float64, nd), kbuf: make([]float64, nd),
	}
	var nb []int32
	for li := 0; li < numLevels; li++ {
		seen := make([]bool, op.NumNodes())
		var nodes []int32
		for _, e := range st.forceElems[li] {
			nb = op.ElemNodes(int(e), nb[:0])
			for _, n := range nb {
				if !seen[n] {
					seen[n] = true
					nodes = append(nodes, n)
				}
			}
		}
		o.forceNodes = append(o.forceNodes, nodes)
	}
	for _, b := range []*[][]float64{&o.zbuf, &o.fbuf, &o.vbuf, &o.usnap} {
		*b = make([][]float64, numLevels)
		for li := range *b {
			(*b)[li] = make([]float64, nd)
		}
	}
	return o
}

func (o *oracle) dtAt(li int) float64 { return o.dt / float64(int64(1)<<uint(li)) }

func (o *oracle) applyAP(li int, u []float64, t float64, dst []float64) {
	nc := o.op.Comps()
	minv := o.op.MInv()
	for _, n := range o.sets.levelNodes[li] {
		for c := 0; c < nc; c++ {
			o.mask[int(n)*nc+c] = u[int(n)*nc+c]
		}
	}
	o.op.AddKuScratch(o.kbuf, o.mask, o.sets.forceElems[li], &o.scr)
	for _, n := range o.forceNodes[li] {
		mi := minv[n]
		for c := 0; c < nc; c++ {
			d := int(n)*nc + c
			dst[d] = mi * o.kbuf[d]
			o.kbuf[d] = 0
		}
	}
	for _, n := range o.sets.levelNodes[li] {
		for c := 0; c < nc; c++ {
			o.mask[int(n)*nc+c] = 0
		}
	}
	for _, sc := range o.sources {
		if int(o.sets.nodeLevel[sc.Dof/nc]) == li {
			xi := t - o.cycleT
			amp := 0.5 * (sc.W.Amp(o.cycleT+xi) + sc.W.Amp(o.cycleT-xi))
			dst[sc.Dof] -= amp * minv[sc.Dof/nc]
		}
	}
}

func (o *oracle) advance(li int, tStart float64) {
	dt := o.dtAt(li)
	last := li == o.nlv-1
	v := o.vbuf[li]
	f := o.fbuf[li-1]
	nc := o.op.Comps()
	u := o.U
	for m := 0; m < 2; m++ {
		tm := tStart + float64(m)*dt
		o.applyAP(li, u, tm, o.zbuf[li])
		z := o.zbuf[li]
		if last {
			if m == 0 {
				for j := li; j < o.nlv; j++ {
					for _, n := range o.sets.stepNodesAt[j] {
						for d := int(n) * nc; d < int(n)*nc+nc; d++ {
							v[d] = -dt / 2 * (f[d] + z[d])
							u[d] += dt * v[d]
						}
					}
				}
			} else {
				for j := li; j < o.nlv; j++ {
					for _, n := range o.sets.stepNodesAt[j] {
						for d := int(n) * nc; d < int(n)*nc+nc; d++ {
							v[d] -= dt * (f[d] + z[d])
							u[d] += dt * v[d]
						}
					}
				}
			}
		} else {
			us := o.usnap[li]
			fl := o.fbuf[li]
			for j := li; j < o.nlv; j++ {
				for _, n := range o.sets.stepNodesAt[j] {
					for d := int(n) * nc; d < int(n)*nc+nc; d++ {
						fl[d] = f[d] + z[d]
						us[d] = u[d]
					}
				}
			}
			o.advance(li+1, tm)
			if m == 0 {
				for j := li; j < o.nlv; j++ {
					for _, n := range o.sets.stepNodesAt[j] {
						for d := int(n) * nc; d < int(n)*nc+nc; d++ {
							v[d] = (u[d] - us[d]) / dt
							u[d] = us[d] + dt*v[d]
						}
					}
				}
			} else {
				for j := li; j < o.nlv; j++ {
					for _, n := range o.sets.stepNodesAt[j] {
						for d := int(n) * nc; d < int(n)*nc+nc; d++ {
							v[d] += 2 * (u[d] - us[d]) / dt
							u[d] = us[d] + dt*v[d]
						}
					}
				}
			}
		}
	}
	dur := 2 * dt
	half := dur * dur / 2
	for _, n := range o.sets.stepNodesAt[li-1] {
		base := int(n) * nc
		for c := 0; c < nc; c++ {
			u[base+c] -= half * f[base+c]
		}
	}
}

func (o *oracle) damp() {
	if o.sigma == nil {
		return
	}
	nc := o.op.Comps()
	for n, sg := range o.sigma {
		if sg == 0 {
			continue
		}
		fac := 1 / (1 + sg*o.dt)
		for c := 0; c < nc; c++ {
			o.V[n*nc+c] *= fac
		}
	}
}

func (o *oracle) Step() {
	nd := o.op.NDof()
	o.cycleT = o.t
	if o.nlv == 1 {
		o.applyAP(0, o.U, o.t, o.zbuf[0])
		z := o.zbuf[0]
		dt := o.dt
		if !o.start {
			for d := 0; d < nd; d++ {
				o.V[d] -= dt / 2 * z[d]
			}
			o.start = true
		} else {
			for d := 0; d < nd; d++ {
				o.V[d] -= dt * z[d]
			}
		}
		o.damp()
		for d := 0; d < nd; d++ {
			o.U[d] += dt * o.V[d]
		}
		o.t += o.dt
		return
	}
	o.applyAP(0, o.U, o.t, o.zbuf[0])
	us := o.usnap[0]
	copy(us, o.U)
	copy(o.fbuf[0], o.zbuf[0])
	o.advance(1, o.t)
	dtInv := 1 / o.dt
	if !o.start {
		for d := 0; d < nd; d++ {
			o.V[d] += (o.U[d] - us[d]) * dtInv
		}
		o.start = true
	} else {
		for d := 0; d < nd; d++ {
			o.V[d] += 2 * (o.U[d] - us[d]) * dtInv
		}
	}
	o.damp()
	for d := 0; d < nd; d++ {
		o.U[d] = us[d] + o.dt*o.V[d]
	}
	o.t += o.dt
}

// oracleMesh builds a graded box whose x-columns halve in size towards
// the middle, giving exactly `levels` LTS levels, wide enough on the
// coarse side that far-coarse (stepLvl 0) nodes exist.
func oracleMesh(t *testing.T, levels int) (*mesh.Mesh, *mesh.Levels) {
	t.Helper()
	xc := []float64{0, 1, 2, 3}
	for k, w := 1, 0.5; k < levels; k, w = k+1, w/2 {
		xc = append(xc, xc[len(xc)-1]+w)
	}
	for i := 0; i < 3; i++ {
		xc = append(xc, xc[len(xc)-1]+1)
	}
	yz := []float64{0, 1, 2}
	m, err := mesh.New("oracle", xc, yz, yz)
	if err != nil {
		t.Fatal(err)
	}
	lv := mesh.AssignLevels(m, 0.3/16, 0)
	if lv.NumLevels != levels {
		t.Fatalf("want %d levels, got %d", levels, lv.NumLevels)
	}
	return m, lv
}

// firstNode returns the lowest node id satisfying pred, or -1.
func firstNode(st *sets, pred func(n int) bool) int {
	for n := range st.stepLvl {
		if pred(n) {
			return n
		}
	}
	return -1
}

// farRunOf returns the first run [p0, p1) of consecutive node ids in far
// that is at least minLen long, or (-1, -1).
func farRunOf(far []int32, minLen int) (p0, p1 int) {
	for p0 = 0; p0 < len(far); p0 = p1 {
		for p1 = p0 + 1; p1 < len(far) && far[p1] == far[p1-1]+1; p1++ {
		}
		if p1-p0 >= minLen {
			return p0, p1
		}
	}
	return -1, -1
}

// oracleSourceNodes returns the source placements of the oracle tests,
// each as the nodes it puts sources on: the placements take different
// paths through the fused coarse pass (a far-coarse node at the start of
// the far list, in the middle of a run, at the end of a run, two adjacent
// far-coarse nodes; a level-0 halo node; a finest-level node).
func oracleSourceNodes(t *testing.T, st *sets, levels int) map[string][]int {
	t.Helper()
	far := st.far
	r0, r1 := farRunOf(far, 4)
	if r0 < 0 || r1 == len(far) {
		t.Fatalf("%d levels: no run of four far-coarse nodes followed by a gap", levels)
	}
	mid := (r0 + r1) / 2
	nodes := map[string][]int{
		"far":      {firstNode(st, func(n int) bool { return st.stepLvl[n] == 0 })},
		"far-mid":  {int(far[mid])},
		"far-last": {int(far[r1-1])},
		"far-pair": {int(far[mid-1]), int(far[mid])},
		"halo":     {firstNode(st, func(n int) bool { return st.nodeLevel[n] == 0 && st.stepLvl[n] > 0 })},
		"fine":     {firstNode(st, func(n int) bool { return int(st.nodeLevel[n]) == levels-1 })},
	}
	for where, ns := range nodes {
		if ns[0] < 0 {
			t.Fatalf("%d levels: no %s node", levels, where)
		}
	}
	return nodes
}

// oracleSources puts two sources on the first component of the first of
// nodes and one on the last component of the last: the subtraction order
// per dof is part of the contract.
func oracleSources(nodes []int, nc int) []sem.Source {
	first, last := nodes[0], nodes[len(nodes)-1]
	return []sem.Source{
		{Dof: first * nc, W: sem.Ricker{F0: 2, T0: 0.3}},
		{Dof: first * nc, W: sem.Ricker{F0: 3, T0: 0.2}},
		{Dof: last*nc + nc - 1, W: sem.Ricker{F0: 1, T0: 0.5}},
	}
}

// TestBitwiseAgainstFullVectorOracle pins the active-region engine bit
// for bit against the pre-rewrite full-vector stepper after 1 and 8
// cycles at nonzero amplitude, over acoustic + elastic × 2–4 levels ×
// both engines × sponge on/off × the source placements of
// oracleSourceNodes × fresh start vs. a mid-run Restore into a freshly
// built scheme. The accumulators must be zero after every cycle.
func TestBitwiseAgainstFullVectorOracle(t *testing.T) {
	for _, physics := range []string{"acoustic", "elastic"} {
		for levels := 2; levels <= 4; levels++ {
			m, lv := oracleMesh(t, levels)
			var op sem.BatchKernel
			var err error
			if physics == "elastic" {
				op, err = sem.NewElastic3D(m, 4, false, 0)
			} else {
				op, err = sem.NewAcoustic3D(m, 4, false)
			}
			if err != nil {
				t.Fatal(err)
			}
			nc, nd := op.Comps(), op.NDof()
			sigma := make([]float64, op.NumNodes())
			for n := range sigma {
				if n%3 != 0 {
					sigma[n] = 0.05 * float64(n%7)
				}
			}
			u0 := make([]float64, nd)
			v0 := make([]float64, nd)
			for d := range u0 {
				u0[d] = math.Sin(0.37 * float64(d))
				v0[d] = 0.1 * math.Cos(0.11*float64(d))
			}
			for _, optimized := range []bool{true, false} {
				probe, err := buildSets(op, lv.Lvl, lv.NumLevels, true)
				if err != nil {
					t.Fatal(err)
				}
				for where, nodes := range oracleSourceNodes(t, probe, levels) {
					src := oracleSources(nodes, nc)
					for _, sponge := range []bool{false, true} {
						name := fmt.Sprintf("%s/L%d/opt=%v/src=%s/sponge=%v", physics, levels, optimized, where, sponge)
						build := func() (*Scheme, *oracle) {
							s, err := FromMeshLevels(op, lv, optimized)
							if err != nil {
								t.Fatal(err)
							}
							o := newOracle(op, lv.Lvl, lv.NumLevels, lv.CoarseDt, optimized)
							if sponge {
								s.Sigma, o.sigma = sigma, sigma
							}
							s.SetSources(src)
							o.sources = src
							return s, o
						}
						s, o := build()
						if err := s.SetInitial(u0, v0); err != nil {
							t.Fatal(err)
						}
						copy(o.U, u0)
						copy(o.V, v0)
						for cyc := 1; cyc <= 8; cyc++ {
							s.Step()
							o.Step()
							if !s.AccumulatorsZero() {
								t.Fatalf("%s: stiffness accumulators nonzero after %d cycles", name, cyc)
							}
							if cyc == 4 {
								// Continue on a freshly built scheme restored
								// from the snapshot: scratch must carry nothing.
								fresh, _ := build()
								if err := fresh.Restore(s.Save()); err != nil {
									t.Fatal(err)
								}
								s = fresh
							}
							if cyc != 1 && cyc != 8 {
								continue
							}
							if d := firstBitDiff(s.U, o.U); d >= 0 {
								t.Fatalf("%s: U differs from the oracle at dof %d after %d cycles: %x vs %x",
									name, d, cyc, math.Float64bits(s.U[d]), math.Float64bits(o.U[d]))
							}
							if d := firstBitDiff(s.V, o.V); d >= 0 {
								t.Fatalf("%s: V differs from the oracle at dof %d after %d cycles", name, d, cyc)
							}
						}
						if mu, mv := maxAbs(s.U), maxAbs(s.V); !(mu > 0 && mu < 1e3 && mv > 0 && mv < 1e3) {
							t.Fatalf("%s: |U|max %g |V|max %g: the comparison is vacuous", name, mu, mv)
						}
					}
				}
			}
		}
	}
}

// TestSetSourcesTwiceMatchesFresh: a scheme whose sources are replaced
// before stepping steps bitwise like a fresh scheme given only the second
// set — the far-coarse runs are rebuilt, not extended — and bitwise like
// the full-vector oracle.
func TestSetSourcesTwiceMatchesFresh(t *testing.T) {
	m, lv := oracleMesh(t, 3)
	op, err := sem.NewElastic3D(m, 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := buildSets(op, lv.Lvl, lv.NumLevels, true)
	if err != nil {
		t.Fatal(err)
	}
	nodes := oracleSourceNodes(t, probe, lv.NumLevels)
	nc := op.Comps()
	first, second := oracleSources(nodes["far-last"], nc), oracleSources(nodes["far-pair"], nc)
	build := func(src ...[]sem.Source) *Scheme {
		s, err := FromMeshLevels(op, lv, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range src {
			s.SetSources(sc)
		}
		for d := range s.U {
			s.U[d] = math.Sin(0.37 * float64(d))
		}
		return s
	}
	twice, fresh := build(first, second), build(second)
	o := newOracle(op, lv.Lvl, lv.NumLevels, lv.CoarseDt, true)
	o.sources = second
	copy(o.U, fresh.U)
	for cyc := 0; cyc < 8; cyc++ {
		twice.Step()
		fresh.Step()
		o.Step()
	}
	if firstBitDiff(twice.U, fresh.U) >= 0 || firstBitDiff(twice.V, fresh.V) >= 0 {
		t.Fatal("a scheme given two source sets differs from a fresh one given the second")
	}
	if firstBitDiff(fresh.U, o.U) >= 0 || firstBitDiff(fresh.V, o.V) >= 0 {
		t.Fatal("the scheme differs from the full-vector oracle")
	}
}

// TestSingleLevelBitwiseAgainstOracle covers the nlv == 1 path (global
// leap-frog arithmetic) the same way, sources and sponge included.
func TestSingleLevelBitwiseAgainstOracle(t *testing.T) {
	op, lv, nl := graded1D([]uint8{1, 1, 1, 1, 1}, 1, 1, 4)
	dt := coarseDt(1, 1, 4)
	s, err := New(op, lv, nl, dt, true)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(op, lv, nl, dt, true)
	src := []sem.Source{{Dof: 3, W: sem.Ricker{F0: 1, T0: 1.2}}, {Dof: 3, W: sem.Ricker{F0: 2, T0: 0.4}}}
	s.SetSources(src)
	o.sources = src
	s.Sigma = make([]float64, op.NumNodes())
	for n := range s.Sigma {
		s.Sigma[n] = 0.1 * float64(n%3)
	}
	o.sigma = s.Sigma
	for d := range s.U {
		s.U[d] = math.Sin(0.4 * float64(d))
		o.U[d] = s.U[d]
	}
	for cyc := 0; cyc < 8; cyc++ {
		s.Step()
		o.Step()
	}
	if firstBitDiff(s.U, o.U) >= 0 || firstBitDiff(s.V, o.V) >= 0 {
		t.Fatal("single-level path differs from the full-vector oracle")
	}
}

// TestScratchIsActiveRegionSized asserts the memory claim of the
// active-region numbering: every per-level scratch slice the scheme
// holds spans the active region (nodes with stepLvl >= 1), not the mesh,
// and next to U and V exactly one vector — level 0's kbuf — is NDof long:
// the finer levels' kernels run in the active numbering.
func TestScratchIsActiveRegionSized(t *testing.T) {
	m, lv := oracleMesh(t, 3)
	op, err := sem.NewElastic3D(m, 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromMeshLevels(op, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	nAct := 0
	for _, l := range s.sets.stepLvl {
		if l >= 1 {
			nAct++
		}
	}
	want := nAct * op.Comps()
	if want == 0 || want >= op.NDof() {
		t.Fatalf("fixture has %d active of %d dofs; need a proper subset", want, op.NDof())
	}
	if len(s.ut) != want+op.Comps() {
		t.Errorf("auxiliary field has %d values, want activeDofs = %d plus the zero slot", len(s.ut), want)
	}
	if len(s.kact) != want {
		t.Errorf("fine-level accumulator has %d values, want activeDofs = %d", len(s.kact), want)
	}
	if len(s.minvAct) != want {
		t.Errorf("active-region M⁻¹ has %d values, want activeDofs = %d", len(s.minvAct), want)
	}
	s.Step() // plans and their remap tables exist from here on
	var full []string
	sv := reflect.ValueOf(s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.Type() == reflect.TypeOf([]float64(nil)) && f.Len() == op.NDof() {
			full = append(full, sv.Type().Field(i).Name)
		}
	}
	slices.Sort(full)
	if !slices.Equal(full, []string{"U", "V", "kbuf"}) {
		t.Errorf("NDof-long vectors held by a stepped scheme: %v, want U, V and kbuf alone", full)
	}
	held := 0
	for name, bufs := range map[string][][]float64{"zbuf": s.zbuf, "fbuf": s.fbuf, "vbuf": s.vbuf, "usnap": s.usnap} {
		for li, b := range bufs {
			if b == nil {
				continue
			}
			held++
			if len(b) != want {
				t.Errorf("%s[%d] has %d values, want activeDofs = %d (NDof = %d)", name, li, len(b), want, op.NDof())
			}
		}
	}
	// 3 levels need f[0], f[1], z[1], z[2], v[1], v[2], usnap[1].
	if held != 7 {
		t.Errorf("scheme holds %d per-level scratch slices, want 7", held)
	}
	if len(s.hold) >= op.NDof()/4 {
		t.Errorf("level-0 save/restore set has %d dofs of %d: not a thin interface", len(s.hold), op.NDof())
	}
}

func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func maxAbs(a []float64) float64 {
	m := 0.0
	for _, x := range a {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
