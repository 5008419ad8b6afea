package lts

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"golts/internal/ckpt"
	"golts/internal/sem"
)

// A scheme over a node domain cannot be run against a plain operator: its
// kernel inputs outside the domain are nobody's. The two operators below
// split one run in time instead of in space. recorder drives the full
// scheme and logs, per stiffness application, the input the scheme
// presented and the assembled K·u it got back, both in node numbering;
// replayer declares a footprint, checks that the domain-restricted scheme
// — whose arrays are the footprint's compact numbering — presents bitwise
// the same input on that footprint at the same point of the apply
// sequence, and delivers the logged result there and nowhere else — what
// a rank of the distributed engine does, minus the exchange.

type apply struct{ in, out []float64 } // NDof long, node-numbered

// mapPlan is both operators' plan: the element list, once remapped the
// caller's numbering (nil = node ids, nn of them), for the recorder the
// inner operator's plan of the same, for the replayer its check of a remap.
type mapPlan struct {
	elems []int32
	nn    int
	m     *sem.NodeMap
	inner sem.BatchPlan
	check func(elems []int32, m sem.NodeMap)
}

func (p *mapPlan) Elems() []int32 { return p.elems }

func (p *mapPlan) DstNodes() int {
	if p.m == nil {
		return p.nn
	}
	return p.m.NOut
}

func (p *mapPlan) Remap(m sem.NodeMap) sem.BatchPlan {
	if p.check != nil {
		p.check(p.elems, m)
	}
	m.In, m.Out = slices.Clone(m.In), slices.Clone(m.Out)
	return &mapPlan{elems: p.elems, m: &m}
}

// slots returns node n's dof offsets in the plan's input and output space
// (negative: the node has none).
func (p *mapPlan) slots(n, nc int) (in, out int) {
	if p.m == nil {
		return n * nc, n * nc
	}
	return int(p.m.In[n]) * nc, int(p.m.Out[n]) * nc
}

type recorder struct {
	sem.BatchKernel
	log []apply
}

func (r *recorder) NewBatchPlan(elems []int32) sem.BatchPlan {
	return &mapPlan{elems: slices.Clone(elems), nn: r.NumNodes()}
}

func (r *recorder) AddKuBatch(dst, u []float64, plan sem.BatchPlan, bs *sem.BatchScratch) {
	p := plan.(*mapPlan)
	if p.inner == nil {
		p.inner = r.BatchKernel.NewBatchPlan(p.elems)
		if p.m != nil {
			p.inner = p.inner.Remap(*p.m)
		}
	}
	// dst is one of the scheme's accumulators: all-zero on entry, so what
	// it holds afterwards is K·u.
	r.BatchKernel.AddKuBatch(dst, u, p.inner, bs)
	nc := r.Comps()
	a := apply{in: make([]float64, r.NDof()), out: make([]float64, r.NDof())}
	for n := 0; n < r.NumNodes(); n++ {
		i, o := p.slots(n, nc)
		copy(a.in[n*nc:(n+1)*nc], u[i:i+nc])
		if o >= 0 {
			copy(a.out[n*nc:(n+1)*nc], dst[o:o+nc])
		}
	}
	r.log = append(r.log, a)
}

type replayer struct {
	sem.BatchKernel
	t     *testing.T
	name  string
	nodes []int32 // the footprint
	log   []apply
	call  int
}

func (r *replayer) OwnedNodes() []int32 { return r.nodes }

func (r *replayer) NewBatchPlan(elems []int32) sem.BatchPlan {
	return &mapPlan{elems: slices.Clone(elems), nn: r.NumNodes(), check: r.checkMap}
}

// checkMap holds a remap to the sem.NodeMap contract of a footprint
// operator: every node of the plan's elements on the footprint reads from
// a slot and accumulates into one.
func (r *replayer) checkMap(elems []int32, m sem.NodeMap) {
	for _, n := range sem.NodesOf(r.BatchKernel, elems) {
		if _, mine := slices.BinarySearch(r.nodes, n); !mine {
			continue
		}
		if i := int(m.In[n]); i < 0 || i >= m.NIn {
			r.t.Fatalf("%s: remap reads footprint node %d from slot %d, outside [0, %d)", r.name, n, i, m.NIn)
		}
		if m.Out[n] < 0 || int(m.Out[n]) >= m.NOut {
			r.t.Fatalf("%s: remap accumulates footprint node %d into slot %d, outside [0, %d)", r.name, n, m.Out[n], m.NOut)
		}
	}
}

func (r *replayer) AddKuBatch(dst, u []float64, plan sem.BatchPlan, _ *sem.BatchScratch) {
	p := plan.(*mapPlan)
	a := r.log[r.call]
	nc := r.Comps()
	for _, n := range r.nodes {
		i, o := p.slots(int(n), nc)
		for c := 0; c < nc; c++ {
			if got, want := u[i+c], a.in[int(n)*nc+c]; math.Float64bits(got) != math.Float64bits(want) {
				r.t.Fatalf("%s: apply %d reads %v at footprint node %d comp %d, the full scheme read %v",
					r.name, r.call, got, n, c, want)
			}
			if o >= 0 {
				dst[o+c] += a.out[int(n)*nc+c]
			} else if a.out[int(n)*nc+c] != 0 {
				r.t.Fatalf("%s: apply %d has no output slot for footprint node %d, where K·u = %v",
					r.name, r.call, n, a.out[int(n)*nc+c])
			}
		}
	}
	r.call++
}

// compact returns the dofs of the global field u on nodes, in their order:
// the field as a scheme over that footprint holds it.
func compact(u []float64, nodes []int32, nc int) []float64 {
	out := make([]float64, 0, len(nodes)*nc)
	for _, n := range nodes {
		out = append(out, u[int(n)*nc:int(n+1)*nc]...)
	}
	return out
}

// runDomainPair steps the full scheme for 8 cycles and then, against its
// log, one domain-restricted scheme per footprint — the node supports of
// the element sets owned[0], owned[1], which together hold every element —
// started from the full scheme's initial state, sources and sponge
// translated into the footprint's compact numbering, and restored midway
// into a freshly built scheme from the full scheme's snapshot. Its U and V
// are footprint-long and must equal the full scheme's on the footprint bit
// for bit at nonzero amplitude, with the accumulators back at zero after
// every cycle and the work counters those of the full scheme.
func runDomainPair(t *testing.T, name string, op sem.BatchKernel, lvl []uint8, nlv int, dt float64,
	owned [2][]int32, src []sem.Source, sigma []float64) {
	t.Helper()
	const cycles = 8
	nc, nd := op.Comps(), op.NDof()
	u0 := make([]float64, nd)
	v0 := make([]float64, nd)
	for d := range u0 {
		u0[d] = math.Sin(0.37 * float64(d))
		v0[d] = 0.1 * math.Cos(0.11*float64(d))
	}
	rec := &recorder{BatchKernel: op}
	full, err := New(rec, lvl, nlv, dt, true)
	if err != nil {
		t.Fatal(err)
	}
	full.SetSources(src)
	full.Sigma = sigma
	copy(full.U, u0)
	copy(full.V, v0)
	var states []*ckpt.StepperState // the full scheme after each cycle
	for cyc := 1; cyc <= cycles; cyc++ {
		full.Step()
		states = append(states, saved(full.View()))
	}
	perCycle := len(rec.log) / cycles
	if mu, mv := maxAbs(full.U), maxAbs(full.V); !(mu > 0 && mu < 1e3 && mv > 0 && mv < 1e3) {
		t.Fatalf("%s: |U|max %g |V|max %g: the comparison is vacuous", name, mu, mv)
	}

	covered := make([]bool, op.NumNodes())
	for r, elems := range owned {
		rname := fmt.Sprintf("%s/share %d", name, r)
		rp := &replayer{BatchKernel: op, t: t, name: rname, nodes: sem.NodesOf(op, elems), log: rec.log}
		var local []sem.Source
		for _, sc := range src {
			if i, ok := slices.BinarySearch(rp.nodes, int32(sc.Dof/nc)); ok {
				local = append(local, sem.Source{Dof: i*nc + sc.Dof%nc, W: sc.W})
			}
		}
		build := func() *Scheme {
			s, err := New(rp, lvl, nlv, dt, true)
			if err != nil {
				t.Fatal(err)
			}
			s.SetSources(local)
			s.Sigma = compact(sigma, rp.nodes, 1)
			return s
		}
		s := build()
		copy(s.U, compact(u0, rp.nodes, nc))
		copy(s.V, compact(v0, rp.nodes, nc))
		active, far := s.Domain()
		dom := append(slices.Clone(active), far...)
		slices.Sort(dom)
		for i, n := range dom {
			if int(n) != i || len(dom) != len(rp.nodes) {
				t.Fatalf("%s: active region ∪ far-coarse list is not the footprint's numbering", rname)
			}
		}
		for _, n := range rp.nodes {
			covered[n] = true
		}
		for cyc := 1; cyc <= cycles; cyc++ {
			s.Step()
			if rp.call != cyc*perCycle {
				t.Fatalf("%s: %d applies after %d cycles, the full scheme issued %d", rname, rp.call, cyc, cyc*perCycle)
			}
			if !s.AccumulatorsZero() {
				t.Fatalf("%s: an accumulator is not all-zero after cycle %d", rname, cyc)
			}
			want := states[cyc-1]
			for _, f := range []struct {
				name      string
				got, want []float64
			}{{"U", s.U, compact(want.U, rp.nodes, nc)}, {"V", s.V, compact(want.V, rp.nodes, nc)}} {
				if len(f.got) != len(f.want) {
					t.Fatalf("%s: %s has %d dofs, the footprint %d", rname, f.name, len(f.got), len(f.want))
				}
				for d := range f.got {
					if math.Float64bits(f.got[d]) != math.Float64bits(f.want[d]) {
						t.Fatalf("%s: %s differs from the full scheme at footprint node %d comp %d after %d cycles: %v vs %v",
							rname, f.name, rp.nodes[d/nc], d%nc, cyc, f.got[d], f.want[d])
					}
				}
			}
			// Continue on a freshly built scheme restored from the full
			// scheme's snapshot: scratch must carry nothing.
			if cyc == cycles/2 {
				st := *states[cyc-1]
				st.U, st.V = compact(st.U, rp.nodes, nc), compact(st.V, rp.nodes, nc)
				s = build()
				if err := s.Restore(&st); err != nil {
					t.Fatal(err)
				}
			}
		}
		if s.Work.ElemApplies != full.Work.ElemApplies || !slices.Equal(s.Work.PerLevel, full.Work.PerLevel) {
			t.Fatalf("%s: work counters %d %v, the full scheme's are %d %v",
				rname, s.Work.ElemApplies, s.Work.PerLevel, full.Work.ElemApplies, full.Work.PerLevel)
		}
	}
	if n := slices.Index(covered, false); n >= 0 {
		t.Fatalf("%s: node %d is in neither footprint", name, n)
	}
}

// halves splits the element ids [0, ne) in two: in a mesh.Mesh numbering
// (x fastest, z slowest) the lower and upper z-slab, so the interface
// plane crosses every level of oracleMesh.
func halves(ne int) [2][]int32 {
	var h [2][]int32
	for e := 0; e < ne; e++ {
		h[2*e/ne] = append(h[2*e/ne], int32(e))
	}
	return h
}

// TestDomainRestrictedBitwiseAgainstFull pins the node-domain half of the
// layout: a scheme built on an operator that declares a footprint holds
// that footprint alone and advances it exactly as the full scheme does.
// Sources sit where the four cases of SetSources sit for either share: in
// each share's interior (fine and far-coarse), on the interface both
// shares hold, two of them on one dof.
func TestDomainRestrictedBitwiseAgainstFull(t *testing.T) {
	for _, physics := range []string{"acoustic", "elastic"} {
		for levels := 2; levels <= 3; levels++ {
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
			nc := op.Comps()
			owned := halves(op.NumElements())
			probe, err := buildSets(op, lv.Lvl, lv.NumLevels, true)
			if err != nil {
				t.Fatal(err)
			}
			in := [2][]bool{make([]bool, op.NumNodes()), make([]bool, op.NumNodes())}
			for r, elems := range owned {
				for _, n := range sem.NodesOf(op, elems) {
					in[r][n] = true
				}
			}
			pick := func(what string, pred func(n int) bool) int {
				n := firstNode(probe, pred)
				if n < 0 {
					t.Fatalf("%s/L%d: no %s node", physics, levels, what)
				}
				return n
			}
			fine := func(n int) bool { return int(probe.nodeLevel[n]) == levels-1 }
			farc := func(n int) bool { return probe.stepLvl[n] == 0 }
			var src []sem.Source
			for i, n := range []int{
				pick("fine interior of share 0", func(n int) bool { return fine(n) && in[0][n] && !in[1][n] }),
				pick("fine interior of share 1", func(n int) bool { return fine(n) && in[1][n] && !in[0][n] }),
				pick("far-coarse interior of share 0", func(n int) bool { return farc(n) && in[0][n] && !in[1][n] }),
				pick("far-coarse interior of share 1", func(n int) bool { return farc(n) && in[1][n] && !in[0][n] }),
				pick("fine interface", func(n int) bool { return fine(n) && in[0][n] && in[1][n] }),
				pick("far-coarse interface", func(n int) bool { return farc(n) && in[0][n] && in[1][n] }),
			} {
				src = append(src,
					sem.Source{Dof: n * nc, W: sem.Ricker{F0: 2 + float64(i), T0: 0.3}},
					sem.Source{Dof: n * nc, W: sem.Ricker{F0: 3, T0: 0.2 + 0.05*float64(i)}},
					sem.Source{Dof: n*nc + nc - 1, W: sem.Ricker{F0: 1, T0: 0.5}})
			}
			sigma := make([]float64, op.NumNodes())
			for n := range sigma {
				if n%3 != 0 {
					sigma[n] = 0.05 * float64(n%7)
				}
			}
			runDomainPair(t, fmt.Sprintf("%s/L%d", physics, levels), op, lv.Lvl, lv.NumLevels, lv.CoarseDt, owned, src, sigma)
		}
	}
	// The single-level path (global leap-frog over the active list).
	op, lvl, nl := graded1D([]uint8{1, 1, 1, 1, 1}, 1, 1, 4)
	src := []sem.Source{{Dof: 3, W: sem.Ricker{F0: 1, T0: 1.2}}, {Dof: 3, W: sem.Ricker{F0: 2, T0: 0.4}},
		{Dof: 8, W: sem.Ricker{F0: 1, T0: 0.7}}, {Dof: 17, W: sem.Ricker{F0: 1.5, T0: 0.9}}}
	sigma := make([]float64, op.NumNodes())
	for n := range sigma {
		sigma[n] = 0.1 * float64(n%3)
	}
	runDomainPair(t, "1d/L1", op, lvl, nl, coarseDt(1, 1, 4), [2][]int32{{0, 1}, {2, 3, 4}}, src, sigma)
}

// TestSetSourcesSkipsForeignNodes is the regression for SetSources
// dropping slices.BinarySearch's found result: a source on a node in
// neither the active region nor the far-coarse list was booked at
// whichever far-coarse position it would have been inserted at (one past
// the end included). Unreachable while the two lists cover the mesh; over
// a footprint they cover its compact numbering, and a source past its end
// marked an unrelated node as carrying sources, which coarsePass then
// searched each cycle.
func TestSetSourcesSkipsForeignNodes(t *testing.T) {
	m, lv := oracleMesh(t, 3)
	op, err := sem.NewAcoustic3D(m, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	owned := halves(op.NumElements())
	mine, theirs := sem.NodesOf(op, owned[0]), sem.NodesOf(op, owned[1])
	s, err := New(&replayer{BatchKernel: op, nodes: mine}, lv.Lvl, lv.NumLevels, lv.CoarseDt, true)
	if err != nil {
		t.Fatal(err)
	}
	shared := func(n int32) bool { _, ok := slices.BinarySearch(theirs, mine[n]); return ok }
	active, far := s.Domain()
	pick := func(what string, from []int32, pred func(n int32) bool) int32 {
		if i := slices.IndexFunc(from, pred); i >= 0 {
			return from[i]
		}
		t.Fatalf("fixture has no %s node", what)
		return -1
	}
	end := int32(len(mine))
	for _, tc := range []struct {
		name        string
		node        int32
		active, far bool // where the source must land
	}{
		{"own interior, active", pick("own active", active, func(n int32) bool { return !shared(n) }), true, false},
		{"own interior, far-coarse", pick("own far", far, func(n int32) bool { return !shared(n) }), false, true},
		{"interface, active", pick("shared active", active, shared), true, false},
		{"interface, far-coarse", pick("shared far", far, shared), false, true},
		{"one past the numbering", end, false, false},
		{"beyond the numbering", end + 7, false, false},
	} {
		// Two sources on the one dof, as a double couple would put them.
		s.SetSources([]sem.Source{{Dof: int(tc.node), W: sem.Ricker{F0: 1}}, {Dof: int(tc.node), W: sem.Ricker{F0: 2}}})
		for i, a := range s.srcAct {
			if tc.active != (a >= 0) || (a >= 0 && active[a] != tc.node) {
				t.Errorf("%s: source %d resolved to active dof %d", tc.name, i, a)
			}
		}
		switch {
		case !tc.far && len(s.farSrc) != 0:
			t.Errorf("%s: attached to far-coarse position %v (node %d), the source is on node %d",
				tc.name, s.farSrc, far[s.farSrc[0]], tc.node)
		case tc.far && (len(s.farSrc) != 1 || far[s.farSrc[0]] != tc.node):
			t.Errorf("%s: far-coarse positions %v, want the one of node %d", tc.name, s.farSrc, tc.node)
		}
	}
}
