// Package lts implements the paper's core contribution: the recursive,
// multi-level local time-stepping Newmark scheme (LTS-Newmark, §II,
// Algorithm 1) for semi-discrete wave equations M ü = -K u + F with
// diagonal mass matrix.
//
// Elements are grouped into levels k = 1..N with substep multipliers
// p_k = 2^(k-1) (Eq. 16); level-k degrees of freedom advance with step
// Δt/p_k, and all levels synchronise every coarse step Δt (one "LTS
// cycle"). The recursion freezes each coarser level's stiffness
// contribution A·P_k·u while the finer levels substep (Eqs. 10-14), then
// reconstructs the staggered velocity from the time-symmetric auxiliary
// solution (the factor-2 update of Eq. 14).
//
// Two engines share one code path: the optimised engine (Optimized=true)
// restricts substepping to the active node sets (fine regions plus the
// coarse halo of Fig. 2) and updates far coarse nodes with the exact
// closed-form quadratic, which is what makes LTS actually save work
// (§II-C); the reference engine (Optimized=false) makes every node active
// at every level, which is Algorithm 1 as written. Both produce the same
// trajectories to roundoff; the test suite checks this, plus exact
// equivalence with global Newmark when only one level exists.
//
// Layout. Only the nodes whose force can change inside a cycle (stepLvl
// >= 1, a tenth of a typical graded mesh) take part in the recursion.
// They are renumbered into an active region ordered by stepLvl, so level
// li's update set is the contiguous suffix [actOff[li], nAct). The
// auxiliary field ũ of Eqs. 11/17, M⁻¹ per dof and all per-level scratch
// exist over that region only and the substep updates are dense loops
// over plain slices. The kernels of the levels li >= 1 run in the same
// numbering: each level's batch plan is remapped (sem.BatchPlan.Remap) to
// gather the nodes of P_li straight from ũ, every other node from one
// always-zero slot behind the region — A·P_li·ũ with no masked copy of
// the field — and to accumulate into an active-region buffer.
//
// The coarsest level is fused. U keeps u_n for the whole cycle, so
// A·P_0·u_n is the kernel applied to U itself, with the few finer-level
// nodes its force elements read zeroed for the call. The far-coarse nodes
// (stepLvl 0, the bulk of the mesh) see the constant force f =
// M⁻¹·K·P_0·u_n, so one pass per cycle computes f from the kernel's
// accumulation buffer, the closed form ũ(Δt) = u_n − ½Δt²·f, the velocity
// reconstruction, the sponge and u_{n+1}, in runs of consecutive nodes.
//
// This is bitwise-neutral: no update couples two dofs, so the visiting
// order is free, and every dof still sees the same floating-point
// operations on the same operands in the same order as in the full-vector
// formulation that oracle_test.go keeps and compares against.
//
// Node domain. The same licence lets a scheme advance a subset of the
// nodes: the stiffness kernel is the only place one node's value reaches
// another, so when the operator holds one share of a decomposed run and
// says which nodes that share reads and assembles (sem.Footprint — the
// distributed engine's ranks), the active region, the far-coarse list and
// all scratch are built over that footprint and the scheme never reads or
// writes U and V anywhere else; there they keep whatever SetInitial or
// Restore put there. The element lists handed to the operator stay the
// mesh's, so every holder of a share issues the same applies. An operator
// without a footprint gives the domain of every node; there is one code
// path.
//
// Team. The same licence lets several workers share one cycle. When the
// operator runs collective applies (package parallel; the team
// interface), Step is a single Run: every worker walks the identical
// level recursion, does its own contiguous share of every pointwise loop
// — level li's loops split [actOff[li], nAct) evenly, the far-coarse pass
// splits sets.far — and joins each stiffness apply. A worker reads only
// what its own share wrote, except across a barrier: before a kernel
// whose input other shares wrote (U after the hold zeroing, ũ after a
// substep), the two inside the apply, and after a finer level returns. A
// source is injected by the worker whose share holds its dof, after that
// worker's own M⁻¹ write. Work and Telemetry are worker 0's; the cycle's
// scalars are set before the Run. Any other operator is stepped by a
// team of one, so there is one cycle code path, and as per-dof arithmetic
// and the merge's per-node addition order do not depend on the team,
// neither do the bits.
package lts

import (
	"fmt"
	"slices"
	"time"

	"golts/internal/mesh"
	"golts/internal/sem"
)

// Work accumulates operation counts for efficiency accounting.
type Work struct {
	// ElemApplies is the total number of element stiffness applications.
	ElemApplies int64
	// PerLevel[li] is the element-application count of level li.
	PerLevel []int64
	// LevelNanos[li] is the cumulative wall time of level li's stiffness
	// kernel calls. Populated only when the scheme's Telemetry flag is
	// set (two monotonic clock reads per apply); zero otherwise.
	LevelNanos []int64
	// Cycles is the number of completed LTS cycles (coarse steps).
	Cycles int64
}

// team is what a scheme needs of an operator to share its cycle among
// workers (package parallel's engine): Run executes f(w) for every
// w < Workers() concurrently, Barrier is their rendezvous and AddKuShare
// is worker w's part of a collective apply.
type team interface {
	Workers() int
	Run(f func(w int))
	Barrier()
	AddKuShare(w int, dst, u []float64, plan sem.BatchPlan)
}

// solo is the team of one that steps every other operator.
type solo struct {
	op sem.BatchKernel
	bs sem.BatchScratch
}

func (*solo) Workers() int      { return 1 }
func (*solo) Run(f func(w int)) { f(0) }
func (*solo) Barrier()          {}
func (t *solo) AddKuShare(_ int, dst, u []float64, plan sem.BatchPlan) {
	t.op.AddKuBatch(dst, u, plan, &t.bs)
}

// Scheme is an LTS-Newmark time stepper.
type Scheme struct {
	// Op is the operator being stepped. Every substep's A·P_k·u runs as
	// one fused batch over the level's precomputed BatchPlan.
	Op sem.BatchKernel
	// Dt is the coarse (level 1) step: the LTS cycle length.
	Dt float64
	// Optimized selects the active-set engine.
	Optimized bool
	// Sources are point forces; each is injected at its node's level, at
	// that level's local substep times.
	Sources []sem.Source
	// Sigma is an optional per-node sponge damping profile applied to the
	// velocity once per coarse step.
	Sigma []float64
	// Telemetry enables per-level kernel wall-time accounting in
	// Work.LevelNanos. Off by default: the hot path then carries one
	// predictable branch and no clock reads.
	Telemetry bool

	// U is the displacement at t_n; V the velocity at t_{n-1/2}.
	U, V []float64
	// Work holds operation counters.
	Work Work

	sets   *sets
	nlv    int
	t      float64
	cycleT float64 // anchor t_n of the cycle in progress (source symmetrization)
	n      int64
	start  bool
	kick   float64 // velocity factor of the cycle in progress (see Step)

	// The workers a cycle runs on, and the per-worker cycle bound once by
	// New so that Step allocates nothing.
	team    team
	cycleFn func(w int)

	// Scratch over the active region (sets.actNode numbering, nAct·Comps
	// values each), held only by the 0-based levels that use it:
	ut      []float64   // auxiliary field ũ of the cycle in progress, plus one node slot that stays zero
	fbuf    [][]float64 // frozen force accumulated through level li (li < nlv-1; [0] always)
	zbuf    [][]float64 // A P_li ũ (li >= 1)
	vbuf    [][]float64 // auxiliary staggered velocity of level li (li >= 1)
	usnap   [][]float64 // ũ snapshot for the factor-2 update (1 <= li < nlv-1)
	kact    []float64   // stiffness accumulation of the levels >= 1 (all-zero between uses)
	minvAct []float64   // M⁻¹ per active dof
	// Operator-numbered scratch of level 0:
	kbuf []float64 // stiffness accumulation (all-zero between uses)
	hold []float64 // U on sets.hold while the level-0 kernel reads U in place
	// One plan per level (the per-level element sets are stable for the
	// scheme's lifetime), built by New in level order.
	bplans []sem.BatchPlan
	// Diagnostic scratch, built lazily by Energy:
	energy *sem.Restriction // all-elements restriction
	ebuf   []float64        // Energy work buffer (all-zero between uses)
	escr   sem.Scratch      // Energy kernel scratch

	srcAct []int // active-region dof of each source, -1 on a far-coarse node and outside the domain
	farSrc []int // ascending, distinct positions in sets.far of the nodes carrying a source
	farCut []int // ascending positions p > 0 in sets.far where a run of consecutive nodes starts (see SetSources)
}

// New builds an LTS scheme. elemLevel holds 1-based p-levels per element
// (level k steps with Δt/2^(k-1)); dt is the coarse step.
func New(op sem.BatchKernel, elemLevel []uint8, numLevels int, dt float64, optimized bool) (*Scheme, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("lts: dt must be positive, got %g", dt)
	}
	st, err := buildSets(op, elemLevel, numLevels, optimized)
	if err != nil {
		return nil, err
	}
	nd, nc := op.NDof(), op.Comps()
	s := &Scheme{
		Op: op, Dt: dt, Optimized: optimized,
		U: make([]float64, nd), V: make([]float64, nd),
		sets: st, nlv: numLevels,
		kbuf: make([]float64, nd), hold: make([]float64, len(st.hold)*nc),
	}
	if t, ok := op.(team); ok {
		s.team = t
	} else {
		s.team = &solo{op: op}
	}
	s.cycleFn = s.cycle
	s.buildPlans()
	s.Work.PerLevel = make([]int64, numLevels)
	s.Work.LevelNanos = make([]int64, numLevels)
	na := len(st.actNode) * nc
	s.fbuf = make([][]float64, numLevels)
	s.zbuf = make([][]float64, numLevels)
	s.vbuf = make([][]float64, numLevels)
	s.usnap = make([][]float64, numLevels)
	s.fbuf[0] = make([]float64, na)
	s.minvAct = make([]float64, na)
	minv := op.MInv()
	for d := range s.minvAct {
		s.minvAct[d] = minv[st.actNode[d/nc]]
	}
	s.SetSources(nil)
	if numLevels > 1 {
		s.ut = make([]float64, na+nc)
		s.kact = make([]float64, na)
	}
	for li := 1; li < numLevels; li++ {
		s.zbuf[li] = make([]float64, na)
		s.vbuf[li] = make([]float64, na)
		if li < numLevels-1 {
			s.fbuf[li] = make([]float64, na)
			s.usnap[li] = make([]float64, na)
		}
	}
	return s, nil
}

// FromMeshLevels builds a scheme directly from a mesh level assignment,
// using its coarse step.
func FromMeshLevels(op sem.BatchKernel, lv *mesh.Levels, optimized bool) (*Scheme, error) {
	return New(op, lv.Lvl, lv.NumLevels, lv.CoarseDt, optimized)
}

// SetInitial sets u(0) and v(0), both at t = 0. Must precede stepping.
func (s *Scheme) SetInitial(u0, v0 []float64) error {
	if s.start {
		return fmt.Errorf("lts: SetInitial after stepping started")
	}
	if len(u0) != len(s.U) || len(v0) != len(s.V) {
		return fmt.Errorf("lts: initial condition length mismatch")
	}
	copy(s.U, u0)
	copy(s.V, v0)
	return nil
}

// SetSources installs point sources (must be called before stepping so
// their active-region positions can be resolved). A source on a node
// outside the scheme's domain is kept in Sources and never applied: the
// holders of that node apply it. It rebuilds farCut: a run of sets.far
// starts after a gap in the node ids, at a source node and after one.
func (s *Scheme) SetSources(src []sem.Source) {
	s.Sources = src
	s.srcAct = make([]int, len(src))
	s.farSrc = nil
	nc := s.Op.Comps()
	for i, sc := range src {
		n := int32(sc.Dof / nc)
		if a := slices.Index(s.sets.actNode, n); a >= 0 {
			s.srcAct[i] = a*nc + sc.Dof%nc
			continue
		}
		s.srcAct[i] = -1
		if p, ok := slices.BinarySearch(s.sets.far, n); ok {
			s.farSrc = append(s.farSrc, p)
		}
	}
	slices.Sort(s.farSrc)
	s.farSrc = slices.Compact(s.farSrc)
	far, fs := s.sets.far, s.farSrc
	s.farCut = s.farCut[:0]
	for p := 1; p < len(far); p++ {
		for len(fs) > 0 && fs[0] < p-1 {
			fs = fs[1:]
		}
		if far[p] != far[p-1]+1 || len(fs) > 0 && fs[0] <= p {
			s.farCut = append(s.farCut, p)
		}
	}
}

// Domain returns the nodes the scheme advances, as it walks them: the
// active region in active-index order and the far-coarse nodes ascending —
// together the operator's footprint when it declares one (sem.Footprint),
// every node otherwise. The slices are the scheme's own.
func (s *Scheme) Domain() (active, far []int32) { return s.sets.actNode, s.sets.far }

// AccumulatorsZero reports whether the stiffness accumulation buffers are
// all-zero, as they must be between cycles: the stepper re-zeroes them on
// its domain only, so with a footprint operator this holds exactly when
// the operator accumulated nowhere else.
func (s *Scheme) AccumulatorsZero() bool {
	nonzero := func(v float64) bool { return v != 0 }
	return !slices.ContainsFunc(s.kbuf, nonzero) && !slices.ContainsFunc(s.kact, nonzero)
}

// Time returns the simulation time t_n.
func (s *Scheme) Time() float64 { return s.t }

// CycleCount returns the number of completed coarse steps.
func (s *Scheme) CycleCount() int64 { return s.n }

// NumLevels returns the number of LTS levels.
func (s *Scheme) NumLevels() int { return s.nlv }

// dtAt returns the substep of 0-based level li: Δt / 2^li.
func (s *Scheme) dtAt(li int) float64 { return s.Dt / float64(int64(1)<<uint(li)) }

// share returns worker w's contiguous part [a, b) of the range [lo, hi).
func (s *Scheme) share(w, lo, hi int) (a, b int) {
	k := s.team.Workers()
	return lo + (hi-lo)*w/k, lo + (hi-lo)*(w+1)/k
}

// kernel is worker w's part of the collective accumulation of K·in over
// level li's force elements into dst.
func (s *Scheme) kernel(w, li int, dst, in []float64) {
	var kstart time.Time
	if s.Telemetry && w == 0 {
		kstart = time.Now()
	}
	s.team.AddKuShare(w, dst, in, s.bplans[li])
	if w > 0 {
		return // the counters are worker 0's
	}
	if s.Telemetry {
		s.Work.LevelNanos[li] += time.Since(kstart).Nanoseconds()
	}
	s.Work.ElemApplies += int64(len(s.sets.forceElems[li]))
	s.Work.PerLevel[li] += int64(len(s.sets.forceElems[li]))
}

// buildPlans builds the per-level batch plans. A level li >= 1 runs in the
// active numbering: its plan gathers a node of P_li from its slot of ũ, any
// other node from the zero slot behind the region, and scatters into kact.
// Nodes outside the domain have no slot in either space (Out = -1, In = the
// zero slot): a footprint operator's own elements touch none of them.
func (s *Scheme) buildPlans() {
	st, nAct := s.sets, len(s.sets.actNode)
	s.bplans = make([]sem.BatchPlan, s.nlv)
	s.bplans[0] = s.Op.NewBatchPlan(st.forceElems[0])
	if s.nlv == 1 {
		return
	}
	nn := s.Op.NumNodes()
	m := sem.NodeMap{In: make([]int32, nn), Out: make([]int32, nn), NIn: nAct + 1, NOut: nAct}
	for n := range m.Out {
		m.In[n], m.Out[n] = int32(nAct), -1
	}
	for a, n := range st.actNode {
		m.Out[n] = int32(a)
	}
	for li := 1; li < s.nlv; li++ {
		for _, n := range st.levelNodes[li] {
			if a := m.Out[n]; a >= 0 {
				m.In[n] = a
			}
		}
		s.bplans[li] = s.Op.NewBatchPlan(st.forceElems[li]).Remap(m)
		for _, n := range st.levelNodes[li] {
			m.In[n] = int32(nAct)
		}
	}
}

// gather moves M⁻¹·k into dst (active numbering) on worker w's share of
// level li's update set, re-zeroing k there, and injects the level's
// sources on that share at local time t. Level 0's kbuf speaks node ids:
// the gather walks its force nodes, dst stays zero elsewhere. A finer
// level's kact is +0 off its force nodes, so a dense pass writes
// M⁻¹·(+0) = +0 there, what dst already holds.
func (s *Scheme) gather(w, li int, t float64, dst, k []float64) {
	nc := s.Op.Comps()
	minv := s.Op.MInv()
	a0, a1 := s.share(w, s.sets.actOff[li], len(s.sets.actNode))
	if li == 0 {
		act := s.sets.forceAct0
		j0, _ := slices.BinarySearch(act, int32(a0))
		j1, _ := slices.BinarySearch(act, int32(a1))
		for j := j0; j < j1; j++ {
			a, d := int(act[j])*nc, int(s.sets.forceNodes0[j])*nc
			for c := 0; c < nc; c++ {
				dst[a+c] = s.minvAct[a+c] * k[d+c]
				k[d+c] = 0
			}
		}
	} else {
		z, kk := dst[a0*nc:a1*nc], k[a0*nc:a1*nc]
		for d, mi := range s.minvAct[a0*nc : a1*nc] {
			z[d] = mi * kk[d]
			kk[d] = 0
		}
	}
	for i, sc := range s.Sources {
		if a := s.srcAct[i]; a >= a0*nc && a < a1*nc && int(s.sets.nodeLevel[sc.Dof/nc]) == li {
			dst[a] -= s.srcAmp(sc, t) * minv[sc.Dof/nc]
		}
	}
}

// srcAmp is the amplitude a source contributes at local time t. Sources
// enter with a minus sign: the schemes step with v -= δ (F_frozen + A P u
// - M⁻¹F_src). The auxiliary solves of the LTS recursion compute the
// time-symmetric (even) part of the evolution about the cycle anchor t_n,
// so the source must enter as its even extension ½(f(t_n+ξ) + f(t_n-ξ))
// (Diaz & Grote's source treatment); this preserves second-order
// accuracy. At the top level ξ = 0 and the expression reduces to f(t_n).
func (s *Scheme) srcAmp(sc sem.Source, t float64) float64 {
	xi := t - s.cycleT
	return 0.5 * (sc.W.Amp(s.cycleT+xi) + sc.W.Amp(s.cycleT-xi))
}

// advance is worker w's part of the two level-li substeps that make up
// one step of level li-1, operating on the auxiliary field ũ of Eqs.
// 11/17 in place. tStart is the local time at entry. On return, active
// nodes with stepLvl >= li-1 carry the field advanced by Δt_{li-1}, each
// worker's share written by that worker.
func (s *Scheme) advance(w, li int, tStart float64) {
	dt := s.dtAt(li)
	last := li == s.nlv-1
	nc := s.Op.Comps()
	// Level li's update set is the suffix of the active region from
	// actOff[li] on; this worker updates its share of it.
	a0, a1 := s.share(w, s.sets.actOff[li], len(s.sets.actNode))
	u := s.ut[a0*nc : a1*nc]
	v := s.vbuf[li][a0*nc:][:len(u)]
	f := s.fbuf[li-1][a0*nc:][:len(u)]
	z := s.zbuf[li][a0*nc:][:len(u)]
	for m := 0; m < 2; m++ {
		tm := tStart + float64(m)*dt
		if m == 1 {
			s.team.Barrier() // the first substep updated ũ share by share
		}
		// z = A·P_li·ũ - M⁻¹F_li(tm): the level's plan reads ũ itself, the
		// nodes outside P_li through the zero slot.
		s.kernel(w, li, s.kact, s.ut)
		s.gather(w, li, tm, s.zbuf[li], s.kact)
		if last {
			// Finest level: plain leap-frog substeps against the frozen
			// coarser forces (innermost loop of Algorithm 1). The
			// auxiliary velocity restarts from v(0) = 0, so the first
			// substep is the half-step Taylor start.
			if m == 0 {
				for d := range u {
					v[d] = -dt / 2 * (f[d] + z[d])
					u[d] += dt * v[d]
				}
			} else {
				for d := range u {
					v[d] -= dt * (f[d] + z[d])
					u[d] += dt * v[d]
				}
			}
		} else {
			// Intermediate level: freeze this level's contribution, let
			// the finer levels advance one Δt_li, then reconstruct the
			// staggered velocity from the time-symmetric solution
			// (Eq. 14 / the ṽ update of Algorithm 1).
			us := s.usnap[li][a0*nc:][:len(u)]
			fl := s.fbuf[li][a0*nc:][:len(u)]
			for d := range u {
				fl[d] = f[d] + z[d]
				us[d] = u[d]
			}
			s.advance(w, li+1, tm)
			s.team.Barrier() // the finer levels' shares are not this level's
			if m == 0 {
				for d := range u {
					v[d] = (u[d] - us[d]) / dt
					u[d] = us[d] + dt*v[d]
				}
			} else {
				for d := range u {
					v[d] += 2 * (u[d] - us[d]) / dt
					u[d] = us[d] + dt*v[d]
				}
			}
		}
	}
	// Active nodes that only the parent level updates (stepLvl == li-1)
	// saw a constant force f during both substeps; their evolution from
	// v(0)=0 is exactly quadratic: u -= (2 dt)²/2 · f. This closed form is
	// what the optimised engine saves; with reference sets the range is
	// empty. (For li == 1 these are the far-coarse nodes: coarsePass.)
	dur := 2 * dt
	half := dur * dur / 2
	c0, c1 := s.share(w, s.sets.actOff[li-1], s.sets.actOff[li])
	for d := c0 * nc; d < c1*nc; d++ {
		s.ut[d] -= half * s.fbuf[li-1][d]
	}
}

// Step advances one LTS cycle (one coarse Δt): one Run of cycle on the
// scheme's team.
func (s *Scheme) Step() {
	s.cycleT = s.t
	// The closing velocity factor: V += 2(ũ(Δt) - u_n)/Δt, or with a
	// single level v -= Δt·z; half of it on the first cycle (v(0) is
	// unstaggered: u_1 = ũ(Δt) + Δt v(0), resp. the half-step start).
	s.kick = 2
	if s.nlv == 1 {
		s.kick = s.Dt
	}
	if !s.start {
		s.kick /= 2
	}
	s.start = true
	s.team.Run(s.cycleFn)
	s.t += s.Dt
	s.n++
	s.Work.Cycles++
}

// cycle is worker w's part of one LTS cycle. Its share [a0, a1) of the
// active region is level 0's and level 1's share (both update sets start
// at active index 0), so the ũ copy, the level-0 gather, the level-1
// substeps and the closing loop all stay on it.
func (s *Scheme) cycle(w int) {
	st, nc := s.sets, s.Op.Comps()
	a0, a1 := s.share(w, 0, len(st.actNode))
	h0, _ := slices.BinarySearch(st.hold, int32(a0))
	h1, _ := slices.BinarySearch(st.hold, int32(a1))
	// ũ starts from u_n; U keeps u_n until the closing passes, except that
	// the level-0 kernel reads it with sets.hold zeroed (P_0·u_n).
	if s.nlv > 1 {
		for a := a0; a < a1; a++ {
			n := int(st.actNode[a])
			for c := 0; c < nc; c++ {
				s.ut[a*nc+c] = s.U[n*nc+c]
			}
		}
	}
	for j := h0; j < h1; j++ {
		d := int(st.actNode[st.hold[j]]) * nc
		for c := 0; c < nc; c++ {
			s.hold[j*nc+c] = s.U[d+c]
			s.U[d+c] = 0
		}
	}
	if len(st.hold) > 0 {
		s.team.Barrier() // the kernel reads U where other shares zeroed it
	}
	// fbuf[0] = A P_0 u_n - M⁻¹F_0(t_n) on the active region, frozen for
	// the whole cycle; K·P_0·u_n stays in kbuf on the far-coarse nodes.
	s.kernel(w, 0, s.kbuf, s.U)
	for j := h0; j < h1; j++ {
		d := int(st.actNode[st.hold[j]]) * nc
		for c := 0; c < nc; c++ {
			s.U[d+c] = s.hold[j*nc+c]
		}
	}
	s.gather(w, 0, s.t, s.fbuf[0], s.kbuf)
	kick := s.kick
	if s.nlv == 1 {
		// Degenerate single-level case: global leap-frog, identical
		// arithmetic to package newmark (every node of the domain is active,
		// in operator order): v -= Δt·z (half of it on the first step),
		// sponge, u += Δt·v.
		z := s.fbuf[0]
		for a := a0; a < a1; a++ {
			n := int(st.actNode[a])
			fac := s.dampFac(n)
			for c := 0; c < nc; c++ {
				d := n*nc + c
				v := (s.V[d] - kick*z[a*nc+c]) * fac
				s.V[d] = v
				s.U[d] += s.Dt * v
			}
		}
		return
	}
	s.advance(w, 1, s.t)
	s.coarsePass(w)
	// V += kick(ũ(Δt) - u_n)/Δt, sponge, u_{n+1} = u_n + Δt V.
	dtInv := 1 / s.Dt
	for a := a0; a < a1; a++ {
		n := int(st.actNode[a])
		fac := s.dampFac(n)
		for c := 0; c < nc; c++ {
			d := n*nc + c
			u0 := s.U[d]
			v := s.V[d] + kick*(s.ut[a*nc+c]-u0)*dtInv
			v *= fac
			s.V[d] = v
			s.U[d] = u0 + s.Dt*v
		}
	}
}

// coarsePass is the whole cycle of worker w's share of the far-coarse
// nodes, walked in the runs of farCut clipped to the share (it can start
// mid-run): f = M⁻¹·kbuf - M⁻¹F_0(t_n) (kbuf re-zeroed), ũ(Δt) = u_n -
// (2Δt_1)²/2·f, then the closing update of cycle.
func (s *Scheme) coarsePass(w int) {
	far := s.sets.far
	j0, j1 := s.share(w, 0, len(far))
	k, _ := slices.BinarySearch(s.farCut, j0+1)
	cuts := s.farCut[k:]
	k, _ = slices.BinarySearch(s.farSrc, j0)
	src := s.farSrc[k:] // positions of the nodes carrying (level-0) sources
	for j, e := j0, 0; j < j1; j = e {
		e = j1
		if len(cuts) > 0 && cuts[0] < j1 {
			e, cuts = cuts[0], cuts[1:]
		}
		if len(src) > 0 && src[0] == j { // a run of its own
			s.farSourceNode(int(far[j]))
			src = src[1:]
		} else {
			s.farRun(int(far[j]), int(far[j])+e-j)
		}
	}
}

// farRun is coarsePass over the consecutive far-coarse nodes [n0, n1), none
// a source node: with a source check inside, its loop ran ≈ 1.5× slower.
func (s *Scheme) farRun(n0, n1 int) {
	nc, dt, dur := s.Op.Comps(), s.Dt, 2*s.dtAt(1)
	half, dtInv, kick := dur*dur/2, 1/dt, s.kick
	minv := s.Op.MInv()[n0:n1]
	kb := s.kbuf[n0*nc : n1*nc]
	u, v, sg := s.U[n0*nc:n1*nc], s.V[n0*nc:n1*nc], s.Sigma
	for i, mi := range minv {
		fac := 1.0 // dampFac(n0+i), with the sponge profile loaded once
		if sg != nil && sg[n0+i] != 0 {
			fac = 1 / (1 + sg[n0+i]*dt)
		}
		for d := i * nc; d < i*nc+nc; d++ {
			f := mi * kb[d]
			kb[d] = 0
			u0 := u[d]
			vd := (v[d] + kick*(u0-half*f-u0)*dtInv) * fac
			v[d] = vd
			u[d] = u0 + dt*vd
		}
	}
}

// farSourceNode is coarsePass at far-coarse node n, which carries sources;
// they are added in Sources order.
func (s *Scheme) farSourceNode(n int) {
	nc, mi, fac, dur := s.Op.Comps(), s.Op.MInv()[n], s.dampFac(n), 2*s.dtAt(1)
	half, dtInv := dur*dur/2, 1/s.Dt
	for d := n * nc; d < n*nc+nc; d++ {
		f := mi * s.kbuf[d]
		s.kbuf[d] = 0
		for _, sc := range s.Sources {
			if sc.Dof == d {
				f -= s.srcAmp(sc, s.t) * mi
			}
		}
		u0 := s.U[d]
		v := (s.V[d] + s.kick*(u0-half*f-u0)*dtInv) * fac
		s.V[d] = v
		s.U[d] = u0 + s.Dt*v
	}
}

// dampFac is the sponge factor applied to node n's velocity once per
// coarse step (1 outside the sponge).
func (s *Scheme) dampFac(n int) float64 {
	if s.Sigma == nil || s.Sigma[n] == 0 {
		return 1
	}
	return 1 / (1 + s.Sigma[n]*s.Dt)
}

// Run advances n cycles.
func (s *Scheme) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Energy returns the instantaneous discrete energy ½vᵀMv + ½uᵀKu. The
// all-elements restriction and its work buffer are cached on first use,
// so repeated calls allocate nothing (the kbuf all-zero invariant of the
// stepping path is untouched).
func (s *Scheme) Energy() float64 {
	if s.energy == nil {
		s.energy = sem.NewRestriction(s.Op, sem.AllElements(s.Op))
		s.ebuf = make([]float64, s.Op.NDof())
	}
	return s.energy.Energy(s.Op, s.U, s.V, s.ebuf, &s.escr)
}
