package sem

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"golts/internal/mesh"
	"golts/internal/race"
)

// batchMesh returns a heterogeneous 36-element mesh: big enough for
// several full 8-lane blocks plus a ragged tail, with per-element
// material variation so any lane/constant mix-up shows up.
func batchMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.New("batch",
		[]float64{0, 0.7, 1.5, 2.0, 2.4},
		[]float64{0, 1.1, 2.0, 2.8},
		[]float64{0, 0.9, 2.1, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	for e := range m.C {
		m.C[e] = 1 + 0.3*float64(e%5)
		m.Rho[e] = 1 + 0.1*float64(e%3)
	}
	return m
}

// batchOps builds the two 3-D operators on the batch mesh, plus the
// test-only Anisotropic3D (a dense VTI stress through the same batch
// layer).
func batchOps(t testing.TB, m *mesh.Mesh, deg int, periodic bool) []struct {
	name string
	op   BatchKernel
} {
	t.Helper()
	ac, err := NewAcoustic3D(m, deg, periodic)
	if err != nil {
		t.Fatal(err)
	}
	el, err := NewElastic3D(m, deg, periodic, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]VoigtC, m.NumElements())
	for e := range cs {
		f := 1 + 0.2*float64(e%4)
		cs[e] = VTIC(4*f, 3.6*f, 1.1*f, 1.3*f, 1.4*f)
	}
	an, err := NewAnisotropic3D(m, deg, periodic, cs)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		op   BatchKernel
	}{{"acoustic", ac}, {"elastic", el}, {"anisotropic", an}}
}

// batchLists returns element lists exercising the block structure: full
// sweeps, single blocks, permuted non-contiguous subsets with shared
// faces, the empty list, and every length 1..17 of a scattered list — all
// tail sizes 1..7 after zero, one and two full blocks, with the padded
// lanes repeating an element whose material differs from its neighbours'.
func batchLists(ne int) map[string][]int32 {
	all := make([]int32, ne)
	for i := range all {
		all[i] = int32(i)
	}
	perm := []int32{int32(ne - 1), 2, 17, 8, 1, 30, 12, 9, 21, 3, 26, 14, 5, 33, 19, 7, 23}
	for i, e := range perm {
		perm[i] = e % int32(ne)
	}
	lists := map[string][]int32{
		"all":   all,
		"block": all[:batchB],
		"empty": {},
	}
	for n := 1; n <= len(perm); n++ {
		lists[fmt.Sprintf("len%d", n)] = perm[:n]
	}
	return lists
}

// checkBatchApply runs one AddKuBatch on a NaN-poisoned workspace and
// holds it against the per-element oracle: bitwise equality on every dof
// (with a guard that the oracle moved dst at all, so the comparison is
// not vacuous), no write outside the plan's nodes, and no NaN left in
// the workspace — every lane of a padded tail block is gathered from a
// real element and computed, and none of it is scattered. bs must be
// fresh or sized by this operator, so that its arena is exactly the
// kernel's request.
func checkBatchApply(t *testing.T, op BatchKernel, elems []int32, u, base []float64, bs *BatchScratch) {
	t.Helper()
	plan := op.NewBatchPlan(elems)
	if !slices.Equal(plan.Elems(), elems) {
		t.Fatalf("plan.Elems() = %v, want the unpadded list %v", plan.Elems(), elems)
	}
	var sc Scratch
	want := slices.Clone(base)
	op.AddKuScratch(want, u, elems, &sc)
	if len(elems) > 0 && slices.Equal(want, base) {
		t.Fatal("oracle left dst unchanged; the comparison would be vacuous")
	}
	got := slices.Clone(base)
	op.AddKuBatch(got, u, plan, bs) // sizes a fresh arena
	for i := range bs.buf {
		bs.buf[i] = math.NaN()
	}
	copy(got, base)
	op.AddKuBatch(got, u, plan, bs)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("dof %d: batched %v != per-element %v", i, got[i], want[i])
		}
	}
	inPlan := make([]bool, op.NumNodes())
	for _, n := range NodesOf(op, elems) {
		inPlan[n] = true
	}
	nc := op.Comps()
	for d := range got {
		if !inPlan[d/nc] && got[d] != base[d] {
			t.Fatalf("dof %d is outside the plan's nodes but was written", d)
		}
	}
	if len(elems) > 0 {
		for i, v := range bs.buf {
			if math.IsNaN(v) {
				t.Fatalf("workspace[%d] still poisoned: a lane was not overwritten", i)
			}
		}
	}
	checkRemappedApply(t, op, plan, u, base, bs)
}

// remapFields translates a full-length problem into the index spaces of a
// BenchNodeMap widened by pad output slots: uc is u laid out compactly —
// every node's value sits in its own slot, so a gather that ignored the
// mask would read it — with the zero slot zero, um the full-length input
// the remapped gather is equivalent to (u on the unmasked nodes, zero on
// the masked ones), and
// dc is base laid out through m.Out (slots no node maps to hold 0.5). back
// scatters a compact result onto a full-length clone of base.
func remapFields(op Operator, m NodeMap, u, base []float64) (uc, um, dc []float64, back func(dc []float64) []float64) {
	nc := op.Comps()
	uc = make([]float64, m.NIn*nc)
	um = make([]float64, len(u))
	dc = make([]float64, m.NOut*nc)
	for i := range dc {
		dc[i] = 0.5
	}
	for n, o := range m.Out {
		if o < 0 {
			continue
		}
		for c := 0; c < nc; c++ {
			dc[int(o)*nc+c] = base[n*nc+c]
			uc[int(o)*nc+c] = u[n*nc+c]
			if m.In[n] == o {
				um[n*nc+c] = u[n*nc+c]
			}
		}
	}
	back = func(dc []float64) []float64 {
		full := slices.Clone(base)
		for n, o := range m.Out {
			if o >= 0 {
				copy(full[n*nc:(n+1)*nc], dc[int(o)*nc:])
			}
		}
		return full
	}
	return uc, um, dc, back
}

// checkRemappedApply holds plan.Remap of a random node map — a permuted
// compact Out with three spare slots behind it, an In that masks a third
// of the nodes — against the per-element oracle run on the equivalent
// full-length masked input: bitwise on every output slot (the spare ones
// must keep their values), with the nonzero guard, a poisoned workspace,
// and wrong-length arguments rejected with the plan's own lengths.
func checkRemappedApply(t *testing.T, op BatchKernel, plan BatchPlan, u, base []float64, bs *BatchScratch) {
	t.Helper()
	elems := plan.Elems()
	const pad = 3
	m := BenchNodeMap(op, elems, uint64(len(elems))+7)
	m.NOut += pad
	rplan := plan.Remap(m)
	if !slices.Equal(rplan.Elems(), elems) {
		t.Fatalf("remapped plan lists %v, want %v", rplan.Elems(), elems)
	}
	uc, um, dc, back := remapFields(op, m, u, base)
	var sc Scratch
	want := back(dc)
	op.AddKuScratch(want, um, elems, &sc)
	if len(elems) > 0 && slices.Equal(want, back(dc)) {
		t.Fatal("remapped: oracle left dst unchanged; the comparison would be vacuous")
	}
	for i := range bs.buf {
		bs.buf[i] = math.NaN()
	}
	got := slices.Clone(dc)
	op.AddKuBatch(got, uc, rplan, bs)
	if gf := back(got); !slices.Equal(gf, want) {
		for i := range want {
			if want[i] != gf[i] {
				t.Fatalf("remapped: dof %d: batched %v != per-element on the masked input %v", i, gf[i], want[i])
			}
		}
	}
	nc := op.Comps()
	if tail := len(got) - pad*nc; !slices.Equal(got[tail:], dc[tail:]) {
		t.Fatalf("remapped: wrote outside Out[plan nodes]: spare slots %v, were %v", got[tail:], dc[tail:])
	}
	for name, call := range map[string]func(){
		fmt.Sprintf("sem: dst has length %d, want %d", len(got)+1, len(got)): func() { op.AddKuBatch(append(got, 0), uc, rplan, bs) },
		fmt.Sprintf("sem: u has length %d, want %d", len(uc)+1, len(uc)):     func() { op.AddKuBatch(got, append(uc, 0), rplan, bs) },
	} {
		func() {
			defer func() {
				if r := recover(); r != name {
					t.Fatalf("remapped: wrong-length call panicked with %v, want %q", r, name)
				}
			}()
			call()
		}()
	}
}

// TestAddKuBatchBitwise pins the batched kernels bitwise against the
// per-element oracle under every usable SIMD tier, across degrees,
// boundary types, and ragged element lists, with nonzero initial dst
// (AddKu accumulates).
func TestAddKuBatchBitwise(t *testing.T) {
	m := batchMesh(t)
	for _, tier := range tierCases() {
		t.Run(tier.name, func(t *testing.T) {
			forceTier(t, tier.tier)
			for _, deg := range []int{2, 3, 4, 5} {
				for _, periodic := range []bool{false, true} {
					for _, tc := range batchOps(t, m, deg, periodic) {
						nd := tc.op.NDof()
						u := make([]float64, nd)
						pseudoField(u)
						base := make([]float64, nd)
						randFill(base, 42)
						var bs BatchScratch
						for name, elems := range batchLists(m.NumElements()) {
							t.Run(fmt.Sprintf("%s/deg=%d/periodic=%v/%s", tc.name, deg, periodic, name), func(t *testing.T) {
								checkBatchApply(t, tc.op, elems, u, base, &bs)
							})
						}
					}
				}
			}
		})
	}
}

// TestAddKuBatch1D pins the 1-D batched kernel bitwise against the
// per-element oracle, including padded tails and fixed boundaries.
func TestAddKuBatch1D(t *testing.T) {
	const ne = 21
	xc := make([]float64, ne+1)
	c := make([]float64, ne)
	rho := make([]float64, ne)
	x := 0.0
	for i := range xc {
		xc[i] = x
		x += 0.5 + 0.1*float64(i%4)
	}
	for i := range c {
		c[i] = 1 + 0.2*float64(i%3)
		rho[i] = 1 + 0.1*float64(i%5)
	}
	for _, deg := range []int{1, 2, 4, 6} {
		op, err := NewOp1D(xc, c, rho, deg, FreeBC, FixedBC)
		if err != nil {
			t.Fatal(err)
		}
		u := make([]float64, op.NDof())
		pseudoField(u)
		base := make([]float64, op.NDof())
		randFill(base, 43)
		var bs BatchScratch
		for name, elems := range batchLists(ne) {
			t.Run(fmt.Sprintf("deg=%d/%s", deg, name), func(t *testing.T) {
				checkBatchApply(t, op, elems, u, base, &bs)
			})
		}
	}
}

// TestAddKuBatchZeroAllocs pins the warm batched path at zero heap
// allocations, for the dispatched deg=4 microkernels and a generic
// degree, on a ragged plan (36 elements: four full blocks and a padded
// tail of four).
func TestAddKuBatchZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	m := batchMesh(t)
	for _, deg := range []int{3, 4} {
		for _, tc := range batchOps(t, m, deg, false) {
			u := make([]float64, tc.op.NDof())
			pseudoField(u)
			dst := make([]float64, tc.op.NDof())
			plan := tc.op.NewBatchPlan(AllElements(tc.op))
			var bs BatchScratch
			tc.op.AddKuBatch(dst, u, plan, &bs) // warm the arena
			if n := testing.AllocsPerRun(5, func() {
				tc.op.AddKuBatch(dst, u, plan, &bs)
			}); n != 0 {
				t.Errorf("%s deg=%d: AddKuBatch allocates %v per op, want 0", tc.name, deg, n)
			}
			m := BenchNodeMap(tc.op, plan.Elems(), 1)
			rplan := plan.Remap(m)
			uc, _, dc, _ := remapFields(tc.op, m, u, dst)
			if n := testing.AllocsPerRun(5, func() {
				tc.op.AddKuBatch(dc, uc, rplan, &bs)
			}); n != 0 {
				t.Errorf("%s deg=%d: remapped AddKuBatch allocates %v per op, want 0", tc.name, deg, n)
			}
		}
	}
}

// TestBatchPlanOwnership checks that a plan built by one operator is
// rejected by another (programmer error, reported by panic).
func TestBatchPlanOwnership(t *testing.T) {
	m := batchMesh(t)
	a, err := NewAcoustic3D(m, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAcoustic3D(m, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	plan := a.NewBatchPlan(AllElements(a))
	defer func() {
		if recover() == nil {
			t.Fatal("AddKuBatch accepted a foreign plan")
		}
	}()
	dst := make([]float64, b.NDof())
	u := make([]float64, b.NDof())
	var bs BatchScratch
	b.AddKuBatch(dst, u, plan, &bs)
}

// TestBatchPlanBytes: an identity plan owns its lanes, constants and
// weight pairs but not the operator's connectivity it gathers through; a
// remap also owns its rows and keys — one row table when In and Out are
// one map, two otherwise.
func TestBatchPlanBytes(t *testing.T) {
	m := batchMesh(t)
	op, err := NewElastic3D(m, 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	elems := []int32{0, 2, 3, 5, 7, 9, 11, 13, 14} // a padded tail block
	pl := op.NewBatchPlan(elems).(*elemBatchPlan)
	own := 4*int64(len(pl.lanes)) + 8*int64(len(pl.cst)+len(pl.wpair))
	if got := pl.Bytes(); got != own {
		t.Fatalf("identity plan: %d bytes, want %d (lanes, constants, weights)", got, own)
	}
	ident := make([]int32, op.NumNodes())
	for n := range ident {
		ident[n] = int32(n)
	}
	rows := 4 * int64(len(pl.lanes)*pl.npe+len(pl.lanes)) // input rows + keys
	one := pl.Remap(NodeMap{In: ident, Out: ident, NIn: len(ident), NOut: len(ident)})
	if got := one.(*elemBatchPlan).Bytes(); got != own+rows {
		t.Errorf("remap through one map: %d bytes, want %d", got, own+rows)
	}
	out := slices.Clone(ident)
	two := pl.Remap(NodeMap{In: ident, Out: out, NIn: len(ident), NOut: len(ident)})
	if got, want := two.(*elemBatchPlan).Bytes(), own+rows+4*int64(len(elems)*pl.npe); got != want {
		t.Errorf("remap through two maps: %d bytes, want %d", got, want)
	}
}
