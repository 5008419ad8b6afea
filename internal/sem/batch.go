package sem

import "fmt"

// This file is the public surface of the batched kernel layer: the paper's
// speedup model (Eq. 9) treats the per-element stiffness application as the
// fixed unit of work, so every nanosecond shaved off it multiplies through
// all p LTS levels. The batched layer executes a whole element set — one
// LTS level's force elements, one rank's owned slice — as fused
// gather → contract → scatter passes over a flat structure-of-arrays
// workspace (the SPECFEM3D-GPU kernel structure): all elements' nodal
// values are gathered into per-component planes of batchB lanes, the
// D/Dᵀ tensor contractions run as blocked matrix–matrix loops over whole
// planes (long contiguous rows instead of one 125-node element at a
// time), and the results scatter back in element-list order — the
// conflict-free ordering the element list already defines for a single
// goroutine (the parallel engine sends a rank's terms at a node a lower
// rank touches to a spill slot of its own, so batched scatter never races
// there either).
//
// Index spaces. A plan names the memory it reads and writes by index, not
// by node: u and dst are arrays over the plan's input and output index
// spaces. A plan fresh from NewBatchPlan is the identity plan (both spaces
// are the node numbering, the rows the operator's own connectivity); Remap
// derives one over caller-chosen numberings that runs the same kernel body
// — package lts runs its fine levels in its compact active-region numbering
// this way, the nodes outside P_li masked: A·P_li·ũ without a copy of ũ.
//
// Every lane of every batched pass reproduces the degree-generic
// per-element kernels' floating-point chains exactly — same products, same
// one-rounding-per-add order, and per output index the same additions in
// the same element-list order whatever the numbering — so AddKuBatch is
// bitwise-identical to AddKuScratch on the equivalent node-numbered
// problem. AddKuBatch is the one production stiffness path (every stepper
// and engine drives it); the per-element AddKuScratch of the three
// concrete operators is the reference oracle that tests and one-shot
// diagnostics run. Lane independence is also what allows the amd64
// microkernels to vectorise across lanes (each SIMD lane is an
// independent element) and ragged tails to be padded: a list whose length
// is not a multiple of batchB ends in one block whose spare lanes repeat
// the last element — gathered and computed, never scattered.

// NodeMap renumbers a plan's memory: In[n] is the index node n's value is
// read from (nodes may share one: a masked node points at a slot the caller
// keeps zero), Out[n] the index its contribution accumulates into (distinct
// per node). Both are NumNodes long and read during Remap only, and may be
// one slice. Every node of the plan's elements must map inside [0, NIn)
// and [0, NOut) — on the operator's Footprint, if it declares one: it reads
// and accumulates nowhere else. An engine may keep a spill tail behind NOut
// (BatchPlan.DstNodes).
type NodeMap struct {
	In, Out   []int32
	NIn, NOut int // sizes of the two index spaces, in nodes
}

// BatchPlan is the precomputed execution layout of one element set: the
// element list (owned copy), the per-block packed material and metric
// constants, the per-point quadrature weights, and the index rows the
// kernel gathers and scatters through. Plans are built once per stable
// element set — per LTS level, per rank — and reused for every apply;
// they are immutable after construction and safe for concurrent reads.
type BatchPlan interface {
	// Elems returns the plan's element list (callers must not mutate it).
	Elems() []int32
	// Remap returns a plan over the same elements whose AddKuBatch reads u
	// (m.NIn·Comps values) through m.In and accumulates into dst through
	// m.Out. m always maps the operator's node ids.
	Remap(m NodeMap) BatchPlan
	// DstNodes is the length, in nodes, of the dst AddKuBatch accumulates
	// into: the output space (NumNodes, or m.NOut after a Remap), then any
	// spill tail an engine keeps there, all-zero between applies.
	DstNodes() int
}

// BatchKernel is an Operator that executes a prepared element set as one
// fused batch — what the steppers and engines require of an operator. All
// three concrete operators implement it; parallel.PartitionedOperator and
// dist.Operator forward it to per-rank and per-part sub-plans.
type BatchKernel interface {
	Operator
	// NewBatchPlan precomputes the batch execution layout for the element
	// list (copied; later mutation of elems is safe).
	NewBatchPlan(elems []int32) BatchPlan
	// AddKuBatch accumulates dst += K u over the plan's elements, bitwise
	// identical to AddKuScratch(dst, u, plan.Elems(), ·). The plan must
	// have been built by this operator; bs is the caller-owned workspace
	// (zero heap allocations once warm).
	AddKuBatch(dst, u []float64, plan BatchPlan, bs *BatchScratch)
}

// BatchScratch is the reusable workspace of AddKuBatch: the SoA plane
// arena. Like Scratch, it may be shared across operators (it grows to the
// largest request) but not across goroutines: each parallel rank worker
// and each sequential stepper owns its own.
type BatchScratch struct {
	buf []float64
}

// floats returns a slice of length n backed by the arena, growing it when
// needed. Contents are unspecified: kernels must fully overwrite what
// they read.
func (b *BatchScratch) floats(n int) []float64 {
	if cap(b.buf) < n {
		b.buf = make([]float64, n)
	}
	return b.buf[:n]
}

// elemBatchPlan is the concrete plan of the three sem operators.
type elemBatchPlan struct {
	owner Operator
	elems []int32   // the caller's list: what scatters
	lanes []int32   // elems padded to whole blocks with repeats of its last element: what gathers
	cst   []float64 // per-block packed constants, op-specific row layout, one column per lane
	wpair []float64 // deg-4 3-D: n3 interleaved (w[a], w[b]·w[c]) pairs

	// The lane at list position i gathers through row inKey[i] of inTbl and
	// scatters through row outKey[i] of outTbl (npe indices each): the
	// operator's connectivity by element id, or a remap's own by position.
	npe           int
	inTbl, outTbl []int32
	inKey, outKey []int32
	nIn, nOut     int // sizes of the two index spaces, in nodes
}

// Elems implements BatchPlan.
func (p *elemBatchPlan) Elems() []int32 { return p.elems }

// DstNodes implements BatchPlan: the output space.
func (p *elemBatchPlan) DstNodes() int { return p.nOut }

// Bytes is the memory the plan owns: its lanes (elems are their prefix),
// constants and weight pairs, and the index rows and keys it does not
// share. An identity plan's rows are its operator's connectivity and its
// keys are its lanes, so it owns neither; a remap owns its rows and keys
// (its output ones are a prefix of its input ones, or the operator's).
func (p *elemBatchPlan) Bytes() int64 {
	conn, _ := ConnOf(p.owner)
	ints := len(p.lanes)
	if !sameArray(p.inTbl, conn) {
		ints += len(p.inTbl)
	}
	if !sameArray(p.outTbl, conn) && !sameArray(p.outTbl, p.inTbl) {
		ints += len(p.outTbl)
	}
	if !sameArray(p.inKey, p.lanes) {
		ints += len(p.inKey)
	}
	return 4*int64(ints) + 8*int64(len(p.cst)+len(p.wpair))
}

// sameArray reports whether a and b start at one element of one array.
func sameArray(a, b []int32) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// Remap implements BatchPlan: a shallow copy with two fresh row tables, or
// one when In and Out are one map (the output rows are then a prefix of the
// input rows).
func (p *elemBatchPlan) Remap(m NodeMap) BatchPlan {
	conn, _ := ConnOf(p.owner)
	q := *p
	q.inTbl = remapRows(conn, p.npe, p.lanes, m.In, m.NIn, "In")
	if len(m.In) > 0 && len(m.Out) == len(m.In) && &m.In[0] == &m.Out[0] && m.NIn == m.NOut {
		q.outTbl = q.inTbl[:len(p.elems)*p.npe]
	} else {
		q.outTbl = remapRows(conn, p.npe, p.elems, m.Out, m.NOut, "Out")
	}
	q.inKey = make([]int32, len(p.lanes))
	for i := range q.inKey {
		q.inKey[i] = int32(i)
	}
	q.outKey = q.inKey[:len(p.elems)]
	q.nIn, q.nOut = m.NIn, m.NOut
	return &q
}

// remapRows renumbers the connectivity rows of elems through to.
func remapRows(conn []int32, npe int, elems, to []int32, size int, name string) []int32 {
	rows := make([]int32, 0, len(elems)*npe)
	for _, e := range elems {
		for _, n := range conn[int(e)*npe : (int(e)+1)*npe] {
			i := to[n]
			if i < 0 || int(i) >= size {
				panic(fmt.Sprintf("sem: Remap: NodeMap.%s sends node %d of element %d to %d, outside [0, %d)", name, n, e, i, size))
			}
			rows = append(rows, i)
		}
	}
	return rows
}

// gather1 / scatter1 move the block at list position blk of a scalar
// field between the caller's arrays and an SoA plane through the plan's
// index rows, in list order; gather3 / scatter3 do three components. A
// block gathers batchB lanes; only the leading ones that hold list elements
// (fewer in a ragged last block) scatter. All four stay out of line:
// inlined into the block loops their inner loops spill (+3-5 % per element).
//
//go:noinline
func (p *elemBatchPlan) gather1(u []float64, blk int, ue []float64) {
	for i, k := range p.inKey[blk : blk+batchB] {
		o := i
		for _, n := range p.inTbl[int(k)*p.npe : (int(k)+1)*p.npe] {
			ue[o] = u[n]
			o += batchB
		}
	}
}

//go:noinline
func (p *elemBatchPlan) scatter1(dst []float64, blk int, s []float64) {
	for i, k := range p.outKey[blk:min(blk+batchB, len(p.outKey))] {
		o := i
		for _, n := range p.outTbl[int(k)*p.npe : (int(k)+1)*p.npe] {
			dst[n] += s[o]
			o += batchB
		}
	}
}

//go:noinline
func (p *elemBatchPlan) gather3(u []float64, blk int, ux, uy, uz []float64) {
	for i, k := range p.inKey[blk : blk+batchB] {
		o := i
		for _, n := range p.inTbl[int(k)*p.npe : (int(k)+1)*p.npe] {
			j := 3 * int(n)
			ux[o], uy[o], uz[o] = u[j], u[j+1], u[j+2]
			o += batchB
		}
	}
}

//go:noinline
func (p *elemBatchPlan) scatter3(dst []float64, blk int, sx, sy, sz []float64) {
	for i, k := range p.outKey[blk:min(blk+batchB, len(p.outKey))] {
		o := i
		for _, n := range p.outTbl[int(k)*p.npe : (int(k)+1)*p.npe] {
			j := 3 * int(n)
			dst[j] += sx[o]
			dst[j+1] += sy[o]
			dst[j+2] += sz[o]
			o += batchB
		}
	}
}

// checkPlan validates plan ownership and type for the concrete operators,
// and dst and u against the plan's index spaces.
func checkPlan(op Operator, plan BatchPlan, dst, u []float64) *elemBatchPlan {
	pl, ok := plan.(*elemBatchPlan)
	if !ok {
		panic(fmt.Sprintf("sem: AddKuBatch: foreign plan type %T", plan))
	}
	if pl.owner != op {
		panic("sem: AddKuBatch: plan built by a different operator")
	}
	checkLen("dst", dst, pl.nOut*op.Comps())
	checkLen("u", u, pl.nIn*op.Comps())
	return pl
}

// newElemBatchPlan fills the shared plan fields: the padded element-list
// copy, the identity index rows, the constants table (cstRows rows per
// block, filled by the caller), and (for 3-D operators) the per-point
// quadrature weight pairs matching the scalar kernels' w[a] and w[b]·w[c]
// factors.
func newElemBatchPlan(op Operator, elems []int32, cstRows, nq int, weights []float64) *elemBatchPlan {
	lanes := make([]int32, (len(elems)+batchB-1)/batchB*batchB)
	for i := copy(lanes, elems); i < len(lanes); i++ {
		lanes[i] = elems[len(elems)-1]
	}
	pl := &elemBatchPlan{
		owner: op,
		elems: lanes[:len(elems)],
		lanes: lanes,
		cst:   make([]float64, len(lanes)*cstRows),
		nIn:   op.NumNodes(), nOut: op.NumNodes(),
	}
	pl.inTbl, pl.npe = ConnOf(op)
	pl.outTbl, pl.inKey, pl.outKey = pl.inTbl, pl.lanes, pl.elems
	if weights != nil {
		pl.wpair = make([]float64, 0, 2*nq*nq*nq)
		for c := 0; c < nq; c++ {
			for b := 0; b < nq; b++ {
				for a := 0; a < nq; a++ {
					pl.wpair = append(pl.wpair, weights[a], weights[b]*weights[c])
				}
			}
		}
	}
	return pl
}
