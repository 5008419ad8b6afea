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
// conflict-free ordering the flat connectivity already defines for a
// single goroutine (the parallel engine keeps ranks on private
// accumulation buffers, so batched scatter never races there either).
//
// Every lane of every batched pass reproduces the degree-generic
// per-element kernels' floating-point chains exactly — same products, same
// one-rounding-per-add order — so AddKuBatch is bitwise-identical to
// AddKuScratch. AddKuBatch is the one production stiffness path (every
// stepper and engine drives it); the per-element AddKuScratch of the four
// concrete operators is the reference oracle that tests and one-shot
// diagnostics run. Lane independence is also what allows the amd64
// microkernels to vectorise across lanes (each SIMD lane is an
// independent element) and ragged tails to be padded: a list whose length
// is not a multiple of batchB ends in one block whose spare lanes repeat
// the last element — gathered and computed, never scattered.

// BatchPlan is the precomputed execution layout of one element set: the
// element list (owned copy), the per-block packed material and metric
// constants, and the per-point quadrature weights. Plans are built once
// per stable element set — per LTS level, per rank — and reused for every
// apply; they are immutable after construction and safe for concurrent
// reads.
type BatchPlan interface {
	// Elems returns the plan's element list (callers must not mutate it).
	Elems() []int32
}

// BatchKernel is an Operator that executes a prepared element set as one
// fused batch — what the steppers and engines require of an operator. All
// four concrete operators implement it; parallel.PartitionedOperator and
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

// elemBatchPlan is the concrete plan of the four sem operators.
type elemBatchPlan struct {
	owner Operator
	elems []int32   // the caller's list: what scatters
	lanes []int32   // elems padded to whole blocks with repeats of its last element: what gathers
	cst   []float64 // per-block packed constants, op-specific row layout, one column per lane
	wpair []float64 // deg-4 3-D: n3 interleaved (w[a], w[b]·w[c]) pairs
}

// Elems implements BatchPlan.
func (p *elemBatchPlan) Elems() []int32 { return p.elems }

// block returns the lanes block blk gathers (always batchB) and the
// leading elements of it that scatter (fewer only in a ragged last block).
func (p *elemBatchPlan) block(blk int) (gather, scatter []int32) {
	return p.lanes[blk : blk+batchB], p.elems[blk:min(blk+batchB, len(p.elems))]
}

// checkPlan validates plan ownership and type for the concrete operators.
func checkPlan(op Operator, plan BatchPlan) *elemBatchPlan {
	pl, ok := plan.(*elemBatchPlan)
	if !ok {
		panic(fmt.Sprintf("sem: AddKuBatch: foreign plan type %T", plan))
	}
	if pl.owner != op {
		panic("sem: AddKuBatch: plan built by a different operator")
	}
	return pl
}

// newElemBatchPlan fills the shared plan fields: the padded element-list
// copy, the constants table (cstRows rows per block, filled by the
// caller), and (for 3-D operators) the per-point quadrature weight pairs
// matching the scalar kernels' w[a] and w[b]·w[c] factors.
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
	}
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
