// Package sem implements spectral element discretizations of the acoustic
// and elastic wave equations (paper §I-A/§I-B): a 1-D scalar operator and
// 3-D scalar (acoustic) and 3-component (isotropic elastic) operators on
// the structured hexahedral meshes of package mesh.
//
// The operators expose exactly what explicit time stepping needs: the
// diagonal inverse mass matrix and element-restricted accumulation of K·u,
// so both the global Newmark scheme (Eq. 5-6) and the multi-level
// LTS-Newmark scheme (Algorithm 1) can be built on top without knowing the
// discretization.
//
// All concrete operators share a flat kernel core: element connectivity is
// precomputed into one gather/scatter table at construction and the GLL
// derivative matrices are stored flat. Stiffness has one production path,
// the batched kernel of batch.go (BatchKernel), which every stepper and
// engine drives with caller-owned workspaces so the steady-state stepping
// loops perform zero heap allocations; the per-element AddKuScratch of
// the concrete operators is the degree-generic reference oracle it is
// pinned against bit for bit. No binary runs the oracle: it is kept for
// the tests and for benchmark/layers.go, whose timing decorator forwards
// it through BatchKernel.
package sem

import (
	"fmt"
	"math/bits"
)

// Operator is a semi-discrete wave operator M ü = -K u + F with diagonal
// mass matrix. Degrees of freedom are laid out node-major: dof = node*Comps
// + comp.
type Operator interface {
	// NumNodes returns the number of global (shared) GLL nodes.
	NumNodes() int
	// Comps returns the number of field components per node (1 or 3).
	Comps() int
	// NDof returns NumNodes() * Comps().
	NDof() int
	// NumElements returns the number of spectral elements.
	NumElements() int
	// MInv returns the per-node inverse lumped mass (length NumNodes).
	// Entries set to zero encode Dirichlet (fixed) nodes.
	MInv() []float64
	// AddKu accumulates the stiffness contributions of the listed elements
	// into dst: dst += K_e u for each e in elems. Contributions from an
	// element whose nodal values are all zero are exactly zero, so
	// restricting elems to the support of u is lossless.
	AddKu(dst, u []float64, elems []int32)
	// AddKuScratch is AddKu with caller-owned kernel scratch: a warm
	// Scratch makes the call allocation-free. On the concrete operators
	// it is the per-element reference oracle and AddKu delegates here
	// with pooled scratch; the engines implement both through their
	// batched kernel and ignore sc. Both are the oracle of the tests and
	// of benchmark/layers.go only: no binary calls them.
	AddKuScratch(dst, u []float64, elems []int32, sc *Scratch)
	// ElemNodes appends the global node ids of element e to buf and
	// returns the extended slice.
	ElemNodes(e int, buf []int32) []int32
}

// Connectivity is an optional Operator extension exposing the precomputed
// flat gather/scatter table: ConnTable returns (conn, npe) such that
// conn[e*npe+i] is the global node id of element e's i-th local node. All
// concrete operators in this package implement it; consumers that walk
// element connectivity in bulk (LTS set construction, parallel plan
// building) read the table directly instead of copying through ElemNodes.
type Connectivity interface {
	ConnTable() (conn []int32, nodesPerElem int)
}

// Preparer is a retired optional Operator extension that announced
// reusable element lists. No operator of this module implements it: a
// stepper builds each of its plans once with NewBatchPlan, in its
// constructor, and holds it. Preparer and Prepare are kept only because
// the benchmark harness module (benchmark/) compiles against them.
type Preparer interface {
	Prepare(elems []int32)
}

// Prepare calls op.Prepare if op implements Preparer.
func Prepare(op Operator, elems []int32) {
	if p, ok := op.(Preparer); ok {
		p.Prepare(elems)
	}
}

// Footprint is an optional Operator extension of the engines that hold one
// share of a decomposed run: OwnedNodes lists, ascending, the nodes this
// operator's stiffness applications read u at and deliver assembled K·u
// on — it reads and accumulates no other node. A stepper has to advance
// those nodes only (every other update of either scheme is pointwise), and
// nothing else holds their values, so it keeps its per-node arrays in the
// footprint's compact numbering: a node's position in OwnedNodes (see
// StepperPlan). Operators that serve the whole mesh do not implement it;
// their steppers keep node ids.
type Footprint interface {
	OwnedNodes() []int32
}

// FootprintOf returns op's footprint, nil when it serves every node.
func FootprintOf(op Operator) []int32 {
	if f, ok := op.(Footprint); ok {
		return f.OwnedNodes()
	}
	return nil
}

// StepperPlan returns the batch plan of elems and op's per-node M⁻¹ in the
// numbering a stepper keeps its per-node arrays in. Without a footprint
// that is op's node ids: the plan is NewBatchPlan's, M⁻¹ op's own, and
// nothing is remapped or copied. With one it is the footprint's compact
// numbering: the plan is remapped into it for reads and accumulation alike
// (nodes off the footprint map to -1: op touches none of them) and M⁻¹ is
// gathered into it.
func StepperPlan(op BatchKernel, elems []int32) (BatchPlan, []float64) {
	pl, minv := op.NewBatchPlan(elems), op.MInv()
	fp := FootprintOf(op)
	if fp == nil {
		return pl, minv
	}
	m := NodeMap{In: make([]int32, op.NumNodes()), NIn: len(fp), NOut: len(fp)}
	m.Out = m.In
	for n := range m.In {
		m.In[n] = -1
	}
	local := make([]float64, len(fp))
	for i, n := range fp {
		m.In[n] = int32(i)
		local[i] = minv[n]
	}
	return pl.Remap(m), local
}

// AllElements returns the identity element list [0, n).
func AllElements(op Operator) []int32 {
	n := op.NumElements()
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// NodesOf returns the sorted unique global node ids touched by the listed
// elements.
func NodesOf(op Operator, elems []int32) []int32 {
	return TouchedNodes(op, [][]int32{elems})[0]
}

// TouchedNodes returns, for each element list, the ascending unique global
// node ids its elements touch (nil for an empty list): the node support of
// a part's stiffness contributions. One bitmap serves every list: a list
// sets its nodes' bits, then a scan of the words it touched emits them in
// ascending order into an exactly sized list and clears those words.
func TouchedNodes(op Operator, elemLists [][]int32) [][]int32 {
	conn, npe := ConnOf(op)
	seen := make([]uint64, (op.NumNodes()+63)/64)
	var nb []int32
	out := make([][]int32, len(elemLists))
	for p, list := range elemLists {
		lo, hi := len(seen), 0 // the words [lo, hi) hold every set bit
		for _, e := range list {
			if conn != nil {
				nb = conn[int(e)*npe : (int(e)+1)*npe]
			} else {
				nb = op.ElemNodes(int(e), nb[:0])
			}
			for _, n := range nb {
				w := int(n >> 6)
				seen[w] |= 1 << (n & 63)
				lo, hi = min(lo, w), max(hi, w+1)
			}
		}
		if lo >= hi {
			continue
		}
		words, count := seen[lo:hi], 0
		for _, x := range words {
			count += bits.OnesCount64(x)
		}
		nodes := make([]int32, 0, count)
		for i, x := range words {
			for base := int32(lo+i) << 6; x != 0; x &= x - 1 {
				nodes = append(nodes, base+int32(bits.TrailingZeros64(x)))
			}
			words[i] = 0
		}
		out[p] = nodes
	}
	return out
}

// ConnOf returns op's flat connectivity table when it exposes one, and
// (nil, 0) otherwise; callers treat nil as "fall back to ElemNodes". The
// single helper keeps every Connectivity consumer (LTS set construction,
// parallel plan building, NodesOf) on one contract.
func ConnOf(op Operator) ([]int32, int) {
	if ct, ok := op.(Connectivity); ok {
		return ct.ConnTable()
	}
	return nil, 0
}

// Energy returns the discrete mechanical energy ½ vᵀMv + ½ uᵀKu over the
// listed elements' node support, through the scalar stiffness path. For
// the staggered leap-frog scheme this quantity oscillates with amplitude
// O(Δt²) around a conserved value, which is what the conservation tests
// of sem, lts and newmark check. work (length NDof, or nil to allocate)
// is stiffness scratch; it is left all-zero.
func Energy(op Operator, u, v []float64, elems []int32, work []float64) float64 {
	if len(work) < len(u) {
		work = make([]float64, len(u))
	}
	work = work[:len(u)]
	clear(work)
	var sc Scratch
	op.AddKuScratch(work, u, elems, &sc)
	minv := op.MInv()
	nc := op.Comps()
	e := 0.0
	for _, n := range NodesOf(op, elems) {
		base := int(n) * nc
		if minv[n] != 0 { // fixed nodes carry no kinetic energy
			m := 1 / minv[n]
			for c := 0; c < nc; c++ {
				d := base + c
				e += 0.5*m*v[d]*v[d] + 0.5*u[d]*work[d]
			}
		}
		for c := 0; c < nc; c++ {
			work[base+c] = 0
		}
	}
	return e
}

// checkLen panics with a descriptive message when a vector has the wrong
// length; used by the concrete operators' entry points.
func checkLen(name string, v []float64, want int) {
	if len(v) != want {
		panic(fmt.Sprintf("sem: %s has length %d, want %d", name, len(v), want))
	}
}
