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
// pinned against bit for bit.
package sem

import (
	"fmt"
	"sort"
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
	// batched kernel and ignore sc.
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

// Preparer is an optional Operator extension: implementations can
// precompute per-element-list execution state (ownership splits, merge
// plans) for lists that will be applied repeatedly. The steppers announce
// their stable lists — the global all-elements list, each LTS level's
// force elements — at construction time, so parallel backends never pay
// plan construction inside the stepping loop.
type Preparer interface {
	Prepare(elems []int32)
}

// Prepare announces a reusable element list to op if it supports it.
func Prepare(op Operator, elems []int32) {
	if p, ok := op.(Preparer); ok {
		p.Prepare(elems)
	}
}

// Footprint is an optional Operator extension of the engines that hold one
// share of a decomposed run: OwnedNodes lists, ascending, the nodes this
// operator's stiffness applications read u at and deliver assembled K·u
// on — it accumulates into no other node of dst. A stepper has to advance
// those nodes only (every other update of either scheme is pointwise), and
// nothing else holds their values. Operators that serve the whole mesh do
// not implement it.
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
	seen := make([]bool, op.NumNodes())
	var nodes []int32
	var nb []int32
	conn, npe := ConnOf(op)
	for _, e := range elems {
		if conn != nil {
			nb = conn[int(e)*npe : (int(e)+1)*npe]
		} else {
			nb = op.ElemNodes(int(e), nb[:0])
		}
		for _, n := range nb {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
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

// Restriction is an element list with its precomputed node support, for
// repeated restricted applications: where Accel pays O(NDof) zeroing and
// O(NumNodes) mass scaling regardless of the list, Restriction.Accel
// touches only the support.
type Restriction struct {
	// Elems is the element list (not copied; must not be mutated).
	Elems []int32
	// Nodes is the sorted unique node support of Elems.
	Nodes []int32
}

// NewRestriction precomputes the node support of elems.
func NewRestriction(op Operator, elems []int32) *Restriction {
	return &Restriction{Elems: elems, Nodes: NodesOf(op, elems)}
}

// Accel computes dst = -M⁻¹ K u over the restriction's elements, reading
// and writing only the support nodes: entries of dst outside r.Nodes are
// left untouched. With a warm Scratch the call is allocation-free.
func (r *Restriction) Accel(op Operator, dst, u []float64, sc *Scratch) {
	nc := op.Comps()
	for _, n := range r.Nodes {
		base := int(n) * nc
		for c := 0; c < nc; c++ {
			dst[base+c] = 0
		}
	}
	op.AddKuScratch(dst, u, r.Elems, sc)
	minv := op.MInv()
	for _, n := range r.Nodes {
		mi := minv[n]
		base := int(n) * nc
		for c := 0; c < nc; c++ {
			dst[base+c] *= -mi
		}
	}
}

// Energy returns the discrete mechanical energy ½vᵀMv + ½uᵀKu accumulated
// over the restriction's elements and node support. work must have length
// NDof with all-zero entries on the support; it is used as stiffness
// scratch and restored to zero on the support before returning, so a warm
// Scratch makes the call allocation-free — the plan-cache-aware diagnostic
// path the steppers' Energy methods use.
func (r *Restriction) Energy(op Operator, u, v, work []float64, sc *Scratch) float64 {
	nc := op.Comps()
	op.AddKuScratch(work, u, r.Elems, sc)
	minv := op.MInv()
	e := 0.0
	for _, n := range r.Nodes {
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

// Accel computes dst = -M⁻¹ K u over all elements (the right-hand side of
// Eq. 4 without sources). dst is overwritten. Callers holding a small
// restricted element list should prefer Restriction.Accel, which touches
// only the list's node support.
func Accel(op Operator, dst, u []float64, elems []int32) {
	for i := range dst {
		dst[i] = 0
	}
	op.AddKu(dst, u, elems)
	minv := op.MInv()
	nc := op.Comps()
	for n := 0; n < op.NumNodes(); n++ {
		mi := minv[n]
		for c := 0; c < nc; c++ {
			dst[n*nc+c] *= -mi
		}
	}
}

// Energy returns the discrete mechanical energy ½ vᵀMv + ½ uᵀKu over the
// listed elements' node support. For the staggered leap-frog scheme this
// quantity oscillates with amplitude O(Δt²) around a conserved value,
// which is what the conservation tests check. This is the one-shot
// convenience form; callers that evaluate repeatedly should hold a
// Restriction and call its Energy method with owned scratch.
func Energy(op Operator, u, v []float64, elems []int32, work []float64) float64 {
	if len(work) < len(u) {
		work = make([]float64, len(u))
	}
	work = work[:len(u)]
	for i := range work {
		work[i] = 0
	}
	var sc Scratch
	return NewRestriction(op, elems).Energy(op, u, v, work, &sc)
}

// checkLen panics with a descriptive message when a vector has the wrong
// length; used by the concrete operators' entry points.
func checkLen(name string, v []float64, want int) {
	if len(v) != want {
		panic(fmt.Sprintf("sem: %s has length %d, want %d", name, len(v), want))
	}
}
