package lts

import (
	"fmt"

	"golts/internal/sem"
)

// sets holds the per-level index sets that drive the LTS recursion. All
// level indices here are 0-based (level 0 = coarsest, step Δt; level li
// steps Δt/2^li). The paper's 1-based p-levels map as k = li+1.
//
// Definitions (paper §II-C and Fig. 2):
//
//   - nodeLevel[n]: the finest (max) level of the elements sharing node n.
//     This realises the selection matrices P_k: node n belongs to P_k iff
//     nodeLevel[n] = k. The "gray halo" nodes of Fig. 2 are coarse-element
//     nodes that sit next to fine elements and therefore inherit the fine
//     level.
//   - levelNodes[li]: the P_k node list (nodeLevel == li).
//   - forceElems[li]: elements with at least one P_k node — exactly the
//     elements whose stiffness contributions A·P_k·u can be nonzero.
//   - the force nodes of level li: all nodes of forceElems[li] — the
//     support of A·P_k·u.
//   - stepLvl[n]: the fastest rate at which node n's force can change
//     = max level li such that n is a force node of li. Nodes that are
//     force nodes of no li >= k see a constant force during level-k
//     substepping and admit a closed-form (quadratic-in-time) update.
//   - stepNodesAt[li]: the domain's nodes with stepLvl == li, ascending.
//     The active update set of level k is ∪_{li >= k} stepNodesAt[li].
//
// Node domain: the nodes this scheme advances — every node, or the
// operator's footprint when it declares one (sem.Footprint). nodeLevel,
// stepLvl, levelNodes and forceElems describe the mesh whatever the
// domain, so they are the same on every holder of a share (forceElems has
// to be: plan ids, work counters and the plan build order must agree
// across ranks); stepNodesAt and the active-region sets below are domain ∩
// set.
//
// Active-region numbering: the domain's nodes that substep at all (stepLvl
// >= 1; all of them when there is a single level) are numbered 0..nAct-1
// in (stepLvl, node) order, so the update set of level li is the suffix
// [actOff[li], nAct) and its closed-form set [actOff[li], actOff[li+1]).
type sets struct {
	numLevels   int
	elemLevel   []uint8 // 0-based per element
	nodeLevel   []uint8
	stepLvl     []uint8
	levelNodes  [][]int32
	forceElems  [][]int32
	stepNodesAt [][]int32

	actNode []int32 // active index -> node: stepNodesAt[1:] back to back
	actOff  []int   // actOff[li]: number of active nodes with stepLvl < li
	far     []int32 // the domain's nodes outside the active region, ascending
	// forceAct0 lists the active indices of level 0's force nodes,
	// ascending, and forceNodes0 their node ids, where its kernel
	// accumulates (coarsePass consumes the far-coarse rest); the finer
	// levels' gathers are dense and need no list.
	forceAct0   []int32
	forceNodes0 []int32
	hold        []int32 // active indices of the finer-level nodes the level-0 force elements read (zero in P_0·u), ascending
}

// buildSets computes all index sets from the operator topology and the
// element level assignment (1-based, as produced by mesh.AssignLevels).
// With optimized unset the update sets are widened so that every node
// substeps at every level — the full-vector Algorithm 1 semantics, used
// as the verification oracle; force sets are unchanged (restricting them
// is mathematically lossless).
func buildSets(op sem.Operator, elemLevel1 []uint8, numLevels int, optimized bool) (*sets, error) {
	ne := op.NumElements()
	if len(elemLevel1) != ne {
		return nil, fmt.Errorf("lts: %d element levels for %d elements", len(elemLevel1), ne)
	}
	if numLevels < 1 || numLevels > 16 {
		return nil, fmt.Errorf("lts: numLevels %d outside [1, 16]", numLevels)
	}
	s := &sets{numLevels: numLevels}
	s.elemLevel = make([]uint8, ne)
	for e, l := range elemLevel1 {
		if l < 1 || int(l) > numLevels {
			return nil, fmt.Errorf("lts: element %d has level %d outside [1, %d]", e, l, numLevels)
		}
		s.elemLevel[e] = l - 1
	}
	nn := op.NumNodes()
	// Element connectivity: read the operator's precomputed flat table
	// when it exposes one (all in-tree operators do), falling back to
	// per-element ElemNodes copies otherwise.
	var nb []int32
	conn, npe := sem.ConnOf(op)
	elemNodes := func(e int) []int32 {
		if conn != nil {
			return conn[e*npe : (e+1)*npe]
		}
		nb = op.ElemNodes(e, nb[:0])
		return nb
	}
	s.nodeLevel = make([]uint8, nn)
	for e := 0; e < ne; e++ {
		le := s.elemLevel[e]
		for _, n := range elemNodes(e) {
			if le > s.nodeLevel[n] {
				s.nodeLevel[n] = le
			}
		}
	}
	// forceMask[n] bit li set <=> n is a node of an element that has a
	// level-li node.
	forceMask := make([]uint16, nn)
	elemForce := make([]uint16, ne) // bitmask of node levels present in e
	for e := 0; e < ne; e++ {
		en := elemNodes(e)
		var m uint16
		for _, n := range en {
			m |= 1 << s.nodeLevel[n]
		}
		elemForce[e] = m
		for _, n := range en {
			forceMask[n] |= m
		}
	}
	s.stepLvl = make([]uint8, nn)
	for n, m := range forceMask {
		l := 0
		for b := m; b > 1; b >>= 1 {
			l++
		}
		if !optimized {
			l = numLevels - 1
		}
		s.stepLvl[n] = uint8(l)
	}
	// The node domain, ascending: the footprint's entries, or 0..nn-1.
	domain, nDomain := sem.FootprintOf(op), nn
	if domain != nil {
		nDomain = len(domain)
	}
	s.stepNodesAt = make([][]int32, numLevels)
	for i := 0; i < nDomain; i++ {
		n := int32(i)
		if domain != nil {
			n = domain[i]
			if n < 0 || int(n) >= nn || (i > 0 && n <= domain[i-1]) {
				return nil, fmt.Errorf("lts: operator footprint is not an ascending list of nodes at entry %d (%d)", i, n)
			}
		}
		l := s.stepLvl[n]
		s.stepNodesAt[l] = append(s.stepNodesAt[l], n)
	}
	// The active region: levels lo.. back to back.
	lo := min(1, numLevels-1)
	s.actOff = make([]int, numLevels)
	for li := lo; li < numLevels; li++ {
		s.actOff[li] = len(s.actNode)
		s.actNode = append(s.actNode, s.stepNodesAt[li]...)
	}
	if lo == 1 {
		s.far = s.stepNodesAt[0]
	}
	s.levelNodes = make([][]int32, numLevels)
	for n, l := range s.nodeLevel {
		s.levelNodes[l] = append(s.levelNodes[l], int32(n))
	}
	s.forceElems = make([][]int32, numLevels)
	for e := 0; e < ne; e++ {
		for li := 0; li < numLevels; li++ {
			if elemForce[e]&(1<<li) != 0 {
				s.forceElems[li] = append(s.forceElems[li], int32(e))
			}
		}
	}
	for a, n := range s.actNode {
		if forceMask[n]&1 != 0 {
			s.forceAct0 = append(s.forceAct0, int32(a))
			s.forceNodes0 = append(s.forceNodes0, n)
			if s.nodeLevel[n] != 0 {
				s.hold = append(s.hold, int32(a))
			}
		}
	}
	return s, nil
}

// haloElems returns, for level li, how many of forceElems[li] are not
// themselves level-li elements — the halo overhead the optimised
// implementation pays at level interfaces.
func (s *sets) haloElems(li int) int {
	h := 0
	for _, e := range s.forceElems[li] {
		if int(s.elemLevel[e]) != li {
			h++
		}
	}
	return h
}
