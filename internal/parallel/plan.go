package parallel

import (
	"cmp"
	"slices"

	"golts/internal/decomp"
	"golts/internal/sem"
)

// applyPlan is the execution layout for one element list: the shared
// owner-computes decomposition (package decomp), the per-rank inner batch
// plans and the spill layout. It is the PartitionedOperator's BatchPlan.
type applyPlan struct {
	owner *PartitionedOperator
	dp    *decomp.Plan
	nc    int // component count, cached for the merge inner loop
	// pairs holds a (node, rank) pair wherever a lower rank touches the
	// node too, its index the pair's tail slot, ordered by the node's
	// lowest toucher, node, rank. Node sharedNode[i] owns the slots
	// slotOff[i]..slotOff[i+1]-1; rank r leads sharedNode[lead[r]:lead[r+1]].
	pairs         []spillPair
	sharedNode    []int32
	slotOff, lead []int32
	// The output space (nOut nodes, then the tail), sharedNode in it, the
	// per-rank inner plans (nil for an idle rank), dst at shared from an
	// apply's lift to its merge, and the count of ranks with a spill.
	nOut      int
	shared    []int32
	rankBatch []sem.BatchPlan
	lift      []float64
	messages  int64
}

type spillPair struct{ node, rank int32 }

// Elems implements sem.BatchPlan.
func (pl *applyPlan) Elems() []int32 { return pl.dp.Elems }

// DstNodes implements sem.BatchPlan: the output space, then the tail.
func (pl *applyPlan) DstNodes() int { return pl.nOut + len(pl.pairs) }

// Remap implements sem.BatchPlan: sub-plans remapped, the shared nodes
// renumbered through m.Out and the tail moved behind m.NOut.
func (pl *applyPlan) Remap(m sem.NodeMap) sem.BatchPlan {
	q := *pl
	q.place(m)
	return &q
}

// buildPlan adds the shared-memory layout to a decomposition plan, in the
// node-id output space.
func buildPlan(p *PartitionedOperator, dp *decomp.Plan) *applyPlan {
	nn := p.inner.NumNodes()
	pl := &applyPlan{owner: p, dp: dp, nc: p.inner.Comps(),
		lead: make([]int32, p.K+1), rankBatch: make([]sem.BatchPlan, p.K)}
	for r, elems := range dp.Parts {
		if len(elems) > 0 {
			pl.rankBatch[r] = p.inner.NewBatchPlan(elems)
		}
	}
	low := decomp.Owners(nn, dp.Touched)
	for r, t := range dp.Touched {
		for _, n := range t {
			if low[n] != int32(r) {
				pl.pairs = append(pl.pairs, spillPair{n, int32(r)})
			}
		}
	}
	slices.SortStableFunc(pl.pairs, func(a, b spillPair) int {
		return cmp.Compare(int64(low[a.node])*int64(nn)+int64(a.node), int64(low[b.node])*int64(nn)+int64(b.node))
	})
	for s, sp := range pl.pairs {
		if s == 0 || sp.node != pl.pairs[s-1].node {
			pl.sharedNode = append(pl.sharedNode, sp.node)
			pl.slotOff = append(pl.slotOff, int32(s))
			pl.lead[low[sp.node]+1]++
		}
	}
	pl.slotOff = append(pl.slotOff, int32(len(pl.pairs)))
	for r := 0; r < p.K; r++ {
		pl.lead[r+1] += pl.lead[r]
	}
	pl.place(sem.NodeMap{NIn: nn, NOut: nn})
	return pl
}

// place lays the plan out in the output space of m (the node ids when m
// has no tables): a rank that spills runs its inner plan remapped to send
// those nodes to its tail slots, any other through m or as built.
func (pl *applyPlan) place(m sem.NodeMap) {
	identity := m.Out == nil
	if identity && len(pl.pairs) > 0 {
		m.In = make([]int32, m.NIn)
		for n := range m.In {
			m.In[n] = int32(n)
		}
		m.Out = m.In
	}
	pl.nOut, pl.messages = m.NOut, 0
	pl.shared = decomp.Renumber([][]int32{pl.sharedNode}, m.Out)[0]
	pl.lift = make([]float64, len(pl.shared)*pl.nc)
	src := pl.rankBatch
	pl.rankBatch = make([]sem.BatchPlan, len(src))
	for r, b := range src {
		spills := func(sp spillPair) bool { return int(sp.rank) == r }
		switch {
		case slices.ContainsFunc(pl.pairs, spills):
			sm := m
			sm.Out, sm.NOut = slices.Clone(m.Out), pl.DstNodes()
			for s, sp := range pl.pairs {
				if spills(sp) {
					sm.Out[sp.node] = int32(m.NOut + s)
				}
			}
			pl.rankBatch[r] = b.Remap(sm)
			pl.messages++
		case b == nil || identity:
			pl.rankBatch[r] = b
		default:
			pl.rankBatch[r] = b.Remap(m)
		}
	}
}

// liftShare moves dst at the shared nodes rank r leads into lift, leaving
// +0, where its terms then start as in a private buffer.
func (pl *applyPlan) liftShare(r int, dst []float64) {
	nc := pl.nc
	for i := int(pl.lead[r]); i < int(pl.lead[r+1]); i++ {
		d := int(pl.shared[i]) * nc
		copy(pl.lift[i*nc:], dst[d:d+nc])
		clear(dst[d : d+nc])
	}
}

// mergeShard folds the shared nodes rank r leads: lifted dst + its terms
// + every slot in ascending rank order (re-zeroed) — the order in which
// private buffers were added to dst.
func (pl *applyPlan) mergeShard(r int, dst []float64) {
	nc := pl.nc
	for i := int(pl.lead[r]); i < int(pl.lead[r+1]); i++ {
		d := int(pl.shared[i]) * nc
		for c := 0; c < nc; c++ {
			x := pl.lift[i*nc+c] + dst[d+c]
			for s := pl.nOut + int(pl.slotOff[i]); s < pl.nOut+int(pl.slotOff[i+1]); s++ {
				x += dst[s*nc+c]
				dst[s*nc+c] = 0
			}
			dst[d+c] = x
		}
	}
}
