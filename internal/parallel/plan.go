package parallel

import (
	"math"
	"slices"
	"sync"

	"golts/internal/decomp"
	"golts/internal/sem"
)

// applyPlan is the execution layout for one element list: the shared
// owner-computes decomposition (package decomp), the per-rank inner batch
// plans and the spill layout. It is the PartitionedOperator's BatchPlan.
// Remap lays its plan out at once; NewBatchPlan's node-id plan is laid
// out on its first apply, so one remapped before it is ever applied
// (every LTS level >= 1) never builds a layout it would throw away.
type applyPlan struct {
	planCore
	nOut int       // the output space, in nodes
	once sync.Once // runs place
	// Laid out by place: sharedNode in the output space, the per-rank
	// inner plans (nil for an idle rank), dst at shared from an apply's
	// lift to its merge, and the count of ranks with a spill.
	shared    []int32
	rankBatch []sem.BatchPlan
	lift      []float64
	messages  int64
}

// planCore is what a plan and its remaps share, all in node ids.
type planCore struct {
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
	built         []sem.BatchPlan // per-rank inner plans as built
}

type spillPair struct{ node, rank int32 }

// Elems implements sem.BatchPlan.
func (pl *applyPlan) Elems() []int32 { return pl.dp.Elems }

// DstNodes implements sem.BatchPlan: the output space, then the tail.
func (pl *applyPlan) DstNodes() int { return pl.nOut + len(pl.pairs) }

// Remap implements sem.BatchPlan: sub-plans remapped, the shared nodes
// renumbered through m.Out and the tail moved behind m.NOut.
func (pl *applyPlan) Remap(m sem.NodeMap) sem.BatchPlan {
	q := &applyPlan{planCore: pl.planCore, nOut: m.NOut}
	q.once.Do(func() { q.place(m) })
	return q
}

// layout lays a plan out before its apply: NewBatchPlan's plan in node
// ids, the first time. Every worker of the apply calls it.
func (pl *applyPlan) layout() { pl.once.Do(pl.placeNodeIDs) }

func (pl *applyPlan) placeNodeIDs() { pl.place(sem.NodeMap{NIn: pl.nOut, NOut: pl.nOut}) }

// buildPlan adds the shared-memory layout to a decomposition plan, in the
// node-id output space.
func buildPlan(p *PartitionedOperator, dp *decomp.Plan) *applyPlan {
	nn := p.inner.NumNodes()
	pl := &applyPlan{nOut: nn}
	pl.owner, pl.dp, pl.nc = p, dp, p.inner.Comps()
	pl.lead, pl.built = make([]int32, p.K+1), make([]sem.BatchPlan, p.K)
	for r, elems := range dp.Parts {
		if len(elems) > 0 {
			pl.built[r] = p.inner.NewBatchPlan(elems)
		}
	}
	// One merge of the ascending touched sets finds every node two ranks
	// touch, with its touchers in ascending order, and files its pairs
	// under the lowest: pairs come out by lowest toucher, node, rank.
	byLow := make([][]spillPair, p.K)
	head := make([]int, p.K)
	for {
		n, lo := int32(math.MaxInt32), -1
		for r, t := range dp.Touched {
			if head[r] < len(t) && t[head[r]] < n {
				n, lo = t[head[r]], r
			}
		}
		if lo < 0 {
			break
		}
		head[lo]++
		for r := lo + 1; r < p.K; r++ {
			if t := dp.Touched[r]; head[r] < len(t) && t[head[r]] == n {
				byLow[lo] = append(byLow[lo], spillPair{n, int32(r)})
				head[r]++
			}
		}
	}
	for lo, ps := range byLow {
		for s, sp := range ps {
			if s == 0 || sp.node != ps[s-1].node {
				pl.sharedNode = append(pl.sharedNode, sp.node)
				pl.slotOff = append(pl.slotOff, int32(len(pl.pairs)+s))
				pl.lead[lo+1]++
			}
		}
		pl.pairs = append(pl.pairs, ps...)
	}
	pl.slotOff = append(pl.slotOff, int32(len(pl.pairs)))
	for r := 0; r < p.K; r++ {
		pl.lead[r+1] += pl.lead[r]
	}
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
	pl.shared = decomp.Renumber([][]int32{pl.sharedNode}, m.Out)[0]
	pl.lift = make([]float64, len(pl.shared)*pl.nc)
	pl.rankBatch = make([]sem.BatchPlan, len(pl.built))
	for r, b := range pl.built {
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
