package parallel

import (
	"slices"

	"golts/internal/decomp"
	"golts/internal/sem"
)

// applyPlan is the execution layout for one element list: the
// shared owner-computes decomposition (per-rank ownership split — the
// activation mask — and per-rank sorted touched-node lists, built by
// package decomp) plus the backend-specific state of the shared-memory
// merge: the node-range shard boundaries of the parallel reduction and
// the per-rank inner batch plans. It is the PartitionedOperator's
// sem.BatchPlan.
type applyPlan struct {
	owner *PartitionedOperator
	dp    *decomp.Plan
	nc    int // component count, cached for the merge inner loop
	// touched[r] lists where rank r's contributions sit in the plan's
	// output space, which dst and a prefix of the private buffers share:
	// dp.Touched[r], or its image under a Remap's Out.
	touched [][]int32
	// shardIdx[r] holds K+1 boundaries into touched[r]: shard m covers
	// touched[r][shardIdx[r][m]:shardIdx[r][m+1]].
	shardIdx [][]int32
	// rankBatch holds one inner-operator BatchPlan per active rank (nil
	// entries for idle ranks): the per-rank half of the "BatchPlan per LTS
	// level, per rank" layout. Worker w's compute share runs entry w as one
	// fused batch on the worker's own BatchScratch.
	rankBatch []sem.BatchPlan
}

// Elems implements sem.BatchPlan.
func (pl *applyPlan) Elems() []int32 { return pl.dp.Elems }

// Remap implements sem.BatchPlan: sub-plans remapped, merge lists renumbered
// through m.Out; shard boundaries are positions in those lists and stay.
func (pl *applyPlan) Remap(m sem.NodeMap) sem.BatchPlan {
	q := *pl
	q.rankBatch = make([]sem.BatchPlan, len(pl.rankBatch))
	for r, b := range pl.rankBatch {
		if b != nil {
			q.rankBatch[r] = b.Remap(m)
		}
	}
	q.touched = decomp.Renumber(pl.dp.Touched, m.Out)
	return &q
}

// buildMerge computes the shared-memory merge layout on top of a
// decomposition plan: contiguous node-id shard ranges balanced by
// touched volume, and the inner batch plan of every active rank.
// Boundaries are node-id values taken at volume quantiles of the merged
// touched multiset; per-rank boundary indices follow by binary search.
func buildMerge(p *PartitionedOperator, dp *decomp.Plan) *applyPlan {
	k := p.K
	pl := &applyPlan{owner: p, dp: dp, nc: p.inner.Comps(), touched: dp.Touched,
		shardIdx: make([][]int32, k), rankBatch: make([]sem.BatchPlan, k)}
	for _, r := range dp.Active {
		pl.rankBatch[r] = p.inner.NewBatchPlan(dp.Parts[r])
	}
	total := 0
	for _, t := range dp.Touched {
		total += len(t)
	}
	bounds := make([]int32, k+1)
	bounds[k] = int32(p.inner.NumNodes())
	if total > 0 && k > 1 {
		all := make([]int32, 0, total)
		for _, t := range dp.Touched {
			all = append(all, t...)
		}
		slices.Sort(all)
		for m := 1; m < k; m++ {
			bounds[m] = all[m*len(all)/k]
			if bounds[m] < bounds[m-1] {
				bounds[m] = bounds[m-1]
			}
		}
	}
	for r := 0; r < k; r++ {
		idx := make([]int32, k+1)
		t := dp.Touched[r]
		for m := 1; m <= k; m++ {
			i, _ := slices.BinarySearch(t, bounds[m])
			idx[m] = int32(i)
		}
		pl.shardIdx[r] = idx
	}
	return pl
}
