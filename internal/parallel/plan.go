package parallel

import (
	"sort"
	"sync"

	"golts/internal/decomp"
	"golts/internal/sem"
)

// applyPlan is the cached execution layout for one element list: the
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
	shardIdx     [][]int32
	activeShards []int
	// rankBatch holds one inner-operator BatchPlan per active rank (nil
	// entries for idle ranks): the per-rank half of the "BatchPlan per LTS
	// level, per rank" layout. A compute task carries its rank's entry and
	// runs the owned slice as one fused batch on the worker's own
	// BatchScratch. Built on the first PartitionedOperator.NewBatchPlan
	// of the list (nil until then).
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

// planCache maps decomp plans (content-validated by decomp.Cache) to the
// shared-memory merge state layered on top of them.
type planCache struct {
	cache *decomp.Cache
	mu    sync.Mutex
	ext   map[*decomp.Plan]*applyPlan
}

func (c *planCache) init(p *PartitionedOperator) {
	c.cache = decomp.NewCache(p.inner, p.part, p.K)
	c.ext = make(map[*decomp.Plan]*applyPlan)
}

func (c *planCache) lookup(p *PartitionedOperator, elems []int32) *applyPlan {
	dp, flushed := c.cache.Lookup(elems)
	c.mu.Lock()
	defer c.mu.Unlock()
	if flushed {
		c.ext = make(map[*decomp.Plan]*applyPlan)
	}
	if pl, ok := c.ext[dp]; ok {
		return pl
	}
	pl := buildMerge(p, dp)
	c.ext[dp] = pl
	return pl
}

// buildMerge computes the shared-memory merge layout on top of a
// decomposition plan: contiguous node-id shard ranges balanced by
// touched volume. Boundaries are node-id values taken at volume
// quantiles of the merged touched multiset; per-rank boundary indices
// follow by binary search.
func buildMerge(p *PartitionedOperator, dp *decomp.Plan) *applyPlan {
	k := p.K
	pl := &applyPlan{owner: p, dp: dp, nc: p.inner.Comps(), touched: dp.Touched, shardIdx: make([][]int32, k)}
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
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for m := 1; m < k; m++ {
			bounds[m] = all[m*len(all)/k]
			if bounds[m] < bounds[m-1] {
				bounds[m] = bounds[m-1]
			}
		}
	}
	shardWork := make([]int, k)
	for r := 0; r < k; r++ {
		idx := make([]int32, k+1)
		t := dp.Touched[r]
		for m := 1; m <= k; m++ {
			b := bounds[m]
			idx[m] = int32(sort.Search(len(t), func(i int) bool { return t[i] >= b }))
		}
		for m := 0; m < k; m++ {
			shardWork[m] += int(idx[m+1] - idx[m])
		}
		pl.shardIdx[r] = idx
	}
	for m := 0; m < k; m++ {
		if shardWork[m] > 0 {
			pl.activeShards = append(pl.activeShards, m)
		}
	}
	return pl
}
