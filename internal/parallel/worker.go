package parallel

import (
	"sync/atomic"
	"time"

	"golts/internal/sem"
)

// taskKind selects the phase a dispatched task belongs to.
type taskKind uint8

const (
	taskCompute taskKind = iota
	taskMerge
)

// task is one unit of work handed to a rank worker: either "apply your
// owned slice of the plan's elements as one fused batch" or "reduce one
// merge shard".
type task struct {
	kind  taskKind
	plan  *applyPlan
	bplan sem.BatchPlan // compute: the rank's batch plan
	u     []float64     // compute: shared read-only input field
	n     int           // compute: len(dst), the prefix of the private buffer the plan accumulates into
	dst   []float64     // merge: shared output (shards write disjoint ranges)
	shard int           // merge: shard index
}

// rankWorker is one persistent goroutine owning a private accumulation
// buffer and its own BatchScratch (one per worker serves every level's
// plan, since a worker executes one task at a time and the arena grows to
// the largest request). The buffer is all-zero between applies: the
// compute phase writes the rank's contributions, the merge phase drains
// and re-zeroes exactly the touched entries. The scratch warms on the
// first apply, after which the compute phase is allocation-free.
type rankWorker struct {
	op   sem.BatchKernel
	ch   chan task
	acc  []float64
	bscr sem.BatchScratch
	busy atomic.Int64 // cumulative compute nanos (telemetry only)
}

// serve processes tasks until the channel closes. The master's
// phase.Wait() between the compute and merge dispatches is the barrier
// that makes every rank's compute writes visible to every merge reader.
func (w *rankWorker) serve(p *PartitionedOperator) {
	for t := range w.ch {
		switch t.kind {
		case taskCompute:
			var start time.Time
			tel := p.telemetry.Load()
			if tel {
				start = time.Now()
			}
			w.op.AddKuBatch(w.acc[:t.n], t.u, t.bplan, &w.bscr)
			if tel {
				w.busy.Add(time.Since(start).Nanoseconds())
			}
		case taskMerge:
			t.plan.mergeShard(t.shard, t.dst, p.workers)
		}
		p.phase.Done()
	}
}

// mergeShard reduces one contiguous node-id range: for every rank in
// ascending order, add its contributions for the shard's slice of the
// rank's touched list into dst and zero the private buffer. Shards
// partition the node space, so writes to dst and to each acc are disjoint
// across concurrent shards, and the fixed rank order makes the floating-
// point sum per node deterministic.
func (pl *applyPlan) mergeShard(m int, dst []float64, workers []*rankWorker) {
	nc := pl.nc
	for r, touched := range pl.touched {
		lo, hi := pl.shardIdx[r][m], pl.shardIdx[r][m+1]
		if lo == hi {
			continue
		}
		acc := workers[r].acc
		for _, n := range touched[lo:hi] {
			base := int(n) * nc
			for c := 0; c < nc; c++ {
				dst[base+c] += acc[base+c]
				acc[base+c] = 0
			}
		}
	}
}
