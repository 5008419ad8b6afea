// Package parallel is a shared-memory parallel execution engine for the
// wave operators: K persistent rank goroutines (one per GOMAXPROCS slot by
// default) each own a subset of the elements from any partitioner — the
// same owner-computes decomposition as the paper's MPI parallelization
// (§III), realised with threads instead of processes.
//
// The package wraps any sem.BatchKernel in a PartitionedOperator that
// executes every stiffness application in two concurrent phases:
//
//  1. Compute: each active rank applies the stiffness of its owned ∩
//     requested elements — one fused batch over the rank's own sub-plan —
//     into a private full-length accumulation buffer. Ranks run
//     concurrently; no shared writes.
//  2. Merge: the global node-id space is sharded into contiguous ranges
//     (balanced by touched-node volume) and the shards are reduced
//     concurrently — each shard adds the rank contributions for its node
//     range into dst in ascending rank order, then zeroes the private
//     buffers. Because every node belongs to exactly one shard and ranks
//     are always summed in the same order, the result is bitwise
//     reproducible from run to run for a fixed (partition, K).
//
// Each element list's execution plan — the per-rank element split, the
// per-rank sorted touched node lists, the merge shard boundaries and the
// per-rank inner batch plans — is built by NewBatchPlan and held by the
// stepper that applies it: the global stepper's all-elements plan and
// one plan per LTS level, all built in the stepper's constructor. The
// per-level plans double as the activation masks of the paper's Fig. 1
// schedule: an LTS substep only wakes the ranks that own active elements
// at that level; everyone else stays parked on their channel.
//
// Both the global Newmark stepper and the multi-level LTS scheme run
// *unchanged* on top, which demonstrates that the LTS recursion
// parallelises purely through its per-substep, per-level stiffness
// applications — exactly the property the paper's partitioning work
// load-balances. Stats keeps the message/volume accounting of the MPI
// analogy: one "message" per active rank per apply, volume in touched
// nodes.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"golts/internal/decomp"
	"golts/internal/sem"
)

// Stats accumulates communication accounting across applies.
type Stats struct {
	// Applies counts AddKuBatch applies.
	Applies int64
	// Messages counts per-apply active-rank contributions carrying nonzero
	// data (the shared-memory analogue of MPI messages).
	Messages int64
	// Volume counts node-values exchanged (the shared-memory analogue of
	// MPI volume).
	Volume int64
}

// PartitionedOperator distributes AddKu over persistent rank goroutines.
// It implements sem.BatchKernel and is safe for the sequential call
// patterns of the steppers (one apply at a time); the parallelism is
// internal.
type PartitionedOperator struct {
	inner   sem.BatchKernel
	K       int
	part    []int32
	workers []*rankWorker
	wg      sync.WaitGroup // worker goroutine lifetime
	phase   sync.WaitGroup // per-phase barrier (compute, then merge)
	closed  bool

	// bs is the workspace AddKu and AddKuScratch hand to AddKuBatch, whose
	// K == 1 delegation is the only reader (for K > 1 the rank workers own
	// theirs). The steppers bring their own to AddKuBatch.
	bs sem.BatchScratch

	// telemetry gates the per-worker compute-time counters (read by the
	// workers on every compute task, so atomic rather than a plain bool).
	telemetry atomic.Bool

	mu    sync.Mutex
	stats Stats
}

// SetTelemetry enables or disables per-worker compute wall-time
// accounting. Off by default; when off the compute path performs a
// single atomic load and no clock reads.
func (p *PartitionedOperator) SetTelemetry(on bool) { p.telemetry.Store(on) }

// WorkerBusyNanos returns each worker's cumulative compute wall time,
// indexed by worker id. All zeros unless SetTelemetry(true) was called.
func (p *PartitionedOperator) WorkerBusyNanos() []int64 {
	out := make([]int64, p.K)
	for r, w := range p.workers {
		out[r] = w.busy.Load()
	}
	return out
}

// DefaultWorkers returns the default rank count: one per GOMAXPROCS slot.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// NewOperator wraps inner so that stiffness applications execute on K rank
// goroutines according to the element partition (part[e] = owning rank).
func NewOperator(inner sem.BatchKernel, part []int32, k int) (*PartitionedOperator, error) {
	if k < 1 {
		return nil, fmt.Errorf("parallel: K must be >= 1, got %d", k)
	}
	if len(part) != inner.NumElements() {
		return nil, fmt.Errorf("parallel: partition has %d entries for %d elements", len(part), inner.NumElements())
	}
	p := &PartitionedOperator{inner: inner, K: k, part: part}
	for e, r := range part {
		if r < 0 || int(r) >= k {
			return nil, fmt.Errorf("parallel: element %d in part %d (K=%d)", e, r, k)
		}
	}
	nd := inner.NDof()
	p.workers = make([]*rankWorker, k)
	for r := 0; r < k; r++ {
		w := &rankWorker{
			op:  inner,
			ch:  make(chan task, 1),
			acc: make([]float64, nd),
		}
		p.workers[r] = w
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.serve(p)
		}()
	}
	return p, nil
}

// AddKu implements sem.Operator for callers without a plan (one-shot
// diagnostics, tests): the element list's plan is built, at O(len) cost,
// and applied through AddKuBatch.
func (p *PartitionedOperator) AddKu(dst, u []float64, elems []int32) {
	p.AddKuBatch(dst, u, p.NewBatchPlan(elems), &p.bs)
}

// AddKuScratch implements sem.Operator; the per-element scratch is unused
// (the batched kernel runs on BatchScratch workspaces), so callers may
// pass nil.
func (p *PartitionedOperator) AddKuScratch(dst, u []float64, elems []int32, _ *sem.Scratch) {
	p.AddKu(dst, u, elems)
}

// account applies one apply's communication-accounting deltas.
func (p *PartitionedOperator) account(plan *applyPlan) {
	p.mu.Lock()
	p.stats.Applies++
	p.stats.Messages += plan.dp.Messages
	p.stats.Volume += plan.dp.Volume
	p.mu.Unlock()
}

// NewBatchPlan implements sem.BatchKernel: the element list's execution
// plan — ownership split, merge shards and one inner BatchPlan per active
// rank — built afresh; the caller holds it for as long as the list lives.
func (p *PartitionedOperator) NewBatchPlan(elems []int32) sem.BatchPlan {
	return buildMerge(p, decomp.Build(p.inner, p.part, p.K, elems))
}

// AddKuBatch implements sem.BatchKernel with the two-phase protocol of
// the package comment.
//
// Phase 1 — compute: wake only the ranks owning active elements (the
// per-level activation mask); each runs its owned slice as one fused
// batch on its own BatchScratch, accumulating into its private buffer —
// lane for lane the sequential kernel.
//
// Phase 2 — merge: deterministic parallel reduction over node-range
// shards. Each shard sums rank contributions in ascending rank order and
// restores the accumulation buffers' all-zero invariant.
//
// For K = 1 the apply delegates straight to the inner operator's batched
// kernel with bs — bitwise the sequential accumulation, without the
// dispatch/merge machinery — so the 1-worker engine is an honest speedup
// baseline; the Stats accounting is identical.
func (p *PartitionedOperator) AddKuBatch(dst, u []float64, plan sem.BatchPlan, bs *sem.BatchScratch) {
	pl, ok := plan.(*applyPlan)
	if !ok {
		panic(fmt.Sprintf("parallel: AddKuBatch: foreign plan type %T", plan))
	}
	if pl.owner != p {
		panic("parallel: AddKuBatch: plan built by a different operator")
	}
	if p.K == 1 {
		if bp := pl.rankBatch[0]; bp != nil { // nil only for an empty list
			p.inner.AddKuBatch(dst, u, bp, bs)
		}
		p.account(pl)
		return
	}
	p.phase.Add(len(pl.dp.Active))
	for _, r := range pl.dp.Active {
		p.workers[r].ch <- task{kind: taskCompute, bplan: pl.rankBatch[r], u: u, n: len(dst)}
	}
	p.phase.Wait()
	p.phase.Add(len(pl.activeShards))
	for _, m := range pl.activeShards {
		p.workers[m].ch <- task{kind: taskMerge, plan: pl, shard: m, dst: dst}
	}
	p.phase.Wait()
	p.account(pl)
}

// Close shuts down the rank goroutines. The operator must not be used
// afterwards.
func (p *PartitionedOperator) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, w := range p.workers {
		close(w.ch)
	}
	p.wg.Wait()
}

// Stats returns accumulated communication counters.
func (p *PartitionedOperator) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// NumNodes implements sem.Operator.
func (p *PartitionedOperator) NumNodes() int { return p.inner.NumNodes() }

// Comps implements sem.Operator.
func (p *PartitionedOperator) Comps() int { return p.inner.Comps() }

// NDof implements sem.Operator.
func (p *PartitionedOperator) NDof() int { return p.inner.NDof() }

// NumElements implements sem.Operator.
func (p *PartitionedOperator) NumElements() int { return p.inner.NumElements() }

// MInv implements sem.Operator.
func (p *PartitionedOperator) MInv() []float64 { return p.inner.MInv() }

// ElemNodes implements sem.Operator.
func (p *PartitionedOperator) ElemNodes(e int, buf []int32) []int32 {
	return p.inner.ElemNodes(e, buf)
}

// ConnTable forwards the inner operator's flat connectivity table
// (implements sem.Connectivity); it returns (nil, 0) when the inner
// operator has none, which callers treat as "fall back to ElemNodes".
func (p *PartitionedOperator) ConnTable() ([]int32, int) { return sem.ConnOf(p.inner) }

var (
	_ sem.Connectivity = (*PartitionedOperator)(nil)
	_ sem.BatchKernel  = (*PartitionedOperator)(nil)
)
