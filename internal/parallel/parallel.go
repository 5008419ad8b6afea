// Package parallel is a shared-memory parallel execution engine for the
// wave operators: K workers — the goroutine that calls Run as worker 0
// and K-1 persistent goroutines — each own a subset of the elements from
// any partitioner, the same owner-computes decomposition as the paper's
// MPI parallelization (§III), realised with threads instead of processes.
//
// The package wraps any sem.BatchKernel in a PartitionedOperator. Its
// unit of parallel work is a Run: every worker executes the same function
// on its own share of the data (SPMD), meeting the others at Barrier, and
// a Run costs one wake-up of the parked workers however many barriers it
// crosses. A stepper that knows this (package lts) runs its whole cycle
// as one Run; inside it, each stiffness application is the collective
// AddKuShare, a two-phase protocol:
//
//  1. Compute: worker w lifts dst off the nodes it leads (touches as the
//     lowest worker) that a higher worker touches too, leaving +0, then
//     applies its owned ∩ requested elements — one fused batch over its
//     own sub-plan — straight into dst where it leads a node, else into
//     its slot of a spill tail behind the caller's index space
//     (sem.BatchPlan.DstNodes). No two workers write one index. Barrier.
//  2. Merge, only for a plan with a spill: worker w folds the shared
//     nodes it leads — lifted dst, its terms, then every slot in ascending
//     worker order — and re-zeroes the slots. Barrier.
//
// So the bits are fixed by (partition, K) and, on the +0 dst every stepper
// provides, equal to adding K private zero buffers to dst; on a nonzero
// dst a node one worker touches gets the K = 1 rule (dist.Operator's
// contract). The compute writes dst at once: no worker may enter an apply
// while another still uses dst (a caller inside a Run adds a Barrier).
//
// AddKuBatch, for steppers that apply one list at a time (package
// newmark, diagnostics), is Run(AddKuShare): there is one apply
// implementation.
//
// Each element list's execution plan — the per-rank element split, the
// spill lists and the per-rank inner batch plans — is built by
// NewBatchPlan and held by the stepper that applies it: the global
// stepper's all-elements plan and one plan per LTS level, all built in the
// stepper's constructor. A rank that owns no element of a level's list
// computes nothing in that apply and still meets its barriers.
//
// Stats keeps the accounting of the MPI analogy in dist.Stats' units: one
// "message" per rank with a spill per apply, volume in spilled nodes.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"golts/internal/decomp"
	"golts/internal/sem"
)

// Stats accumulates communication accounting across applies.
type Stats struct {
	// Applies counts collective stiffness applies.
	Applies int64
	// Messages counts (rank, apply) pairs with a nonzero spill (the
	// shared-memory analogue of MPI messages).
	Messages int64
	// Volume counts the spilled nodes the merge moves (the shared-memory
	// analogue of MPI volume).
	Volume int64
}

// PartitionedOperator distributes AddKu over K workers. It implements
// sem.BatchKernel and is safe for the sequential call patterns of the
// steppers (one Run or one apply at a time); the parallelism is internal.
type PartitionedOperator struct {
	inner   sem.BatchKernel
	K       int
	part    []int32
	workers []*rankWorker
	wg      sync.WaitGroup // worker goroutine lifetime
	bar     barrier
	closed  bool

	// AddKuBatch's arguments, read by batchFn — the Run function bound once
	// in NewOperator, so that an apply allocates nothing.
	bDst, bU []float64
	bPlan    sem.BatchPlan
	batchFn  func(w int)

	// telemetry gates the per-worker compute-time counters (read by the
	// workers on every compute share, so atomic rather than a plain bool).
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

// NewOperator wraps inner so that stiffness applications execute on K
// workers according to the element partition (part[e] = owning rank).
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
	p.bar.n, p.bar.cond.L = int32(k), &p.bar.mu
	p.batchFn = func(w int) { p.AddKuShare(w, p.bDst, p.bU, p.bPlan) }
	p.workers = make([]*rankWorker, k)
	for w := range p.workers {
		rw := &rankWorker{}
		p.workers[w] = rw
		if w == 0 {
			continue
		}
		rw.ch = make(chan func(int), 1)
		p.wg.Add(1)
		go rw.serve(p, w)
	}
	return p, nil
}

// Workers returns K, the number of workers a Run executes on.
func (p *PartitionedOperator) Workers() int { return p.K }

// Run executes f(0) on the calling goroutine and f(1..K-1) on the
// workers, and returns when all K calls have returned: one wake-up of the
// parked workers per Run. The calls meet at Barrier and join collective
// applies through AddKuShare; they must not call AddKuBatch, AddKu, Run
// or Close, which would wait for workers that are busy running f.
func (p *PartitionedOperator) Run(f func(w int)) {
	for _, rw := range p.workers[1:] {
		rw.ch <- f
	}
	f(0)
	p.bar.wait()
}

// Barrier blocks until all K workers of the current Run have reached it;
// every write made before it is visible to every worker after it. For
// calls inside a Run only.
func (p *PartitionedOperator) Barrier() { p.bar.wait() }

// AddKu implements sem.Operator for callers without a plan (one-shot
// diagnostics, tests): the element list's plan is built, at O(len) cost,
// and applied through AddKuBatch to a copy of dst with its spill tail.
func (p *PartitionedOperator) AddKu(dst, u []float64, elems []int32) {
	plan := p.NewBatchPlan(elems)
	buf := make([]float64, plan.DstNodes()*p.inner.Comps())
	copy(buf, dst)
	p.AddKuBatch(buf, u, plan, nil)
	copy(dst, buf)
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
	p.stats.Messages += plan.messages
	p.stats.Volume += int64(plan.DstNodes() - plan.nOut)
	p.mu.Unlock()
}

// NewBatchPlan implements sem.BatchKernel: the element list's execution
// plan — ownership split, spill lists and one inner BatchPlan per active
// rank — built afresh; the caller holds it for as long as the list lives.
func (p *PartitionedOperator) NewBatchPlan(elems []int32) sem.BatchPlan {
	return buildPlan(p, decomp.Build(p.inner, p.part, p.K, elems))
}

// AddKuBatch implements sem.BatchKernel: one collective apply on all
// workers, Run(AddKuShare). bs is unused (each worker owns its
// workspace). It must not be called from inside a Run.
func (p *PartitionedOperator) AddKuBatch(dst, u []float64, plan sem.BatchPlan, _ *sem.BatchScratch) {
	p.bDst, p.bU, p.bPlan = dst, u, plan
	p.Run(p.batchFn)
	p.bDst, p.bU, p.bPlan = nil, nil, nil
}

// AddKuShare is worker w's part of the collective apply dst += K·u over
// the plan's elements, the two-phase protocol of the package comment;
// every worker of a Run calls it with the same arguments and dst sized by
// the plan's DstNodes, and it returns when dst is complete. Worker w's
// compute runs its owned slice as one fused batch, lane for lane the
// sequential kernel. For K = 1 it is the inner operator's batched kernel
// straight into dst, so the 1-worker engine is an honest speedup baseline.
func (p *PartitionedOperator) AddKuShare(w int, dst, u []float64, plan sem.BatchPlan) {
	pl, ok := plan.(*applyPlan)
	if !ok {
		panic(fmt.Sprintf("parallel: AddKuShare: foreign plan type %T", plan))
	}
	if pl.owner != p {
		panic("parallel: AddKuShare: plan built by a different operator")
	}
	if w == 0 {
		p.account(pl)
	}
	rw := p.workers[w]
	if p.K == 1 {
		if bp := pl.rankBatch[0]; bp != nil { // nil only for an empty list
			p.inner.AddKuBatch(dst, u, bp, &rw.bscr)
		}
		return
	}
	pl.liftShare(w, dst)
	if bp := pl.rankBatch[w]; bp != nil {
		var start time.Time
		tel := p.telemetry.Load()
		if tel {
			start = time.Now()
		}
		p.inner.AddKuBatch(dst[:bp.DstNodes()*pl.nc], u, bp, &rw.bscr)
		if tel {
			rw.busy.Add(time.Since(start).Nanoseconds())
		}
	}
	p.bar.wait()
	if len(pl.shared) > 0 {
		pl.mergeShard(w, dst)
		p.bar.wait()
	}
}

// Close shuts down the worker goroutines. The operator must not be used
// afterwards.
func (p *PartitionedOperator) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, rw := range p.workers[1:] {
		close(rw.ch)
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
