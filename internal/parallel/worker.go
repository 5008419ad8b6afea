package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"golts/internal/sem"
)

// rankWorker is one worker's state: its own BatchScratch, which serves
// every plan and warms on the first apply, and its telemetry counter. It
// holds no field-sized buffer: a worker accumulates into the caller's dst
// and its spill tail. Worker 0 is the goroutine that calls Run; workers
// 1..K-1 each have a persistent goroutine that parks on ch between Runs.
type rankWorker struct {
	ch   chan func(w int) // nil for worker 0
	bscr sem.BatchScratch
	busy atomic.Int64 // cumulative compute nanos (telemetry only)
}

// serve runs every function Run hands worker w, each followed by the
// barrier that ends the Run, until the channel closes.
func (rw *rankWorker) serve(p *PartitionedOperator, w int) {
	defer p.wg.Done()
	for f := range rw.ch {
		f(w)
		p.bar.wait()
	}
}

// barrier is a reusable rendezvous of n goroutines: the last to arrive
// releases the others, and everything a goroutine wrote before it
// arrived is visible to every goroutine that leaves. A waiter spins
// first — the common case, each worker on its own CPU and all arriving
// within microseconds — then yields its CPU a bounded number of times,
// then parks on the condition variable, so K workers on fewer CPUs still
// make progress instead of spinning against the ones they wait for.
type barrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
	mu    sync.Mutex
	cond  sync.Cond
}

// Spin budget of a barrier waiter: spinLoads loads, then up to spinYields
// yielding polls, then park. A park costs a wake-up, which makes the woken
// worker late at the next barrier too; on 2 CPUs the yield phase cut
// parks per 4-level elastic cycle from ≈ 43 to ≈ 3.
const (
	spinLoads  = 64
	spinYields = 4000
)

func (b *barrier) wait() {
	if b.n == 1 {
		return
	}
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		// Nobody can arrive at the next round before gen moves, so the
		// reset cannot lose an arrival.
		b.count.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := 0; i < spinLoads+spinYields; i++ {
		if b.gen.Load() != g {
			return
		}
		if i >= spinLoads {
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for b.gen.Load() == g {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
