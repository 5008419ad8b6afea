// Package tune is the adaptive load-balancing and auto-tuning subsystem
// layered over the engines' timing telemetry.
//
// Three cooperating pieces close the paper's loop between the static,
// cost-model-driven partition and what a run actually measures:
//
//   - Trace, a fixed-capacity ring buffer of per-cycle busy samples —
//     the telemetry substrate the other pieces read;
//   - Detector + Remap, the runtime rebalancer: a sustained-imbalance
//     detector over the per-rank busy signal and a deterministic LPT
//     part → rank remapper over measured per-part costs. Parts stay
//     fixed — only their placement on ranks moves — so a remap never
//     changes the ascending-part assembly order and the trajectory stays
//     bitwise identical (the distributed backend's PR 5 contract);
//   - Calibrate, the auto-tuner: short probe cycles over a small
//     candidate grid (worker counts locally, rank counts at fixed
//     Parts distributed), returning the fastest measured shape as the
//     Plan a caller (the wave facade, the waved job service) deploys
//     with.
//
// The package is deliberately engine-agnostic: it consumes plain
// slices and callbacks, never importing the engines, so internal/dist,
// internal/parallel and wave can all feed it.
package tune

// Sample is one cycle's telemetry: the per-worker (or per-rank) busy
// time of the cycle, in nanoseconds.
type Sample struct {
	Cycle int64
	Busy  []float64
}

// Trace is a fixed-capacity ring buffer of cycle samples. The zero
// value is unusable; make one with NewTrace. Not safe for concurrent
// use — the recording loop owns it.
type Trace struct {
	buf  []Sample
	n    int // samples held (≤ cap)
	next int // ring write position
}

// NewTrace returns a trace holding the most recent capacity samples.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Sample, capacity)}
}

// Record appends a sample, evicting the oldest once full. The Busy
// slice is copied into storage reused across evictions, so recording is
// allocation-free once the ring has wrapped with same-width samples.
func (t *Trace) Record(cycle int64, busy []float64) {
	s := &t.buf[t.next]
	s.Cycle = cycle
	if cap(s.Busy) >= len(busy) {
		s.Busy = s.Busy[:len(busy)]
	} else {
		s.Busy = make([]float64, len(busy))
	}
	copy(s.Busy, busy)
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
}

// Len returns the number of samples held.
func (t *Trace) Len() int { return t.n }

// Samples returns the held samples, oldest first. The returned slice
// and its Busy fields are freshly allocated copies.
func (t *Trace) Samples() []Sample {
	out := make([]Sample, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		s := t.buf[(start+i)%len(t.buf)]
		out = append(out, Sample{Cycle: s.Cycle, Busy: append([]float64(nil), s.Busy...)})
	}
	return out
}
