package sem

import "sync"

// Scratch is the reusable per-call workspace of the per-element
// AddKuScratch kernels: one flat float64 arena that each kernel carves
// into its element-local buffers (gathered displacements, stress-flux
// terms). A warm Scratch makes AddKuScratch perform zero heap allocations.
//
// A Scratch may be shared across operators (it grows to the largest
// request) but not across goroutines.
type Scratch struct {
	buf []float64
}

// floats returns a slice of length n backed by the arena, growing it when
// needed. The contents are unspecified: kernels must fully overwrite what
// they read.
func (s *Scratch) floats(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

// scratchPool backs the plain AddKu entry points, so callers that do not
// manage a Scratch themselves still hit warm buffers after the first few
// calls.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}
