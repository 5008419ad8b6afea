package wave

import (
	"io"

	"golts/internal/sem"
	"golts/internal/solver"
)

// Test-only constructors: the closer-attached sink lifecycles are
// normally reachable only through FileSink's lazily-created *os.File, so
// the error-path regression tests build them over an arbitrary
// WriteCloser here.

func NewCSVCloserSinkForTest(wc io.WriteCloser) Sink {
	return bufferedCSV(wc, wc)
}

func NewJSONCloserSinkForTest(wc io.WriteCloser) Sink {
	return &jsonSink{w: wc, closer: wc}
}

// CacheOperator caches op under key in c (a hit keeps the resident one)
// and returns op wrapped as getOperator wraps a cached operator, so that
// its batch plans are cached owned by it.
func CacheOperator(c *ArtifactCache, key string, op solver.Operator) sem.BatchKernel {
	c.memo.Get(key, func() (any, error) { return op, nil })
	return shareOperator(c.memo, key, op)
}
