package wave

import "io"

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
