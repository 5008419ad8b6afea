package wave_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"golts/wave"
)

// failWriter fails every write after the first n bytes — the disk-full /
// short-write stand-in of the sink lifecycle regression tests.
type failWriter struct {
	n       int
	written int
	err     error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, w.err
	}
	w.written += len(p)
	return len(p), nil
}

// recordingCloser wraps a writer and records whether (and how often)
// Close was called, optionally failing it.
type recordingCloser struct {
	w        *failWriter
	closed   int
	closeErr error
}

func (c *recordingCloser) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *recordingCloser) Close() error                { c.closed++; return c.closeErr }

// sinkWithCloser builds a file-style CSV or JSON sink over the given
// closer through the FileSink machinery's inner constructors: CSVSink and
// JSONSink attach no closer, so the test reaches the lifecycle through a
// real file-free stand-in via the exported surface — a FileSink writing
// to a path is exercised separately.
func feedSink(t *testing.T, s wave.Sink, samples int) error {
	t.Helper()
	recs := []wave.Receiver{{Name: "st0"}, {Name: "st1"}}
	if err := s.Open(recs); err != nil {
		return err
	}
	for i := 0; i < samples; i++ {
		if err := s.Sample(float64(i), []float64{1.5, -2.25}); err != nil {
			return err
		}
	}
	return s.Flush()
}

// TestCSVSinkFlushSurfacesWriteError: a write failure at flush time (disk
// full) must surface from Flush, not be silently dropped — fatal for a
// server that reports job success off this error.
func TestCSVSinkFlushSurfacesWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	fw := &failWriter{n: 0, err: wantErr}
	err := feedSink(t, wave.CSVSink(fw), 3)
	if !errors.Is(err, wantErr) {
		t.Fatalf("Flush error = %v, want %v", err, wantErr)
	}
}

// TestFileSinkCSVWriteErrorStillCloses: when the CSV flush fails, the
// underlying file must still be closed (no fd leak), the write error must
// be reported, and a close error must be joined rather than masking it.
// Pre-fix, the early return on cw.Error() skipped Close entirely.
func TestFileSinkCSVWriteErrorStillCloses(t *testing.T) {
	writeErr := errors.New("short write")
	closeErr := errors.New("close failed")
	rc := &recordingCloser{w: &failWriter{n: 0, err: writeErr}, closeErr: closeErr}
	err := feedSink(t, wave.NewCSVCloserSinkForTest(rc), 3)
	if !errors.Is(err, writeErr) {
		t.Fatalf("Flush error %v does not wrap the write error", err)
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("Flush error %v does not join the close error", err)
	}
	if rc.closed != 1 {
		t.Fatalf("closer closed %d times, want exactly 1", rc.closed)
	}
}

// TestFileSinkJSONEncodeErrorStillCloses: a failing JSON encode must not
// leave the file open, and the encode error must not be masked by the
// close error (or vice versa).
func TestFileSinkJSONEncodeErrorStillCloses(t *testing.T) {
	writeErr := errors.New("disk full")
	closeErr := errors.New("close failed")
	rc := &recordingCloser{w: &failWriter{n: 0, err: writeErr}, closeErr: closeErr}
	err := feedSink(t, wave.NewJSONCloserSinkForTest(rc), 3)
	if !errors.Is(err, writeErr) {
		t.Fatalf("Flush error %v does not wrap the encode error", err)
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("Flush error %v does not join the close error", err)
	}
	if rc.closed != 1 {
		t.Fatalf("closer closed %d times, want exactly 1", rc.closed)
	}
}

// TestJSONSinkSuccessfulCloseErrorSurfaces: with a clean encode, a close
// failure must still surface.
func TestJSONSinkSuccessfulCloseErrorSurfaces(t *testing.T) {
	closeErr := errors.New("close failed")
	rc := &recordingCloser{w: &failWriter{n: 1 << 20, err: nil}, closeErr: closeErr}
	err := feedSink(t, wave.NewJSONCloserSinkForTest(rc), 3)
	if !errors.Is(err, closeErr) {
		t.Fatalf("Flush error = %v, want close error", err)
	}
}

// TestRowCSVSinkMatchesCSVSink: concatenating the rows delivered by
// RowCSVSink must reproduce the batch encoding of Seismograms.WriteCSV
// exactly — the invariant the job server's streaming rows endpoint relies
// on for bitwise-identical cold and cache-hit runs, and that CSVSink and
// FileSink inherit by writing the same rows.
func TestRowCSVSinkMatchesCSVSink(t *testing.T) {
	var rows bytes.Buffer
	rowSink := wave.RowCSVSink(func(row []byte) error {
		rows.Write(row)
		return nil
	})
	if err := feedSink(t, rowSink, 4); err != nil {
		t.Fatalf("feed: %v", err)
	}
	sg := wave.Seismograms{Times: []float64{0, 1, 2, 3}, Traces: []wave.Trace{
		{Name: "st0", Values: []float64{1.5, 1.5, 1.5, 1.5}},
		{Name: "st1", Values: []float64{-2.25, -2.25, -2.25, -2.25}},
	}}
	var whole bytes.Buffer
	if err := sg.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	if rows.String() != whole.String() {
		t.Fatalf("row stream diverges from WriteCSV:\nrows:  %q\nwhole: %q", rows.String(), whole.String())
	}
	if n := strings.Count(rows.String(), "\n"); n != 5 {
		t.Fatalf("expected 5 lines (header + 4 samples), got %d", n)
	}
}

// TestRowCSVSinkCallbackErrorAborts: a callback error must surface from
// Sample so Run aborts the cycle loop.
func TestRowCSVSinkCallbackErrorAborts(t *testing.T) {
	wantErr := errors.New("subscriber gone")
	n := 0
	s := wave.RowCSVSink(func([]byte) error {
		n++
		if n > 1 {
			return wantErr
		}
		return nil
	})
	err := feedSink(t, s, 3)
	if !errors.Is(err, wantErr) {
		t.Fatalf("Sample error = %v, want %v", err, wantErr)
	}
}
