package wave

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"golts/internal/simio"
)

// Sink consumes the per-cycle receiver samples of a Run as they are
// produced. Open is called once before the first cycle with the resolved
// receiver list, Sample after every cycle, and Flush by Simulation.Close.
type Sink interface {
	Open(receivers []Receiver) error
	Sample(t float64, values []float64) error
	Flush() error
}

// Trace is one recorded seismogram.
type Trace struct {
	// Name labels the trace; X, Y, Z is the station position.
	Name    string
	X, Y, Z float64
	// Values holds one sample per cycle.
	Values []float64
}

// Peak returns the largest absolute sample and its time on the given time
// axis (the crude arrival picker of the legacy driver). Zeros when empty.
func (tr *Trace) Peak(times []float64) (amp, t float64) {
	for i, v := range tr.Values {
		if a := abs(v); a > amp {
			amp, t = a, times[i]
		}
	}
	return amp, t
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Seismograms is a collection of traces sharing one time axis.
type Seismograms struct {
	Times  []float64
	Traces []Trace
}

// SawWave reports whether some trace recorded the wave rather than the
// rounding tail of its onset (simio.SawWave). A comparison of sets that
// fail it is vacuous.
func (sg *Seismograms) SawWave() bool {
	for i := range sg.Traces {
		if simio.SawWave(sg.Traces[i].Values) {
			return true
		}
	}
	return false
}

// toSet converts to the simio representation, which owns the CSV/JSON
// encodings.
func (sg *Seismograms) toSet() (*simio.SeismogramSet, error) {
	var set simio.SeismogramSet
	set.Times = append([]float64(nil), sg.Times...)
	for _, tr := range sg.Traces {
		if err := set.AddTrace(tr.Name, tr.X, tr.Y, tr.Z, sg.Times, tr.Values); err != nil {
			return nil, err
		}
	}
	return &set, nil
}

// WriteCSV writes the set as a CSV table: a time column followed by one
// column per trace.
func (sg *Seismograms) WriteCSV(w io.Writer) error {
	set, err := sg.toSet()
	if err != nil {
		return err
	}
	return set.WriteCSV(w)
}

// WriteJSON writes the set as indented JSON.
func (sg *Seismograms) WriteJSON(w io.Writer) error {
	set, err := sg.toSet()
	if err != nil {
		return err
	}
	return set.WriteJSON(w)
}

// formatSample matches simio's CSV float encoding, so the streaming sink
// and the batch writer produce identical bytes.
func formatSample(v float64) string { return strconv.FormatFloat(v, 'g', 12, 64) }

// CSVSink returns a sink that streams seismograms to w as CSV — a header
// row at Open, then one row per cycle — in the same encoding as
// Seismograms.WriteCSV. Rows are buffered and the buffer is written out by
// Flush.
func CSVSink(w io.Writer) Sink { return bufferedCSV(w, nil) }

// bufferedCSV is a rowCSVSink whose rows go through a bufio.Writer on w;
// Flush writes the buffer out and then closes closer, if there is one.
func bufferedCSV(w io.Writer, closer io.Closer) *rowCSVSink {
	bw := bufio.NewWriter(w)
	s := &rowCSVSink{fn: func(row []byte) error {
		_, err := bw.Write(row)
		return err
	}, bw: bw, closer: closer}
	s.cw = csv.NewWriter(&s.buf)
	return s
}

// jsonSink accumulates the run and encodes it at Flush (JSON has no
// row-streaming form that matches the batch encoding).
type jsonSink struct {
	w      io.Writer
	closer io.Closer
	set    simio.SeismogramSet
}

// JSONSink returns a sink that writes the complete seismogram set to w as
// indented JSON when it is flushed.
func JSONSink(w io.Writer) Sink { return &jsonSink{w: w} }

func (s *jsonSink) Open(receivers []Receiver) error {
	s.set.Traces = make([]simio.Trace, len(receivers))
	for i, r := range receivers {
		s.set.Traces[i] = simio.Trace{Name: r.Name, X: r.X, Y: r.Y, Z: r.Z}
	}
	return nil
}

func (s *jsonSink) Sample(t float64, values []float64) error {
	if len(values) != len(s.set.Traces) {
		return fmt.Errorf("wave: sample has %d values for %d traces", len(values), len(s.set.Traces))
	}
	s.set.Times = append(s.set.Times, t)
	for i, v := range values {
		s.set.Traces[i].Values = append(s.set.Traces[i].Values, v)
	}
	return nil
}

func (s *jsonSink) Flush() error {
	// As with a CSV file: always close the file, and report the encode
	// error alongside (never masked by) any close error.
	err := s.set.WriteJSON(s.w)
	if s.closer != nil {
		err = errors.Join(err, s.closer.Close())
	}
	return err
}

// fileSink creates the file lazily at Open and selects the format by
// extension.
type fileSink struct {
	path  string
	inner Sink
}

// FileSink returns a sink that writes seismograms to path, selecting the
// format by file extension: ".json" writes indented JSON, anything else
// CSV. The file is created when the first Run opens the sink.
func FileSink(path string) Sink { return &fileSink{path: path} }

func (s *fileSink) Open(receivers []Receiver) error {
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	if filepath.Ext(s.path) == ".json" {
		s.inner = &jsonSink{w: f, closer: f}
	} else {
		s.inner = bufferedCSV(f, f)
	}
	return s.inner.Open(receivers)
}

func (s *fileSink) Sample(t float64, values []float64) error {
	if s.inner == nil {
		return errors.New("wave: FileSink not opened")
	}
	return s.inner.Sample(t, values)
}

func (s *fileSink) Flush() error {
	if s.inner == nil {
		return nil
	}
	return s.inner.Flush()
}

// rowCSVSink encodes each sample as one CSV row and hands the encoded
// bytes to a callback immediately — no buffering between cycles. CSVSink
// and FileSink's CSV branch set bw (and closer) to buffer the rows into a
// writer instead.
type rowCSVSink struct {
	fn     func(row []byte) error
	buf    bytes.Buffer
	cw     *csv.Writer
	row    []string
	bw     *bufio.Writer
	closer io.Closer
}

// RowCSVSink returns a sink that delivers seismogram output row by row:
// fn receives the encoded header line at Open and one encoded sample line
// per cycle, each including its trailing newline, in exactly the byte
// encoding of CSVSink — concatenating every row reproduces the CSVSink
// file bitwise. The slice passed to fn is reused; callers that retain
// rows must copy them. This is the streaming seam of the job server: rows
// can be forwarded to subscribers while the simulation is still running.
func RowCSVSink(fn func(row []byte) error) Sink {
	s := &rowCSVSink{fn: fn}
	s.cw = csv.NewWriter(&s.buf)
	return s
}

func (s *rowCSVSink) Open(receivers []Receiver) error {
	if s.fn == nil {
		return errors.New("wave: RowCSVSink with nil callback")
	}
	header := make([]string, len(receivers)+1)
	header[0] = "time"
	for i, r := range receivers {
		header[i+1] = r.Name
	}
	s.row = make([]string, len(header))
	return s.emit(header)
}

func (s *rowCSVSink) Sample(t float64, values []float64) error {
	if len(values)+1 != len(s.row) {
		return fmt.Errorf("wave: sample has %d values for %d columns", len(values), len(s.row)-1)
	}
	s.row[0] = formatSample(t)
	for i, v := range values {
		s.row[i+1] = formatSample(v)
	}
	return s.emit(s.row)
}

func (s *rowCSVSink) Flush() error {
	if s.bw == nil {
		return nil
	}
	// Surface the write error AND close the underlying file: a short write
	// (disk full) must never leave the file open, and a close failure must
	// never mask the write error. errors.Join keeps both.
	err := s.bw.Flush()
	if s.closer != nil {
		err = errors.Join(err, s.closer.Close())
	}
	return err
}

func (s *rowCSVSink) emit(fields []string) error {
	s.buf.Reset()
	if err := s.cw.Write(fields); err != nil {
		return err
	}
	s.cw.Flush()
	if err := s.cw.Error(); err != nil {
		return err
	}
	return s.fn(s.buf.Bytes())
}
