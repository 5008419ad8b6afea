package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func sampleState() *StepperState {
	return &StepperState{
		Scheme:      "lts",
		T:           0.1 + 0.2, // a value with a non-trivial bit pattern
		N:           7,
		Started:     true,
		U:           []float64{1, math.Pi, -0.0, math.Nextafter(1, 2)},
		V:           []float64{-3, 1e-300, 4.5e17, math.Inf(-1)},
		ElemApplies: 1234,
		PerLevel:    []int64{10, 20, 30},
		Cycles:      7,
	}
}

// fullFrame is st's full state frame, of comps components per node.
func fullFrame(t testing.TB, st *StepperState, comps int) []byte {
	var b bytes.Buffer
	if _, err := WriteFrame(&b, st, len(st.U), comps, nil, true); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// zeroState is an all-zero state of ndof values for frames to land on.
func zeroState(ndof int) *StepperState {
	return &StepperState{U: make([]float64, ndof), V: make([]float64, ndof)}
}

func TestRoundTrip(t *testing.T) {
	f := NewFile()
	meta := &Meta{ConfigKey: "ckpt|trench|0.02", Cycle: 7}
	f.PutMeta(meta)
	st := sampleState()
	f.Add("state", fullFrame(t, st, 1))
	f.Add("extra", []byte("opaque"))

	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := g.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if *m2 != *meta {
		t.Fatalf("meta round trip: got %+v want %+v", m2, meta)
	}
	frames, err := g.Frames()
	if err != nil || len(frames) != 1 {
		t.Fatalf("state section: %d frames, %v", len(frames), err)
	}
	st2 := zeroState(len(st.U))
	o := NewOverlay(st2, len(st.U), 1, nil)
	if err := o.Add(frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := o.Done(); err != nil {
		t.Fatal(err)
	}
	if st2.Scheme != st.Scheme || st2.T != st.T || st2.N != st.N || !st2.Started ||
		st2.ElemApplies != st.ElemApplies || st2.Cycles != st.Cycles || !reflect.DeepEqual(st2.PerLevel, st.PerLevel) {
		t.Fatalf("state scalars: got %+v", st2)
	}
	for i := range st.U {
		if math.Float64bits(st2.U[i]) != math.Float64bits(st.U[i]) {
			t.Fatalf("U[%d] bits differ", i)
		}
	}
	for i := range st.V {
		if math.Float64bits(st2.V[i]) != math.Float64bits(st.V[i]) {
			t.Fatalf("V[%d] bits differ", i)
		}
	}
	if extra, ok := g.payloads["extra"]; !ok || string(extra) != "opaque" {
		t.Fatalf("extra section: %q %v", extra, ok)
	}
}

// TestMetaAndStateRefuseMalformed: a meta section whose key length
// disagrees with its bytes or whose cycle is negative, and a state section
// with a partial frame after a whole one, are errors.
func TestMetaAndStateRefuseMalformed(t *testing.T) {
	good := NewFile()
	good.PutMeta(&Meta{ConfigKey: "key", Cycle: 3})
	p := good.payloads["meta"]
	negative := append(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), p[8:]...)
	for name, meta := range map[string][]byte{
		"short":          p[:11],
		"key cut":        p[:len(p)-1],
		"key too long":   append(append([]byte(nil), p...), 'x'),
		"negative cycle": negative,
	} {
		f := NewFile()
		f.Add("meta", meta)
		if m, err := f.Meta(); err == nil {
			t.Errorf("%s meta accepted as %+v", name, m)
		}
	}
	frame := fullFrame(t, sampleState(), 1)
	f := NewFile()
	f.Add("state", append(append([]byte(nil), frame...), frame[:len(frame)-1]...))
	if _, err := f.Frames(); err == nil {
		t.Error("a state section ending in a partial frame split without error")
	}
	if _, err := NewFile().Frames(); err == nil {
		t.Error("a missing state section split without error")
	}
}

func TestCorruptionDetected(t *testing.T) {
	f := NewFile()
	f.Add("state", fullFrame(t, sampleState(), 1))
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload byte (past header + name framing) and require a
	// CRC error.
	raw[len(raw)-10] ^= 0x40
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted payload decoded without error")
	}
}

func TestTruncationDetected(t *testing.T) {
	f := NewFile()
	f.Add("state", fullFrame(t, sampleState(), 1))
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated container decoded without error")
	}
	if _, err := Decode(bytes.NewReader(raw[:4])); err == nil {
		t.Fatal("truncated header decoded without error")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	f := NewFile()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] = 'X'
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, v := range []byte{1, 99} {
		raw = append([]byte(nil), buf.Bytes()...)
		raw[8] = v
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Fatalf("format version %d accepted", v)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	f := NewFile()
	f.PutMeta(&Meta{ConfigKey: "k", Cycle: 3})
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	// Overwrite must be atomic and leave no temp litter.
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter in %s: %v", dir, entries)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if m.ConfigKey != "k" || m.Cycle != 3 {
		t.Fatalf("meta: %+v", m)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing file read without error")
	}
}

// hugeClaim is a 28-byte container whose one section claims a payload of
// 2³¹−1 bytes and carries two.
func hugeClaim() []byte {
	raw := []byte(magic)
	raw = binary.LittleEndian.AppendUint32(raw, Version)
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	raw = binary.LittleEndian.AppendUint16(raw, 4)
	raw = append(raw, "meta"...)
	raw = binary.LittleEndian.AppendUint32(raw, math.MaxInt32)
	return append(raw, 0, 0)
}

// TestHugeClaimedLengthAllocatesLittle: a section's claimed length is
// untrusted, so decoding a short input that claims a huge payload must
// fail without allocating anything near the claim.
func TestHugeClaimedLengthAllocatesLittle(t *testing.T) {
	raw := hugeClaim()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated huge section decoded without error")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), d)
	}
}

// FuzzDecode drives the container decoder with arbitrary bytes, from the
// corpus in testdata/fuzz/FuzzDecode (a valid meta+state file, a
// truncated header, a bad CRC, a zero-length name, a duplicate section
// name, a huge claimed length). It must never panic, and whatever it
// accepts must survive a re-encode: the re-encoded container decodes to
// the same sections. A meta section it accepts must re-encode to its own
// bytes, and the frames of a state section it splits are overlaid onto
// small bases the way a resume does: typed errors only, never a panic,
// and a full frame of the base's field that a base accepts must restore
// it completely.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, err := Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := g.Encode(&again); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		h, err := Decode(&again)
		if err != nil {
			t.Fatalf("re-encoded container rejected: %v", err)
		}
		if !reflect.DeepEqual(g.names, h.names) {
			t.Fatalf("sections %q re-decoded as %q", g.names, h.names)
		}
		for _, name := range g.names {
			if !bytes.Equal(g.payloads[name], h.payloads[name]) {
				t.Fatalf("section %q changed across a re-encode", name)
			}
		}
		if m, err := g.Meta(); err == nil {
			f := NewFile()
			f.PutMeta(m)
			if p, q := g.payloads["meta"], f.payloads["meta"]; !bytes.Equal(p, q) {
				t.Fatalf("meta %+v re-encoded from %x as %x", m, p, q)
			}
		}
		frames, err := g.Frames()
		if err != nil {
			return
		}
		for _, shape := range []struct{ ndof, comps int }{{5, 1}, {15, 3}} {
			st := zeroState(shape.ndof)
			o := NewOverlay(st, shape.ndof, shape.comps, nil)
			for _, frame := range frames {
				if err := o.Add(frame); err != nil {
					var fe *FrameError
					if !errors.As(err, &fe) {
						t.Fatalf("untyped error %T: %v", err, err)
					}
				}
			}
			if len(st.U) != shape.ndof || len(st.V) != shape.ndof {
				t.Fatalf("an overlay reshaped its base")
			}
			// A full frame of the field covers every node.
			want := zeroState(shape.ndof)
			want.Scheme, want.U[0] = "lts", 1
			if err := o.Add(fullFrame(t, want, shape.comps)); err != nil || o.Done() != nil ||
				math.Float64bits(st.U[0]) != math.Float64bits(1) {
				t.Fatalf("a full frame after the section's frames: %v", err)
			}
		}
	})
}
