package ckpt

import (
	"bytes"
	"encoding/binary"
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
		V:           []float64{-3, 1e-300, 4.5e17},
		ElemApplies: 1234,
		PerLevel:    []int64{10, 20, 30},
		Cycles:      7,
	}
}

func TestRoundTrip(t *testing.T) {
	f := NewFile()
	meta := &Meta{ConfigKey: "ckpt|trench|0.02", ConfigSHA: "abc", Scheme: "lts", Cycle: 7, Time: 0.3}
	if err := f.PutMeta(meta); err != nil {
		t.Fatal(err)
	}
	st := sampleState()
	if err := f.PutState(st); err != nil {
		t.Fatal(err)
	}
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
	st2, err := g.State()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Scheme != st.Scheme || st2.T != st.T || st2.N != st.N || !st2.Started {
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
	if extra, ok := g.Lookup("extra"); !ok || string(extra) != "opaque" {
		t.Fatalf("extra section: %q %v", extra, ok)
	}
}

func TestCorruptionDetected(t *testing.T) {
	f := NewFile()
	if err := f.PutState(sampleState()); err != nil {
		t.Fatal(err)
	}
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
	if err := f.PutState(sampleState()); err != nil {
		t.Fatal(err)
	}
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
	raw = append([]byte(nil), buf.Bytes()...)
	raw[8] = 99
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	f := NewFile()
	if err := f.PutMeta(&Meta{ConfigKey: "k", Cycle: 3}); err != nil {
		t.Fatal(err)
	}
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
// the same sections.
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
	})
}
