// Package ckpt defines the on-disk and on-wire checkpoint format shared
// by the facade, the steppers and the distributed backend.
//
// A checkpoint is a self-describing binary container:
//
//	[8]  magic "GOLTSCKP"
//	[u32] format version (little-endian, currently 1)
//	[u32] section count
//	then, per section:
//	[u16] name length  [name bytes]
//	[u32] payload length  [payload bytes]
//	[u32] CRC32 (IEEE) of the payload
//
// Section payloads are gob streams, which preserve float64 bit patterns
// exactly — the whole point of a checkpoint here is that a resumed run
// is bitwise identical to an uninterrupted one. Two well-known sections
// are defined: "meta" (a Meta) identifies the run configuration and the
// cycle the state belongs to, and "state" (a StepperState) carries the
// complete inter-cycle state of an lts.Scheme or newmark.Stepper.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	magic = "GOLTSCKP"
	// Version is the current container format version.
	Version = 1

	maxSectionName = 1 << 10
	maxSectionLen  = 1 << 31
)

// Meta identifies which run a checkpoint belongs to and where in the
// run it was taken. ConfigKey is the canonical configuration string the
// facade derives from its options; a resume refuses to install state
// whose key differs from the rebuilt simulation's.
type Meta struct {
	ConfigKey string // canonical configuration key (bitwise-compatibility class)
	ConfigSHA string // sha256 hex of ConfigKey, for display and logs
	Scheme    string // "lts" or "newmark"
	Cycle     int64  // facade cycles completed when the state was captured
	Time      float64
}

// StepperState is the complete inter-cycle state of a time stepper.
// Everything else a stepper holds (per-level scratch, batch plans,
// masks) is written before it is read within each cycle, so this is
// sufficient for a bitwise-identical resume.
type StepperState struct {
	Scheme  string // "lts" or "newmark"
	T       float64
	N       int64
	Started bool
	U       []float64
	V       []float64

	// Work counters, restored so Stats continuity survives a resume.
	ElemApplies int64
	PerLevel    []int64
	Cycles      int64
}

// File is an in-memory checkpoint container.
type File struct {
	names    []string
	payloads map[string][]byte
}

// NewFile returns an empty container.
func NewFile() *File {
	return &File{payloads: make(map[string][]byte)}
}

// Add stores payload under name, replacing any previous section of the
// same name while keeping first-add order.
func (f *File) Add(name string, payload []byte) {
	if _, ok := f.payloads[name]; !ok {
		f.names = append(f.names, name)
	}
	f.payloads[name] = payload
}

// Lookup returns the named section payload.
func (f *File) Lookup(name string) ([]byte, bool) {
	p, ok := f.payloads[name]
	return p, ok
}

// PutMeta gob-encodes m into the "meta" section.
func (f *File) PutMeta(m *Meta) error { return f.putGob("meta", m) }

// Meta decodes the "meta" section.
func (f *File) Meta() (*Meta, error) {
	var m Meta
	if err := f.getGob("meta", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// PutState gob-encodes st into the "state" section.
func (f *File) PutState(st *StepperState) error { return f.putGob("state", st) }

// State decodes the "state" section.
func (f *File) State() (*StepperState, error) {
	var st StepperState
	if err := f.getGob("state", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (f *File) putGob(name string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("ckpt: encode %s: %w", name, err)
	}
	f.Add(name, buf.Bytes())
	return nil
}

func (f *File) getGob(name string, v any) error {
	p, ok := f.Lookup(name)
	if !ok {
		return fmt.Errorf("ckpt: missing %q section", name)
	}
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(v); err != nil {
		return fmt.Errorf("ckpt: decode %s: %w", name, err)
	}
	return nil
}

// Encode writes the container to w.
func (f *File) Encode(w io.Writer) error {
	var hdr [16]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(f.names)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, name := range f.names {
		payload := f.payloads[name]
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(name)))
		if _, err := w.Write(nl[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, name); err != nil {
			return err
		}
		var pl [4]byte
		binary.LittleEndian.PutUint32(pl[:], uint32(len(payload)))
		if _, err := w.Write(pl[:]); err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		if _, err := w.Write(crc[:]); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a container from r, verifying the magic, version and
// every section's CRC32.
func Decode(r io.Reader) (*File, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ckpt: header: %w", err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("ckpt: unsupported format version %d (want %d)", v, Version)
	}
	n := binary.LittleEndian.Uint32(hdr[12:16])
	f := NewFile()
	for i := uint32(0); i < n; i++ {
		var nl [2]byte
		if _, err := io.ReadFull(r, nl[:]); err != nil {
			return nil, fmt.Errorf("ckpt: section %d name length: %w", i, err)
		}
		nameLen := binary.LittleEndian.Uint16(nl[:])
		if nameLen == 0 || nameLen > maxSectionName {
			return nil, fmt.Errorf("ckpt: section %d: bad name length %d", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("ckpt: section %d name: %w", i, err)
		}
		var pl [4]byte
		if _, err := io.ReadFull(r, pl[:]); err != nil {
			return nil, fmt.Errorf("ckpt: section %q length: %w", name, err)
		}
		payloadLen := binary.LittleEndian.Uint32(pl[:])
		if uint64(payloadLen) > maxSectionLen {
			return nil, fmt.Errorf("ckpt: section %q: payload too large (%d)", name, payloadLen)
		}
		// The claimed length is untrusted: read through a buffer that grows
		// with the bytes actually present, never allocate it up front.
		var buf bytes.Buffer
		if n, err := io.CopyN(&buf, r, int64(payloadLen)); err != nil {
			if err == io.EOF && n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("ckpt: section %q payload: %w", name, err)
		}
		payload := buf.Bytes()
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return nil, fmt.Errorf("ckpt: section %q crc: %w", name, err)
		}
		want := binary.LittleEndian.Uint32(crc[:])
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, fmt.Errorf("ckpt: section %q: CRC mismatch (corrupt checkpoint)", name)
		}
		f.Add(string(name), payload)
	}
	return f, nil
}

// WriteFile writes the container to path atomically: the bytes land in
// a temporary file in the same directory which is then renamed over
// path, so a crash mid-write never leaves a truncated checkpoint where
// a reader expects a valid one.
func WriteFile(path string, f *File) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := f.Encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// ReadFile decodes the container at path.
func ReadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	f, err := Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return f, nil
}
