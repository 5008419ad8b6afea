// Package ckpt defines the project's one state format, the state frame,
// and the checkpoint container that carries it to disk. Every encoding
// here is fixed little-endian: nothing decodes untrusted bytes through a
// general-purpose decoder.
//
// A checkpoint is a self-describing binary container:
//
//	[8]  magic "GOLTSCKP"
//	[u32] format version (little-endian, currently 2)
//	[u32] section count
//	then, per section:
//	[u16] name length  [name bytes]
//	[u32] payload length  [payload bytes]
//	[u32] CRC32 (IEEE) of the payload
//
// A version other than Version is refused. Two sections are defined:
// "meta" (a Meta: [i64 cycle][u32 key length][key bytes]) names the run
// configuration and the cycle the state belongs to, and "state" holds
// state frames back to back — one full frame from a local run, one
// footprint frame per rank from a distributed one — which together give
// the complete inter-cycle state of an lts.Scheme or newmark.Stepper. A
// distributed run's recovery snapshot is the same frames, one file each.
//
// A state frame is
//
//	[64-byte header][per-level counters ...i64][node ids ...u32][U ...f64][V ...f64]
//
// with the header
//
//	 0 [8]  scheme name, NUL-padded     40 i64 ndof (full field length)
//	 8 f64  t                           48 i64 nodes (-1: a full frame)
//	16 i64  n (substeps taken)          56 u32 comps (field components per node)
//	24 i64  element applications        60 u16 levels (per-level counters)
//	32 i64  cycles                      62 u8  started (0 or 1), u8 0
//
// so its length follows from its header. A full frame has no ids and all
// ndof values of U and of V; a footprint frame lists ascending node ids
// and comps values of U and of V per listed node, in that order (a dist
// rank's compact arrays). Float64 bit patterns travel exactly: a resumed
// run is bitwise identical to an uninterrupted one.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unsafe"
)

const (
	magic = "GOLTSCKP"
	// Version is the current container format version.
	Version = 2

	maxSectionName = 1 << 10
)

var le = binary.LittleEndian

// Meta identifies which run a checkpoint belongs to and where in the
// run it was taken. ConfigKey is the canonical configuration string the
// facade derives from its options; a resume refuses to install state
// whose key differs from the rebuilt simulation's.
type Meta struct {
	ConfigKey string // canonical configuration key (bitwise-compatibility class)
	Cycle     int64  // facade cycles completed when the state was captured
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

// PutMeta stores m as the "meta" section.
func (f *File) PutMeta(m *Meta) {
	b := le.AppendUint32(le.AppendUint64(nil, uint64(m.Cycle)), uint32(len(m.ConfigKey)))
	f.Add("meta", append(b, m.ConfigKey...))
}

// Meta decodes the "meta" section.
func (f *File) Meta() (*Meta, error) {
	p, err := f.section("meta")
	if err != nil {
		return nil, err
	}
	if len(p) < 12 || uint64(len(p)-12) != uint64(le.Uint32(p[8:])) || int64(le.Uint64(p)) < 0 {
		return nil, fmt.Errorf("ckpt: malformed meta section of %d bytes", len(p))
	}
	return &Meta{Cycle: int64(le.Uint64(p)), ConfigKey: string(p[12:])}, nil
}

// Frames splits the "state" section into the state frames it holds back
// to back; a tail that is not a whole frame is an error.
func (f *File) Frames() ([][]byte, error) {
	p, err := f.section("state")
	if err != nil {
		return nil, err
	}
	var frames [][]byte
	for len(p) > 0 {
		_, frame, err := ParseFrame(p)
		if err != nil {
			return nil, fmt.Errorf("ckpt: state frame %d: %w", len(frames), err)
		}
		frames, p = append(frames, frame), p[len(frame):]
	}
	return frames, nil
}

func (f *File) section(name string) ([]byte, error) {
	if p, ok := f.payloads[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("ckpt: missing %q section", name)
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
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return decode(raw)
}

// decode parses a container held in raw; the sections alias it. Every
// length is checked against the bytes present before it is used, and
// bytes after the last section are refused.
func decode(raw []byte) (*File, error) {
	if len(raw) < 16 {
		return nil, fmt.Errorf("ckpt: header of %d bytes", len(raw))
	}
	if string(raw[:8]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", raw[:8])
	}
	if v := le.Uint32(raw[8:12]); v != Version {
		return nil, fmt.Errorf("ckpt: unsupported format version %d (want %d)", v, Version)
	}
	n, b, f := le.Uint32(raw[12:16]), raw[16:], NewFile()
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("ckpt: section %d: truncated", i)
		}
		nl := int(le.Uint16(b))
		if nl == 0 || nl > maxSectionName || len(b) < 6+nl {
			return nil, fmt.Errorf("ckpt: section %d: bad or truncated name of %d bytes", i, nl)
		}
		name, pl := string(b[2:2+nl]), uint64(le.Uint32(b[2+nl:]))
		if b = b[6+nl:]; pl+4 > uint64(len(b)) {
			return nil, fmt.Errorf("ckpt: section %q: %d-byte payload truncated", name, pl)
		}
		if crc32.ChecksumIEEE(b[:pl]) != le.Uint32(b[pl:]) {
			return nil, fmt.Errorf("ckpt: section %q: CRC mismatch (corrupt checkpoint)", name)
		}
		f.Add(name, b[:pl:pl])
		b = b[pl+4:]
	}
	if len(b) > 0 {
		return nil, fmt.Errorf("ckpt: %d bytes after the last section", len(b))
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
	f, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return f, nil
}

// headerLen is the fixed part of a state frame's header; the per-level
// counters follow it.
const headerLen = 64

// FrameChunk is the piece of a section WriteFrame writes at a time: a
// writer that checksums what it passes on does so while the piece is in
// cache.
const FrameChunk = 256 << 10

// Header is a state frame's header: the stepper's state without U and V,
// and the shape of the field the frame covers.
type Header struct {
	State StepperState // U and V nil
	NDof  int          // length of the full field arrays
	Comps int          // field components per node (dof = node*Comps + c)
	Nodes int          // footprint node count, -1 in a full frame
}

// FrameError reports a state frame that arrived intact (its checksum, if
// it had one, matched) but does not describe a consistent state of the
// field it is read into.
type FrameError struct{ Reason string }

func (e *FrameError) Error() string { return "ckpt: malformed state frame: " + e.Reason }

func badFrame(format string, a ...any) error {
	return &FrameError{Reason: fmt.Sprintf(format, a...)}
}

// WriteFrame writes st's state frame to w and returns its length: a full
// frame of st's arrays (ndof and nodes are ignored), or a footprint frame
// of an ndof-long field whose listed nodes st holds, U and V in the nodes'
// order (a rank's compact arrays). The ids, U and V go from their own
// memory (LEBytes: a converted copy off a little-endian host), all in
// FrameChunk-byte pieces.
func WriteFrame(w io.Writer, st *StepperState, ndof, comps int, nodes []int32, full bool) (int64, error) {
	if len(st.Scheme) > 8 || len(st.PerLevel) > math.MaxUint16 {
		return 0, fmt.Errorf("ckpt: scheme %q with %d levels does not fit a frame header", st.Scheme, len(st.PerLevel))
	}
	nn := int64(len(nodes))
	if full {
		ndof, nn, nodes = len(st.U), -1, nil
	}
	if len(st.V) != len(st.U) || !full && len(st.U) != len(nodes)*comps {
		return 0, fmt.Errorf("ckpt: %d/%d values for a frame of %d nodes x %d components", len(st.U), len(st.V), nn, comps)
	}
	hdr := make([]byte, headerLen, headerLen+8*len(st.PerLevel))
	copy(hdr, st.Scheme)
	for i, v := range []uint64{math.Float64bits(st.T), uint64(st.N), uint64(st.ElemApplies), uint64(st.Cycles), uint64(ndof), uint64(nn)} {
		le.PutUint64(hdr[8+8*i:], v)
	}
	le.PutUint32(hdr[56:], uint32(comps))
	le.PutUint16(hdr[60:], uint16(len(st.PerLevel)))
	if st.Started {
		hdr[62] = 1
	}
	for _, n := range st.PerLevel {
		hdr = le.AppendUint64(hdr, uint64(n))
	}
	var err error
	for _, b := range [][]byte{hdr, LEBytes(nodes), LEBytes(st.U), LEBytes(st.V)} {
		for ; len(b) > 0 && err == nil; b = b[min(FrameChunk, len(b)):] {
			_, err = w.Write(b[:min(FrameChunk, len(b))])
		}
	}
	return int64(len(hdr) + 4*len(nodes) + 8*(len(st.U)+len(st.V))), err
}

// ParseFrame reads the header of the state frame b starts with and returns
// it with the frame itself: b up to the length the header implies. The
// body is yet to be checked against a field (see Overlay.Add).
func ParseFrame(b []byte) (h Header, frame []byte, err error) {
	if len(b) < headerLen {
		return h, nil, badFrame("%d bytes, short of a %d-byte header", len(b), headerLen)
	}
	ndof, nodes := int64(le.Uint64(b[40:])), int64(le.Uint64(b[48:]))
	comps, levels := int64(le.Uint32(b[56:])), int64(le.Uint16(b[60:]))
	if b[62] > 1 || b[63] != 0 {
		return h, nil, badFrame("flag bytes %#x %#x", b[62], b[63])
	}
	if comps == 0 || ndof < 0 || ndof%comps != 0 || nodes < -1 || nodes > ndof/comps {
		return h, nil, badFrame("%d nodes of a %d-dof, %d-component field", nodes, ndof, comps)
	}
	// Size the body by the bytes present before multiplying: a node costs
	// its id plus Comps values of U and of V, a full frame 16 bytes a dof.
	rest, count, per := int64(len(b))-headerLen-8*levels, nodes, 4+16*comps
	if nodes < 0 {
		count, per = ndof, 16
	}
	if rest < 0 || count > rest/per {
		return h, nil, badFrame("%d levels, %d nodes of a %d-dof, %d-component field in %d bytes", levels, nodes, ndof, comps, len(b))
	}
	h = Header{NDof: int(ndof), Comps: int(comps), Nodes: int(nodes), State: StepperState{
		Scheme:      string(bytes.TrimRight(b[:8], "\x00")),
		T:           math.Float64frombits(le.Uint64(b[8:])),
		N:           int64(le.Uint64(b[16:])),
		ElemApplies: int64(le.Uint64(b[24:])),
		Cycles:      int64(le.Uint64(b[32:])),
		Started:     b[62] == 1,
	}}
	for i := int64(0); i < levels; i++ {
		h.State.PerLevel = append(h.State.PerLevel, int64(le.Uint64(b[headerLen+8*i:])))
	}
	return h, b[:headerLen+8*levels+count*per], nil
}

// Overlay installs state frames onto a stepper's state: U and V on every
// node of a frame that the arrays hold, and the frame's scalars and
// counters. The arrays hold either the whole ndof-long field (own nil) or
// the footprint own — ascending nodes, in that order, as a dist rank holds
// them — so one full frame, or one footprint frame per rank of any run of
// the same field, restores any stepper of it. Done refuses a set of
// frames that leaves a node of the arrays out.
type Overlay struct {
	st          *StepperState
	ndof, comps int
	own         []int32
	seen        []bool // per node the arrays hold: set by some frame
}

// NewOverlay returns an overlay onto st's arrays, which hold own of an
// ndof-long field of comps components per node (all of it when own is nil).
func NewOverlay(st *StepperState, ndof, comps int, own []int32) *Overlay {
	nn := ndof / max(1, comps)
	if own != nil {
		nn = len(own)
	}
	return &Overlay{st: st, ndof: ndof, comps: comps, own: own, seen: make([]bool, nn)}
}

// Add overlays frame, which must be one whole state frame and nothing
// after it. On error the state is left partly overlaid: discard it.
// Nothing is indexed before it has been checked against the frame and the
// field.
func (o *Overlay) Add(frame []byte) error {
	h, f, err := ParseFrame(frame)
	if err != nil {
		return err
	}
	if len(f) != len(frame) {
		return badFrame("%d bytes after a %d-byte frame", len(frame)-len(f), len(f))
	}
	if h.NDof != o.ndof || h.Comps != o.comps {
		return badFrame("a frame of a %d-dof, %d-component field onto a %d-dof, %d-component one", h.NDof, h.Comps, o.ndof, o.comps)
	}
	// The nodes of a full frame are all of them; those of a footprint
	// frame ascend. Either way the arrays' slot of each is the id itself
	// or found by one merge walk along own.
	body, nc, nodes, full := f[headerLen+8*len(h.State.PerLevel):], h.Comps, h.Nodes, h.Nodes < 0
	ids, vals := []byte(nil), body
	if full {
		nodes = h.NDof / nc
	} else {
		ids, vals = body[:4*nodes], body[4*nodes:]
	}
	for f, field := range [][]float64{o.st.U, o.st.V} {
		src := vals[f*len(vals)/2:]
		for i, j, prev := 0, 0, -1; i < nodes; i++ {
			n := i
			if !full {
				n = int(le.Uint32(ids[4*i:]))
			}
			if n >= h.NDof/nc || n <= prev {
				return badFrame("footprint node %d at entry %d: not ascending in [0,%d)", n, i, h.NDof/nc)
			}
			prev = n
			if o.own != nil {
				for j < len(o.own) && int(o.own[j]) < n {
					j++
				}
				if j == len(o.own) || int(o.own[j]) != n {
					continue // another rank's node
				}
				n = j
			}
			SetFloats(field[n*nc:(n+1)*nc], src[8*i*nc:])
			o.seen[n] = true
		}
	}
	h.State.U, h.State.V = o.st.U, o.st.V
	*o.st = h.State
	return nil
}

// Done reports whether the frames added so far cover every node the
// arrays hold: a node left out would silently keep its value from before.
func (o *Overlay) Done() error {
	if n := slices.Index(o.seen, false); n >= 0 {
		if o.own != nil {
			n = int(o.own[n])
		}
		return fmt.Errorf("node %d is in no rank's footprint", n)
	}
	return nil
}

// LittleEndian is whether the host keeps int32s and float64s as their
// little-endian bytes; tests clear it to run the other hosts' branch of
// LEBytes and SetFloats.
var LittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// LEBytes returns the little-endian bytes of vals: on a little-endian host
// a view of vals' own memory, elsewhere a converted copy of them.
func LEBytes[T int32 | float64](vals []T) []byte {
	if !LittleEndian {
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, vals) // into memory: cannot fail
		return b.Bytes()
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*int(unsafe.Sizeof(*new(T))))
}

// SetFloats sets dst to the first len(dst) little-endian float64s of b.
func SetFloats(dst []float64, b []byte) {
	if !LittleEndian {
		binary.Read(bytes.NewReader(b[:8*len(dst)]), binary.LittleEndian, dst) // as many bytes as dst takes: cannot fail
		return
	}
	copy(LEBytes(dst), b[:8*len(dst)])
}
