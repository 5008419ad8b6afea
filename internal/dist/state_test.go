package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"golts/internal/ckpt"
)

// testState builds a snapshot of nn nodes x comps components with
// distinguishable values (NaN payloads and signed zeros included: the
// codec must move bits, not numbers).
func testState(nn, comps int) *ckpt.StepperState {
	st := &ckpt.StepperState{
		Scheme: "lts", T: 1.25, N: 7, Started: true,
		ElemApplies: 1 << 40, PerLevel: []int64{3, 5, 8}, Cycles: 7,
		U: make([]float64, nn*comps), V: make([]float64, nn*comps),
	}
	for d := range st.U {
		st.U[d] = 0.5 + float64(d)
		st.V[d] = -1 / (1 + float64(d))
	}
	if len(st.U) > 2 {
		st.U[1] = math.Float64frombits(0x7ff8_0000_dead_beef)
		st.V[2] = math.Copysign(0, -1)
	}
	return st
}

// bodyAt is where the ids (or, in a full frame, U) of a frame of testState
// start: after the fixed header and its three per-level counters.
const bodyAt = 64 + 3*8

// encodeState is the in-memory twin of snapStore.save: the same state
// frame of the global field st, written by ckpt.WriteFrame from the arrays
// a rank holding nodes would have (compactState) into buf's storage (a
// caller may pass its last frame back in).
func encodeState(buf []byte, st *ckpt.StepperState, comps int, nodes []int32, full bool) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	_, err := ckpt.WriteFrame(b, compactState(st, comps, nodes, full), len(st.U), comps, nodes, full)
	return b.Bytes(), err
}

// compactState is the global state st as a rank whose footprint is nodes
// holds it: U and V on those nodes, in their order (st itself when full).
func compactState(st *ckpt.StepperState, comps int, nodes []int32, full bool) *ckpt.StepperState {
	if full {
		return st
	}
	c := *st
	c.U, c.V = make([]float64, 0, len(nodes)*comps), make([]float64, 0, len(nodes)*comps)
	for _, n := range nodes {
		d := int(n) * comps
		c.U, c.V = append(c.U, st.U[d:d+comps]...), append(c.V, st.V[d:d+comps]...)
	}
	return &c
}

// cutWriter records where every write into it ends.
type cutWriter struct {
	off  int
	cuts []int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	c.off += len(p)
	c.cuts = append(c.cuts, c.off)
	return len(p), nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// base is a stepper's all-zero arrays for frames to land on — the whole
// ndof-long field, or the footprint own of it in its compact order — and
// the overlay onto them.
type base struct {
	st          *ckpt.StepperState
	o           *ckpt.Overlay
	ndof, comps int
	own         []int32
}

func zeroBase(ndof, comps int, own []int32) *base {
	n := ndof
	if own != nil {
		n = len(own) * comps
	}
	st := &ckpt.StepperState{U: make([]float64, n), V: make([]float64, n)}
	return &base{st: st, o: ckpt.NewOverlay(st, ndof, comps, own), ndof: ndof, comps: comps, own: own}
}

// want is the part of the global state st that b's arrays hold.
func (b *base) want(st *ckpt.StepperState, comps int) *ckpt.StepperState {
	return compactState(st, comps, b.own, b.own == nil)
}

// TestStateFrameRoundTrip: full and footprint frames survive the codec
// bit for bit, for 1 and 3 components, including an empty footprint; a
// full frame fills a base of its length in place and covers it, a base of
// another length refuses it, and a footprint lands on exactly its own dofs,
// leaves the lowest node it lacks uncovered and brings its scalars along.
func TestStateFrameRoundTrip(t *testing.T) {
	for _, comps := range []int{1, 3} {
		const nn = 11
		st := testState(nn, comps)
		frame, err := encodeState(nil, st, comps, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		// Onto a base the arrays are filled in place and every node is
		// covered; a base of another length is refused.
		b := zeroBase(nn*comps, comps, nil)
		u0 := &b.st.U[0]
		if err := b.o.Add(frame); err != nil || &b.st.U[0] != u0 ||
			!sameBits(b.st.U, st.U) || !sameBits(b.st.V, st.V) || b.o.Done() != nil {
			t.Fatalf("comps %d: full frame onto a base: %v, coverage %v", comps, err, b.o.Done())
		}
		if err := zeroBase((nn+1)*comps, comps, nil).o.Add(frame); err == nil {
			t.Errorf("comps %d: full frame accepted onto a longer base", comps)
		}
		got, want := *b.st, *st
		got.U, got.V, want.U, want.V = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("comps %d: scalars %+v, want %+v", comps, got, want)
		}
		for _, nodes := range [][]int32{{0, 4, 5, 10}, {1, 2}, {}, nil} {
			frame, err := encodeState(frame, st, comps, nodes, false)
			if err != nil {
				t.Fatal(err)
			}
			b := zeroBase(nn*comps, comps, nil)
			if err := b.o.Add(frame); err != nil {
				t.Fatalf("comps %d footprint %v: %v", comps, nodes, err)
			}
			if b.st.T != st.T || b.st.Cycles != st.Cycles || !reflect.DeepEqual(b.st.PerLevel, st.PerLevel) {
				t.Errorf("comps %d footprint %v: scalars %+v did not come along", comps, nodes, b.st)
			}
			// Owned dofs carry st's bits, everything else stays zero; the
			// lowest node the footprint lacks is the one left uncovered.
			owned := make(map[int]bool)
			for _, n := range nodes {
				owned[int(n)] = true
			}
			lacks := 0
			for owned[lacks] {
				lacks++
			}
			if err := b.o.Done(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node %d is", lacks)) {
				t.Fatalf("comps %d footprint %v: coverage %v, want node %d uncovered", comps, nodes, err, lacks)
			}
			for d := range st.U {
				wu, wv := 0.0, 0.0
				if owned[d/comps] {
					wu, wv = st.U[d], st.V[d]
				}
				if math.Float64bits(b.st.U[d]) != math.Float64bits(wu) ||
					math.Float64bits(b.st.V[d]) != math.Float64bits(wv) {
					t.Fatalf("comps %d footprint %v: dof %d", comps, nodes, d)
				}
			}
		}
	}
}

// malformedFrames is the table of CRC-valid but inconsistent state
// frames of a 6-node, 3-component field; it also seeds the fuzzer.
func malformedFrames(t testing.TB) map[string][]byte {
	st := testState(6, 3)
	enc := func(nodes []int32, full bool) []byte {
		b, err := encodeState(nil, st, 3, nodes, full)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	full, fp := enc(nil, true), enc([]int32{1, 4}, false)
	edit := func(frame []byte, at int, v uint64, size int) []byte {
		b := append([]byte(nil), frame...)
		for i := 0; i < size; i++ {
			b[at+i] = byte(v >> (8 * i))
		}
		return b
	}
	return map[string][]byte{
		"empty":               {},
		"truncated header":    fp[:40],
		"no levels":           fp[:64],
		"odd float tail":      full[:len(full)-3],
		"short full body":     full[:len(full)-16],
		"long full body":      append(append([]byte(nil), full...), make([]byte, 16)...),
		"footprint cut":       fp[:len(fp)-8],
		"flag bytes":          edit(fp, 62, 0xff02, 2),
		"levels past end":     edit(fp, 60, 0xffff, 2),
		"no components":       edit(fp, 56, 0, 4),
		"ragged field":        edit(fp, 40, 17, 8),
		"nodes past field":    edit(fp, 48, 7, 8),
		"node out of range":   edit(fp, bodyAt+4, 6, 4),
		"nodes descending":    edit(fp, bodyAt, 5, 4),
		"negative field":      edit(full, 40, math.MaxUint64, 8),
		"huge claimed field":  edit(full, 40, 1<<60, 8),
		"other component sum": edit(full, 56, 2, 4),
	}
}

// TestStateFrameMalformed: every malformed frame yields the typed error,
// never a panic or an overlay, onto the whole field and onto a footprint.
func TestStateFrameMalformed(t *testing.T) {
	for name, frame := range malformedFrames(t) {
		for _, own := range [][]int32{nil, {1, 2, 4}} {
			err := zeroBase(18, 3, own).o.Add(frame)
			var fe *ckpt.FrameError
			if !errors.As(err, &fe) {
				t.Errorf("%s (footprint %v): got %v, want a *ckpt.FrameError", name, own, err)
			}
		}
	}
}

// writeSnapshot stores frames as the files of one slot of a store in a
// temporary directory and returns the descriptor that commits them.
func writeSnapshot(t testing.TB, frames ...[]byte) (*snapStore, *snapshot) {
	t.Helper()
	store, sn := &snapStore{dir: t.TempDir()}, &snapshot{Gen: 3, Slot: 1, Cycle: 8}
	for i, frame := range frames {
		if err := os.WriteFile(store.path(sn.Gen, sn.Slot, i), frame, 0o600); err != nil {
			t.Fatal(err)
		}
		sn.Files = append(sn.Files, snapFile{Len: int64(len(frame)), CRC: crc32.ChecksumIEEE(frame)})
	}
	return store, sn
}

// loadBases are the arrays a snapshot of an 8-node field is loaded onto:
// the whole field (a local stepper's) and a footprint (a rank's).
func loadBases(comps int) []*base {
	return []*base{zeroBase(8*comps, comps, nil), zeroBase(8*comps, comps, []int32{0, 2, 3, 5, 7})}
}

// TestLoadRejectsInconsistentFrames: a committed file that is a
// well-formed frame but does not fit the run (node outside the field,
// another component count, another field length) is an error naming the
// file — on the whole field and on a rank's footprint alike — not an index
// panic.
func TestLoadRejectsInconsistentFrames(t *testing.T) {
	const nn, comps = 8, 3
	good := testState(nn, comps)
	enc := func(st *ckpt.StepperState, comps int, nodes []int32, full bool) []byte {
		b, err := encodeState(nil, st, comps, nodes, full)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	outOfRange := enc(good, comps, []int32{1, 2}, false)
	binary.LittleEndian.PutUint32(outOfRange[bodyAt+4:], nn)
	cases := []struct {
		name   string
		frames [][]byte
		file   string // the file blamed
	}{
		{"node out of range", [][]byte{enc(good, comps, all, false), outOfRange}, "3-1-1"},
		{"component count differs", [][]byte{enc(good, comps, all, false), enc(testState(nn*comps, 1), 1, []int32{20}, false)}, "3-1-1"},
		{"field length differs", [][]byte{enc(good, comps, all, false), enc(testState(nn+1, comps), comps, []int32{1}, false)}, "3-1-1"},
		{"full frame of another field", [][]byte{enc(good, comps, all, false), enc(testState(nn+1, comps), comps, nil, true)}, "3-1-1"},
		{"two frames in a file", [][]byte{append(enc(good, comps, all, false), enc(good, comps, all, false)...)}, "3-1-0"},
		{"not a frame", [][]byte{[]byte("notaframe")}, "3-1-0"},
	}
	for _, tc := range cases {
		for _, b := range loadBases(comps) {
			store, sn := writeSnapshot(t, tc.frames...)
			if err := store.load(sn, b.o); err == nil || !strings.Contains(err.Error(), "file "+tc.file) {
				t.Errorf("%s (footprint %v): got %v, want an error naming %s", tc.name, b.own, err, tc.file)
			}
		}
	}
	if err := new(snapStore).load(&snapshot{}, zeroBase(nn*comps, comps, nil).o); err == nil {
		t.Error("a snapshot without files loaded")
	}
	// Control: consistent frames merge, onto either base, bits and
	// scalars; one full frame is a whole snapshot (a local checkpoint's,
	// which RestoreState writes as it is).
	for _, frames := range [][][]byte{
		{enc(good, comps, []int32{0, 1, 2, 3, 4}, false), enc(good, comps, []int32{4, 5, 6, 7}, false)},
		{enc(good, comps, nil, true)},
	} {
		for _, b := range loadBases(comps) {
			store, sn := writeSnapshot(t, frames...)
			want := b.want(good, comps)
			if err := store.load(sn, b.o); err != nil || !sameBits(b.st.U, want.U) || !sameBits(b.st.V, want.V) || b.st.N != good.N {
				t.Fatalf("%d consistent frames onto footprint %v: %v", len(frames), b.own, err)
			}
		}
	}
}

// TestLoadChecksFilesAgainstCommit: what load reads must be what was
// committed — a flipped byte, a truncated, grown or missing file are all
// refused, whatever the bytes decode to.
func TestLoadChecksFilesAgainstCommit(t *testing.T) {
	const nn, comps = 8, 3
	st := testState(nn, comps)
	a, _ := encodeState(nil, st, comps, []int32{0, 1, 2, 3, 4}, false)
	b, _ := encodeState(nil, st, comps, []int32{4, 5, 6, 7}, false)
	damage := map[string]func(path string) error{
		"flipped byte": func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-9] ^= 1 // inside a value: the frame stays well-formed
			return os.WriteFile(path, raw, 0o600)
		},
		"truncated": func(path string) error { return os.Truncate(path, int64(len(b)-(4+16*comps))) },
		"grown":     func(path string) error { return os.Truncate(path, int64(len(b)+4+16*comps)) },
		"missing":   os.Remove,
	}
	for name, do := range damage {
		store, sn := writeSnapshot(t, a, b)
		if err := do(store.path(sn.Gen, sn.Slot, 1)); err != nil {
			t.Fatal(err)
		}
		if err := store.load(sn, zeroBase(nn*comps, comps, nil).o); err == nil || !strings.Contains(err.Error(), "3-1-1") {
			t.Errorf("%s: got %v, want an error naming file 3-1-1", name, err)
		}
	}
}

// TestLoadCoverage: footprints that leave a node out are not a snapshot,
// however well-formed each file is — the node would silently keep the
// base's value (zero, on a fresh rank). Mutation-checked: without the
// coverage check in load this test fails.
func TestLoadCoverage(t *testing.T) {
	const nn, comps = 8, 3
	st := testState(nn, comps)
	a, _ := encodeState(nil, st, comps, []int32{0, 1, 2, 3}, false)
	b, _ := encodeState(nil, st, comps, []int32{3, 4, 6, 7}, false) // node 5 removed
	for _, base := range loadBases(comps) {
		store, sn := writeSnapshot(t, a, b)
		if err := store.load(sn, base.o); err == nil || !strings.Contains(err.Error(), "node 5 is in no rank's footprint") {
			t.Errorf("footprint %v: got %v, want the coverage error for node 5", base.own, err)
		}
	}
}

// FuzzStateFrame drives the state-frame overlay — the one place file bytes
// turn into indices — with arbitrary payloads the way a restore uses it:
// as one of several frames overlaid on a zero base, the whole field or a
// footprint. It must never panic, fail only with the typed error, leave
// the base's shape alone and leave the base fit for the frames that
// follow: overlaying a complete footprint set afterwards must give exactly
// that set's field, fully covered. A full frame a whole-field base accepts
// must re-encode to its own bytes.
func FuzzStateFrame(f *testing.F) {
	for _, frame := range malformedFrames(f) {
		f.Add(frame)
	}
	enc := func(st *ckpt.StepperState, comps int, nodes []int32, full bool) []byte {
		frame, err := encodeState(nil, st, comps, nodes, full)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	for _, comps := range []int{1, 3} {
		st := testState(5, comps)
		f.Add(enc(st, comps, nil, true))
		// An all-footprint set, overlapping on node 2, and the empty one.
		f.Add(enc(st, comps, []int32{0, 1, 2}, false))
		f.Add(enc(st, comps, []int32{2, 3, 4}, false))
		f.Add(enc(st, comps, nil, false))
		// Duplicate and out-of-range node ids.
		f.Add(enc(st, comps, []int32{3, 3, 0, 3}, false))
		for _, id := range []uint32{5, 0xffff_ffff} {
			frame := enc(st, comps, []int32{1, 4}, false)
			binary.LittleEndian.PutUint32(frame[bodyAt:], id)
			f.Add(frame)
		}
	}
	// Headers that disagree with every base: another NDof, another Comps;
	// a newmark frame, without per-level counters.
	f.Add(enc(testState(7, 3), 3, []int32{0, 6}, false))
	f.Add(enc(testState(5, 3), 5, []int32{0, 2}, false))
	nm := testState(5, 3)
	nm.Scheme, nm.PerLevel = "newmark", nil
	f.Add(enc(nm, 3, nil, true))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, b := range []*base{zeroBase(5, 1, nil), zeroBase(15, 3, nil), zeroBase(18, 3, nil), zeroBase(15, 3, []int32{1, 2, 4})} {
			ndof, comps, held := b.ndof, b.comps, len(b.st.U)
			if err := b.o.Add(payload); err != nil {
				var fe *ckpt.FrameError
				if !errors.As(err, &fe) {
					t.Fatalf("untyped error %T: %v", err, err)
				}
				continue
			}
			if len(b.st.U) != held || len(b.st.V) != held {
				t.Fatalf("frame reshaped its base")
			}
			if h, _, _ := ckpt.ParseFrame(payload); h.Nodes < 0 && b.own == nil {
				var again bytes.Buffer
				if _, err := ckpt.WriteFrame(&again, b.st, ndof, comps, nil, true); err != nil || !bytes.Equal(again.Bytes(), payload) {
					t.Fatalf("accepted full frame re-encodes differently (%v)", err)
				}
			}
			// The rest of the set: two footprints that cover the field.
			nn := int32(ndof / comps)
			want, lo, hi := testState(int(nn), comps), []int32{}, []int32{}
			for n := int32(0); n < nn; n++ {
				if n <= nn/2 {
					lo = append(lo, n)
				}
				if n >= nn/2 {
					hi = append(hi, n)
				}
			}
			for _, nodes := range [][]int32{lo, hi} {
				frame, err := encodeState(nil, want, comps, nodes, false)
				if err == nil {
					err = b.o.Add(frame)
				}
				if err != nil {
					t.Fatalf("footprint after an accepted frame: %v", err)
				}
			}
			w := b.want(want, comps)
			if err := b.o.Done(); err != nil || !sameBits(b.st.U, w.U) || !sameBits(b.st.V, w.V) {
				t.Fatalf("a covering set after an accepted frame does not give its field: %v", err)
			}
		}
	})
}

// TestSaveMatchesEncodeState: a footprint frame that save writes into a
// file in ckpt.FrameChunk-byte pieces — one piece ending inside the id list, one
// inside a run of consecutive nodes' values — is byte for byte the frame
// encodeState builds, with that frame's length and CRC32; and a shorter
// frame saved over it leaves no tail of the longer one.
func TestSaveMatchesEncodeState(t *testing.T) {
	const nn, comps = 100_000, 1
	st := testState(nn, comps)
	var nodes []int32 // runs of 1, 2, 1, 500 and 3 nodes, one-node gaps
	for n, k := int32(0), 0; n < nn; k++ {
		for i := 0; i < []int{1, 2, 1, 500, 3}[k%5] && n < nn; i++ {
			nodes = append(nodes, n)
			n++
		}
		n++
	}
	want, err := encodeState(nil, st, comps, nodes, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 2*ckpt.FrameChunk {
		t.Fatalf("frame of %d bytes spans fewer than 3 chunks", len(want))
	}
	// Where save's pieces end: one inside the ids, one between two
	// consecutive nodes' values of U or V.
	var chunks cutWriter
	if _, err := ckpt.WriteFrame(&chunks, compactState(st, comps, nodes, false), len(st.U), comps, nodes, false); err != nil {
		t.Fatal(err)
	}
	ids := bodyAt
	vals := ids + 4*len(nodes)
	inIDs, inRun := false, false
	for _, c := range chunks.cuts {
		inIDs = inIDs || ids < c && c < vals
		if i := (c - vals) / 8 % len(nodes); c > vals && c < len(want) && (c-vals)%8 == 0 && i > 0 {
			inRun = inRun || nodes[i] == nodes[i-1]+1
		}
	}
	if !inIDs || !inRun {
		t.Fatalf("chunk ends %v: inside the ids (%d, %d): %v, inside a run: %v", chunks.cuts, ids, vals, inIDs, inRun)
	}

	store := &snapStore{dir: t.TempDir()}
	for _, fp := range [][]int32{nodes, nodes[:10]} {
		want, err := encodeState(nil, st, comps, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		f, err := store.save(0, 0, 0, compactState(st, comps, fp, false), len(st.U), comps, fp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(store.path(0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || f.Len != int64(len(want)) || f.CRC != crc32.ChecksumIEEE(want) {
			t.Fatalf("%d footprint nodes: file of %d bytes (%+v), want %d bytes, crc %08x, equal bytes: %v",
				len(fp), len(got), f, len(want), crc32.ChecksumIEEE(want), slices.Equal(got, want))
		}
	}
}

// TestPortableByteOrder: the branch a host that does not keep its values
// little-endian takes (ckpt.LittleEndian cleared) encodes a footprint
// frame of several ckpt.FrameChunk pieces, a full frame, a halo frame and
// a cycle-done frame to the bytes the views of the values' own memory
// give, and decodes each to the same bits: the state frames onto a full
// base and onto a footprint base (the overlay's per-node copy).
func TestPortableByteOrder(t *testing.T) {
	if !ckpt.LittleEndian {
		t.Skip("big-endian host: every test runs the portable branch")
	}
	const nn, comps = 40_000, 3
	st := testState(nn, comps)
	var even, third []int32
	for n := int32(0); n < nn; n++ {
		if n%2 == 0 {
			even = append(even, n)
		}
		if n%3 == 0 {
			third = append(third, n)
		}
	}
	codec := func() (frames [][]byte, values [][]float64) {
		for _, full := range []bool{false, true} {
			frame, err := encodeState(nil, st, comps, even, full)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
			for _, b := range []*base{zeroBase(nn*comps, comps, nil), zeroBase(nn*comps, comps, third)} {
				if err := b.o.Add(frame); err != nil {
					t.Fatalf("full=%v, footprint base %v: %v", full, b.own != nil, err)
				}
				values = append(values, b.st.U, b.st.V)
			}
		}
		halo := encodeHalo(nil, haloFrame{seq: 7, planID: 3, values: st.V[:1000]})
		fr, err := decodeHalo(halo, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := putFloats(nil, st.U[:5])
		cd, err := decodeCycleDone(done, 4)
		if err != nil {
			t.Fatal(err)
		}
		return append(frames, halo, done), append(values, fr.values, []float64{cd.t}, cd.samples)
	}
	viewFrames, viewValues := codec()
	ckpt.LittleEndian = false
	defer func() { ckpt.LittleEndian = true }()
	frames, values := codec()
	for i := range frames {
		if !bytes.Equal(frames[i], viewFrames[i]) {
			t.Errorf("frame %d: the portable branch's %d bytes differ from the view's %d", i, len(frames[i]), len(viewFrames[i]))
		}
	}
	for i := range values {
		if !sameBits(values[i], viewValues[i]) {
			t.Errorf("decoded array %d: the portable branch's bits differ from the view's", i)
		}
	}
}

// TestStateFrameLayout spells out two small frames value by value — the
// 64-byte header, the per-level counters, [ids u32][U f64][V f64], all
// little-endian — so that a change moving ckpt.WriteFrame and
// ckpt.ParseFrame together still fails: a footprint frame of nodes 0, 2
// and 3 (dofs 0, 1, 4-7) and a full frame of all 10 dofs.
func TestStateFrameLayout(t *testing.T) {
	const comps = 2
	st := testState(5, comps)
	le := binary.LittleEndian
	for _, c := range []struct {
		nodes []int32
		dofs  []int
		full  bool
	}{
		{[]int32{0, 2, 3}, []int{0, 1, 4, 5, 6, 7}, false},
		{nil, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, true},
	} {
		nodes := int64(len(c.nodes))
		if c.full {
			nodes = -1
		}
		want := append([]byte("lts"), 0, 0, 0, 0, 0)
		want = le.AppendUint64(want, math.Float64bits(st.T))
		want = le.AppendUint64(want, uint64(st.N))
		want = le.AppendUint64(want, uint64(st.ElemApplies))
		want = le.AppendUint64(want, uint64(st.Cycles))
		want = le.AppendUint64(want, 10)
		want = le.AppendUint64(want, uint64(nodes))
		want = le.AppendUint32(want, comps)
		want = le.AppendUint16(want, uint16(len(st.PerLevel)))
		want = append(want, 1, 0) // started, then a zero byte
		for _, n := range st.PerLevel {
			want = le.AppendUint64(want, uint64(n))
		}
		for _, n := range c.nodes {
			want = le.AppendUint32(want, uint32(n))
		}
		for _, field := range [][]float64{st.U, st.V} {
			for _, d := range c.dofs {
				want = le.AppendUint64(want, math.Float64bits(field[d]))
			}
		}
		got, err := encodeState(nil, st, comps, c.nodes, c.full)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("full=%v: frame\n%x\nwant\n%x", c.full, got, want)
		}
	}
}

// BenchmarkSnapshotSave: one snapshot of a dist2-lts-elastic rank (a
// footprint frame of 171 417 nodes x 3 components, ≈ 8.9 MB) saved through
// snapStore.save over its previous contents in a store directory where
// runs keep theirs (newSnapDir), as every snapshot after a run's first does.
func BenchmarkSnapshotSave(b *testing.B) {
	const nn, comps, ndof = 171_417, 3, 340_881 * 3
	dir, err := newSnapDir()
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, st, nodes := &snapStore{dir: dir}, testState(nn, comps), make([]int32, nn)
	for i := range nodes {
		nodes[i] = int32(i * (ndof / comps) / nn) // ascending, gaps spread over the field
	}
	f, err := store.save(0, 0, 0, st, ndof, comps, nodes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.Len)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.save(0, 0, 0, st, ndof, comps, nodes); err != nil {
			b.Fatal(err)
		}
	}
}
