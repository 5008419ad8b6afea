package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
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

// encodeState is the in-memory twin of snapStore.save: the same state
// frame of the global field st, streamed by writeState from the arrays a
// rank holding nodes would have (compactState) into buf's storage (a
// caller may pass its last frame back in) through a 64-byte buffer instead
// of snapChunk bytes.
func encodeState(buf []byte, st *ckpt.StepperState, comps int, nodes []int32, full bool) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	_, err := writeState(bufio.NewWriterSize(b, 64), compactState(st, comps, nodes, full), len(st.U), comps, nodes, full)
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

// zeroBase is an all-zero full snapshot for footprint frames to land on.
func zeroBase(ndof, comps int) *stateHeader {
	return &stateHeader{State: ckpt.StepperState{U: make([]float64, ndof), V: make([]float64, ndof)}, NDof: ndof, Comps: comps, Nodes: -1}
}

// TestStateFrameRoundTrip: full and footprint frames survive the codec
// bit for bit, for 1 and 3 components, including an empty footprint; a
// full frame fills a base of its length in place, and a footprint lands
// on exactly its own dofs, marks exactly its own nodes and brings its
// scalars along.
func TestStateFrameRoundTrip(t *testing.T) {
	for _, comps := range []int{1, 3} {
		const nn = 11
		st := testState(nn, comps)
		frame, err := encodeState(nil, st, comps, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := decodeState(frame, nil, nil)
		if err != nil {
			t.Fatalf("comps %d: full frame: %v", comps, err)
		}
		if sn.Comps != comps || !sameBits(sn.State.U, st.U) || !sameBits(sn.State.V, st.V) {
			t.Errorf("comps %d: full frame arrays differ", comps)
		}
		// Onto a base the arrays are filled in place and every node is
		// marked; a base of another length is refused.
		base, seen := zeroBase(nn*comps, comps), make([]bool, nn)
		u0 := &base.State.U[0]
		if got, err := decodeState(frame, base, seen); err != nil || got != base || &base.State.U[0] != u0 ||
			!sameBits(base.State.U, st.U) || !sameBits(base.State.V, st.V) || slices.Contains(seen, false) {
			t.Fatalf("comps %d: full frame onto a base: %v, seen %v", comps, err, seen)
		}
		if _, err := decodeState(frame, zeroBase((nn+1)*comps, comps), nil); err == nil {
			t.Errorf("comps %d: full frame accepted onto a longer base", comps)
		}
		got, want := sn.State, *st
		got.U, got.V, want.U, want.V = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("comps %d: scalars %+v, want %+v", comps, got, want)
		}
		for _, nodes := range [][]int32{{0, 4, 5, 10}, {}, nil} {
			frame, err := encodeState(frame, st, comps, nodes, false)
			if err != nil {
				t.Fatal(err)
			}
			base, seen := zeroBase(nn*comps, comps), make([]bool, nn)
			if sn, err := decodeState(frame, base, seen); err != nil || sn != base {
				t.Fatalf("comps %d footprint %v: (%p, %v)", comps, nodes, sn, err)
			}
			if base.State.T != st.T || base.State.Cycles != st.Cycles || !reflect.DeepEqual(base.State.PerLevel, st.PerLevel) {
				t.Errorf("comps %d footprint %v: scalars %+v did not come along", comps, nodes, base.State)
			}
			// Owned dofs carry st's bits, everything else stays zero;
			// exactly the owned nodes are marked.
			owned := make(map[int]bool)
			for _, n := range nodes {
				owned[int(n)] = true
			}
			for n, mark := range seen {
				if mark != owned[n] {
					t.Fatalf("comps %d footprint %v: node %d marked %v", comps, nodes, n, mark)
				}
			}
			for d := range st.U {
				wu, wv := 0.0, 0.0
				if owned[d/comps] {
					wu, wv = st.U[d], st.V[d]
				}
				if math.Float64bits(base.State.U[d]) != math.Float64bits(wu) ||
					math.Float64bits(base.State.V[d]) != math.Float64bits(wv) {
					t.Fatalf("comps %d footprint %v: dof %d", comps, nodes, d)
				}
			}
		}
	}
}

// malformedFrames is the table of CRC-valid but inconsistent state
// frames; it also seeds the fuzzer.
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
	hlen := int(binary.LittleEndian.Uint32(fp))
	out := map[string][]byte{
		"empty":             {},
		"truncated header":  fp[:4+hlen/2],
		"no header length":  fp[:3],
		"odd float tail":    full[:len(full)-3],
		"short full body":   full[:len(full)-16],
		"long full body":    append(append([]byte(nil), full...), make([]byte, 16)...),
		"footprint cut":     fp[:len(fp)-8],
		"garbage header":    append([]byte{8, 0, 0, 0}, "notagob!"...),
		"header past end":   append(binary.LittleEndian.AppendUint32(nil, uint32(len(fp))), fp[4:]...),
		"node out of range": append([]byte(nil), fp...),
	}
	// Node ids follow the header: overwrite the second with NumNodes.
	binary.LittleEndian.PutUint32(out["node out of range"][4+hlen+4:], 6)
	return out
}

// TestStateFrameMalformed: every malformed frame yields the typed error,
// never a panic or a frame.
func TestStateFrameMalformed(t *testing.T) {
	for name, frame := range malformedFrames(t) {
		for _, base := range []*stateHeader{nil, zeroBase(18, 3)} {
			sn, err := decodeState(frame, base, nil)
			var se *StateFrameError
			if !errors.As(err, &se) {
				t.Errorf("%s (base %v): got (%v, %v), want a *StateFrameError", name, base != nil, sn, err)
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

// TestLoadRejectsInconsistentFrames: a committed file that is a
// well-formed frame but does not fit the run (node outside the field,
// another component count, another field length, a field the snapshot's
// bytes could not hold) is an error naming the file — on a rank's own
// arrays and on the coordinator's nil base alike — not an index panic and
// not a huge allocation.
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
	hlen := int(binary.LittleEndian.Uint32(outOfRange))
	binary.LittleEndian.PutUint32(outOfRange[4+hlen:], nn)
	huge := enc(&ckpt.StepperState{U: make([]float64, 1<<20)}, comps, nil, false)
	cases := []struct {
		name   string
		frames [][]byte
		file   string // the file blamed
	}{
		{"node out of range", [][]byte{enc(good, comps, all, false), outOfRange}, "3-1-1"},
		{"component count differs", [][]byte{enc(good, comps, all, false), enc(testState(nn*comps, 1), 1, []int32{20}, false)}, "3-1-1"},
		{"field length differs", [][]byte{enc(good, comps, all, false), enc(testState(nn+1, comps), comps, []int32{1}, false)}, "3-1-1"},
		{"full frame of another field", [][]byte{enc(good, comps, all, false), enc(testState(nn+1, comps), comps, nil, true)}, "3-1-1"},
		{"not a frame", [][]byte{[]byte("notaframe")}, "3-1-0"},
	}
	for _, tc := range cases {
		for _, own := range []bool{false, true} {
			store, sn := writeSnapshot(t, tc.frames...)
			var base *stateHeader
			if own {
				base = zeroBase(nn*comps, comps)
			}
			if got, err := store.load(sn, base); err == nil || !strings.Contains(err.Error(), "file "+tc.file) {
				t.Errorf("%s (own arrays %v): got (%v, %v), want an error naming %s", tc.name, own, got, err, tc.file)
			}
		}
	}
	// A header claiming more dofs than the snapshot has bytes for must not
	// be believed by a reader without arrays of its own.
	store, sn := writeSnapshot(t, huge)
	if _, err := store.load(sn, nil); err == nil || !strings.Contains(err.Error(), "1048576-dof field") {
		t.Errorf("oversized field: %v", err)
	}
	if _, err := store.load(&snapshot{}, nil); err == nil {
		t.Error("a snapshot without files loaded")
	}
	// Control: consistent frames merge, onto either base, bits and scalars.
	for _, base := range []*stateHeader{nil, zeroBase(nn*comps, comps)} {
		store, sn := writeSnapshot(t, enc(good, comps, []int32{0, 1, 2, 3, 4}, false), enc(good, comps, []int32{4, 5, 6, 7}, false))
		got, err := store.load(sn, base)
		if err != nil || !sameBits(got.State.U, good.U) || !sameBits(got.State.V, good.V) || got.State.N != good.N {
			t.Fatalf("consistent frames: %v", err)
		}
	}
	// One full frame is a whole snapshot (RestoreState writes such).
	store, sn = writeSnapshot(t, enc(good, 0, nil, true))
	for _, base := range []*stateHeader{nil, zeroBase(nn*comps, comps)} {
		if got, err := store.load(sn, base); err != nil || !sameBits(got.State.U, good.U) {
			t.Fatalf("full-frame snapshot: %v", err)
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
		if got, err := store.load(sn, zeroBase(nn*comps, comps)); err == nil || !strings.Contains(err.Error(), "3-1-1") {
			t.Errorf("%s: got (%v, %v), want an error naming file 3-1-1", name, got, err)
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
	for _, base := range []*stateHeader{nil, zeroBase(nn*comps, comps)} {
		store, sn := writeSnapshot(t, a, b)
		if got, err := store.load(sn, base); err == nil || !strings.Contains(err.Error(), "node 5 is in no rank's footprint") {
			t.Errorf("got (%v, %v), want the coverage error for node 5", got, err)
		}
	}
}

// FuzzStateFrame drives the state-frame decoder — the one place file
// bytes turn into indices — with arbitrary payloads the way a restore
// uses it: as one of several footprint frames overlaid on a zero base
// with a coverage map, and as a full frame without a base. It must never
// panic, fail only with the typed error, leave the base's shape alone,
// mark no more nodes than the base has, and leave the base fit for the
// frames that follow: overlaying a complete footprint set afterwards
// must give exactly that set's field, fully covered. Full frames it
// accepts must have arrays that agree and re-encode to something it
// accepts again.
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
			binary.LittleEndian.PutUint32(frame[4+binary.LittleEndian.Uint32(frame):], id)
			f.Add(frame)
		}
	}
	// Headers that disagree with every base: another NDof, another Comps.
	f.Add(enc(testState(7, 3), 3, []int32{0, 6}, false))
	f.Add(enc(testState(5, 3), 5, []int32{0, 2}, false))
	f.Add(enc(testState(5, 3), 0, []int32{0}, false))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, base := range []*stateHeader{nil, zeroBase(5, 1), zeroBase(15, 3), zeroBase(18, 3)} {
			var ndof int
			var seen []bool
			if base != nil {
				ndof = len(base.State.U)
				seen = make([]bool, ndof/base.Comps)
			}
			sn, err := decodeState(payload, base, seen)
			if err != nil {
				var se *StateFrameError
				if !errors.As(err, &se) {
					t.Fatalf("untyped error %T: %v", err, err)
				}
				continue
			}
			if base != nil {
				if sn != base || len(base.State.U) != ndof || len(base.State.V) != ndof || len(seen) != ndof/base.Comps {
					t.Fatalf("frame reshaped its base")
				}
				// The rest of the set: two footprints that cover the field.
				nn := int32(len(seen))
				want, lo, hi := testState(int(nn), base.Comps), []int32{}, []int32{}
				for n := int32(0); n < nn; n++ {
					if n <= nn/2 {
						lo = append(lo, n)
					}
					if n >= nn/2 {
						hi = append(hi, n)
					}
				}
				for _, nodes := range [][]int32{lo, hi} {
					frame, err := encodeState(nil, want, base.Comps, nodes, false)
					if err == nil {
						_, err = decodeState(frame, base, seen)
					}
					if err != nil {
						t.Fatalf("footprint after an accepted frame: %v", err)
					}
				}
				if slices.Contains(seen, false) || !sameBits(base.State.U, want.U) || !sameBits(base.State.V, want.V) {
					t.Fatalf("a covering set after an accepted frame does not give its field")
				}
				continue
			}
			if len(sn.State.U) != len(sn.State.V) {
				t.Fatalf("accepted a full frame with %d/%d values", len(sn.State.U), len(sn.State.V))
			}
			again, err := encodeState(nil, &sn.State, sn.Comps, nil, true)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if _, err := decodeState(again, nil, nil); err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
		}
	})
}

// TestSaveMatchesEncodeState: a footprint frame that save streams into a
// file through snapChunk-sized chunks — one chunk boundary inside the id
// list, one inside a run of consecutive nodes' values — is byte for byte
// the frame encodeState builds, with that frame's length and CRC32; and a
// shorter frame saved over it leaves no tail of the longer one.
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
	if len(want) <= 2*snapChunk {
		t.Fatalf("frame of %d bytes spans fewer than 3 chunks", len(want))
	}
	// Where save's chunks end: one inside the ids, one between two
	// consecutive nodes' values of U or V.
	var chunks cutWriter
	if _, err := writeState(bufio.NewWriterSize(&chunks, snapChunk), compactState(st, comps, nodes, false), len(st.U), comps, nodes, false); err != nil {
		t.Fatal(err)
	}
	ids := 4 + int(binary.LittleEndian.Uint32(want))
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
		f, err := store.save(0, 0, 0, compactState(st, comps, fp, false), len(st.U), comps, fp, false)
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

// TestStateFrameLayout spells out two small frames value by value —
// [u32 header length][gob header][ids u32][U f64][V f64], little-endian —
// so that a change moving writeState and parseStateFrame together still
// fails: a footprint frame of nodes 0, 2 and 3 (dofs 0, 1, 4-7) and a
// full frame of all 10 dofs.
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
		h := stateHeader{State: *st, NDof: 10, Comps: comps, Nodes: len(c.nodes)}
		h.State.U, h.State.V = nil, nil
		if c.full {
			h.Nodes = -1
		}
		var hdr bytes.Buffer
		if err := gob.NewEncoder(&hdr).Encode(&h); err != nil {
			t.Fatal(err)
		}
		want := append(le.AppendUint32(nil, uint32(hdr.Len())), hdr.Bytes()...)
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
