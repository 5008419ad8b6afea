package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"reflect"
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
// bit for bit, for 1 and 3 components, including an empty footprint, and
// a footprint lands on exactly its own dofs.
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
		// A spare with room is decoded into, one without is left alone.
		for _, room := range []int{nn * comps, nn*comps - 1} {
			spare := &ckpt.StepperState{U: make([]float64, room), V: make([]float64, room)}
			sn, err := decodeState(frame, nil, spare)
			if err != nil || !sameBits(sn.State.U, st.U) || !sameBits(sn.State.V, st.V) {
				t.Fatalf("comps %d: full frame into a spare of %d: %v", comps, room, err)
			}
			if reused := &sn.State.U[0] == &spare.U[0] && &sn.State.V[0] == &spare.V[0]; reused != (room == nn*comps) {
				t.Errorf("comps %d: spare of %d reused = %v", comps, room, reused)
			}
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
			base := zeroBase(nn*comps, comps)
			if sn, err := decodeState(frame, base, nil); err != nil || sn != base {
				t.Fatalf("comps %d footprint %v: (%p, %v)", comps, nodes, sn, err)
			}
			// Owned dofs carry st's bits, everything else stays zero.
			owned := make(map[int]bool)
			for _, n := range nodes {
				owned[int(n)] = true
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

// TestFetchStateRejectsInconsistentFrames: a rank answering msgCkpt with
// a well-formed frame that does not fit the run (node outside the field,
// another component count, another field length, a footprint where the
// full frame belongs) must surface as a corrupt-frame RankFailure — the
// error tryRecover acts on — not as an index panic in the coordinator.
func TestFetchStateRejectsInconsistentFrames(t *testing.T) {
	const nn, comps = 8, 3
	good := testState(nn, comps)
	enc := func(st *ckpt.StepperState, comps int, nodes []int32, full bool) []byte {
		b, err := encodeState(nil, st, comps, nodes, full)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := enc(good, comps, nil, true)
	outOfRange := enc(good, comps, []int32{1, 2}, false)
	hlen := int(binary.LittleEndian.Uint32(outOfRange))
	binary.LittleEndian.PutUint32(outOfRange[4+hlen:], nn)
	cases := []struct {
		name   string
		frames [][]byte
		rank   int // the rank blamed
	}{
		{"node out of range", [][]byte{base, outOfRange}, 1},
		{"component count differs", [][]byte{base, enc(testState(nn*comps, 1), 1, []int32{20}, false)}, 1},
		{"field length differs", [][]byte{base, enc(testState(nn+1, comps), comps, []int32{1}, false)}, 1},
		{"second full frame", [][]byte{base, base}, 1},
		{"footprint from rank 0", [][]byte{enc(good, comps, []int32{1}, false), base}, 0},
		{"truncated", [][]byte{base[:len(base)-8], base}, 0},
	}
	// fetch runs fetchState against fake ranks that swallow the msgCkpt
	// request and have already answered with the given frames.
	fetch := func(frames [][]byte) (*ckpt.StepperState, error) {
		co := &Coordinator{}
		for _, frame := range frames {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			go newConn(b).recv()
			h := &rankHandle{c: newConn(a), frames: make(chan ctrlFrame, 1)}
			h.frames <- ctrlFrame{t: msgCkptResp, payload: frame}
			co.ranks = append(co.ranks, h)
		}
		return co.fetchState(context.Background(), nil)
	}
	for _, tc := range cases {
		st, err := fetch(tc.frames)
		var rf *RankFailure
		if !errors.As(err, &rf) || rf.Kind != FailureCorrupt || rf.Rank != tc.rank {
			t.Errorf("%s: got (%v, %v), want a corrupt-frame failure of rank %d", tc.name, st, err, tc.rank)
		}
	}
	// Control: consistent frames merge.
	st, err := fetch([][]byte{base, enc(good, comps, []int32{0, 7}, false)})
	if err != nil || !sameBits(st.U, good.U) || !sameBits(st.V, good.V) {
		t.Fatalf("consistent frames: %v", err)
	}
}

// FuzzStateFrame drives the state-frame decoder — the one place rank
// bytes turn into indices on the coordinator — with arbitrary payloads,
// both as a first (full) frame and as a footprint onto a base. It must
// never panic, fail only with the typed error, leave the base's shape
// alone, and accept only full frames whose arrays agree and re-encode to
// something it accepts again.
func FuzzStateFrame(f *testing.F) {
	for _, frame := range malformedFrames(f) {
		f.Add(frame)
	}
	for _, comps := range []int{1, 3} {
		st := testState(5, comps)
		for _, tc := range []struct {
			nodes []int32
			full  bool
		}{{nil, true}, {[]int32{0, 3}, false}, {nil, false}} {
			frame, err := encodeState(nil, st, comps, tc.nodes, tc.full)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, base := range []*stateHeader{nil, zeroBase(5, 1), zeroBase(15, 3), zeroBase(18, 3)} {
			ndof := 0
			if base != nil {
				ndof = len(base.State.U)
			}
			sn, err := decodeState(payload, base, nil)
			if err != nil {
				var se *StateFrameError
				if !errors.As(err, &se) {
					t.Fatalf("untyped error %T: %v", err, err)
				}
				continue
			}
			if base != nil {
				if sn != base || len(base.State.U) != ndof || len(base.State.V) != ndof {
					t.Fatalf("footprint frame reshaped its base")
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
