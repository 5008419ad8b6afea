package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"

	"golts/internal/mesh"
	"golts/internal/partition"
	"golts/internal/solver"
)

// TestFrameRoundTrip: framed messages survive a loopback connection,
// including empty payloads and float arrays.
func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newConn(a), newConn(b)
	defer ca.close()
	defer cb.close()

	vals := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	go func() {
		ca.send(msgHalo, putFloats(nil, vals))
		ca.send(msgReady, nil)
	}()
	typ, payload, err := cb.recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if typ != msgHalo {
		t.Fatalf("type = %d, want %d", typ, msgHalo)
	}
	got, err := getFloats(nil, payload)
	if err != nil {
		t.Fatalf("getFloats: %v", err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d floats, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("float %d: %v != %v", i, got[i], vals[i])
		}
	}
	if _, err := cb.expect(msgReady); err != nil {
		t.Fatalf("expect ready: %v", err)
	}
}

// TestExpectErrFrame: msgErr frames surface as errors carrying the
// remote text.
func TestExpectErrFrame(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newConn(a), newConn(b)
	defer ca.close()
	defer cb.close()
	go ca.send(msgErr, []byte("boom"))
	_, err := cb.expect(msgReady)
	if err == nil || err.Error() != "dist: remote error: boom" {
		t.Fatalf("err = %v", err)
	}
}

// TestGobRoundTrip: control structs survive the gob path.
func TestGobRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newConn(a), newConn(b)
	defer ca.close()
	defer cb.close()
	want := RunConfig{
		Spec: solver.Spec{
			Mesh: "trench", Scale: 0.5, Physics: "elastic", Degree: 4, LevelCFL: 0.025, LTS: true,
			Sources: []solver.Source{{Dof: 7, F0: 10, T0: 0.05}},
			Sponge:  solver.Sponge{Width: 0.1, Strength: 50, Faces: [6]bool{true}},
		},
		Ranks: 2, Parts: 4,
		Part:      []int32{0, 1, 2, 3},
		Receivers: []int{1, 2, 3},
	}
	go ca.sendGob(msgConfig, &want)
	payload, err := cb.expect(msgConfig)
	if err != nil {
		t.Fatalf("expect: %v", err)
	}
	var got RunConfig
	if err := decodeGob(payload, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestGetFloatsRejectsRagged: a payload that is not a whole number of
// float64s is rejected.
func TestGetFloatsRejectsRagged(t *testing.T) {
	if _, err := getFloats(nil, make([]byte, 9)); err == nil {
		t.Error("ragged payload accepted")
	}
}

// FuzzHaloFrame drives the peer-link halo decoder — the bytes another
// rank's process puts on the wire — with arbitrary payloads. It must never
// panic, accept exactly the payloads that are a header plus whole values,
// and re-encode what it accepts to the same bytes. (Whether an accepted
// frame carries the count the plan expects is the operator's check:
// TestHaloFrameWrongCount.)
func FuzzHaloFrame(f *testing.F) {
	for _, vals := range [][]float64{nil, {1.5}, {0, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}} {
		frame := encodeHalo(nil, haloFrame{seq: 7, planID: 3, values: vals})
		f.Add(frame)
		f.Add(frame[:len(frame)-1])              // ragged tail
		f.Add(append(frame, 0, 0, 0))            // odd length
		f.Add(frame[:min(len(frame), 5)])        // shorter than the header
		f.Add(append(frame, frame[8:]...))       // more values than announced anywhere
		f.Add(append([]byte(nil), frame[4:]...)) // header shifted into the values
	}
	f.Add([]byte{})
	f.Add(make([]byte, 8+8*4096)) // a large count
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Into a recycled buffer, as the peer reader decodes: none of its old
		// contents may survive into the frame.
		fr, err := decodeHalo(payload, []float64{math.NaN(), math.NaN(), math.NaN()})
		if ok := len(payload) >= 8 && (len(payload)-8)%8 == 0; ok != (err == nil) {
			t.Fatalf("%d-byte payload: err = %v", len(payload), err)
		}
		if err != nil {
			return
		}
		if len(fr.values) != (len(payload)-8)/8 {
			t.Fatalf("%d-byte payload decoded to %d values", len(payload), len(fr.values))
		}
		if again := encodeHalo(nil, fr); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded frame differs: %x vs %x", again, payload)
		}
	})
}

// FuzzCycleDone drives the cycle-done decoder — the frame every rank
// sends the coordinator every cycle — with arbitrary payloads against
// arbitrary expectations. It must never panic, accept exactly the
// payloads that are the expected count of whole values, split them at
// the expected place, and re-encode what it accepts to the same bytes.
func FuzzCycleDone(f *testing.F) {
	for _, owned := range []uint8{0, 1, 3, 7} {
		vals := make([]float64, 1+int(owned))
		for i := range vals {
			vals[i] = float64(i) + 0.25
		}
		frame := putFloats(nil, vals)
		f.Add(frame, owned)
		f.Add(frame[:len(frame)-1], owned) // ragged tail
		f.Add(frame[:len(frame)-8], owned) // a value short
		f.Add(append(frame, frame[:8]...), owned)
		f.Add(frame, owned+1) // a sample the rank does not own
		vals[len(vals)-1] = math.NaN()
		f.Add(putFloats(nil, vals), owned) // NaN bits survive the round trip
	}
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, owned uint8) {
		want := 1 + int(owned)
		cd, err := decodeCycleDone(payload, int(owned))
		if ok := len(payload) == 8*want; ok != (err == nil) {
			t.Fatalf("%d-byte payload, %d values expected: err = %v", len(payload), want, err)
		}
		if err != nil {
			return
		}
		again := putFloats(putFloats(nil, []float64{cd.t}), cd.samples)
		if len(cd.samples) != int(owned) || !bytes.Equal(again, payload) {
			t.Fatalf("decoded %d samples (owned %d); re-encoded %x vs %x",
				len(cd.samples), owned, again, payload)
		}
	})
}

// TestMalformedCycleDoneIsCorruptFailure: a cycle-done reply that passed
// its CRC but is not what this run's rank would send — another frame
// type, a ragged payload, a sample too many or too few — reaches the
// caller as a typed FailureCorrupt the recovery loop acts on, not as an
// untyped error that aborts a recoverable run.
func TestMalformedCycleDoneIsCorruptFailure(t *testing.T) {
	good := putFloats(nil, []float64{0.5, 1.5}) // time + the one owned sample
	for name, fr := range map[string]ctrlFrame{
		"wrong type": {msgStatsResp, good},
		"ragged":     {msgCycleDone, good[:len(good)-3]},
		"too few":    {msgCycleDone, good[:8]},
		"too many":   {msgCycleDone, append(append([]byte(nil), good...), good[:8]...)},
	} {
		a, b := net.Pipe()
		h := &rankHandle{c: newConn(a), frames: make(chan ctrlFrame, 1), errs: make(chan error, 1)}
		rank := newConn(b)
		go rank.recv() // swallow the step command; the reply is already queued
		h.frames <- fr
		co := &Coordinator{ranks: []*rankHandle{h}, recOwn: []int{0}}
		co.cfg.Run.Ranks, co.cfg.Run.Receivers = 1, []int{0}
		_, _, err := co.stepCycle(context.Background())
		var rf *RankFailure
		if !errors.As(err, &rf) || rf.Kind != FailureCorrupt || rf.Rank != 0 {
			t.Errorf("%s: err = %v, want a FailureCorrupt of rank 0", name, err)
		}
		h.c.close()
		rank.close()
	}
}

// FuzzConfigFrame: a rank's set-up decoder — the gob msgConfig payload
// into a configFrame, then RunConfig.validate — returns an error or a
// config that holds every invariant validate promises, and never panics.
// The seeds are a dist2-lts-elastic frame (trench 0.005, elastic, LTS,
// 2 ranks over the 2 SCOTCH-P parts of seed 1), its truncations and
// configurations validate must refuse.
func FuzzConfigFrame(f *testing.F) {
	m, lv, err := solver.MeshLevels("trench", 0.005, 0.4/16)
	if err != nil {
		f.Fatal(err)
	}
	part, err := partition.Assign(m, lv, 2, partition.ScotchP, 1)
	if err != nil {
		f.Fatal(err)
	}
	run := RunConfig{
		Spec: solver.Spec{Mesh: "trench", Scale: 0.005, Physics: "elastic", Degree: 4, LevelCFL: 0.4 / 16, LTS: true,
			Sources: []solver.Source{{Dof: 3*1000 + 2, F0: 10, T0: 0.05}}},
		Ranks: 2, Parts: 2, Part: part, Receivers: []int{0, 3*500 + 1}, HeartbeatMillis: 1000,
	}
	for _, c := range []func(*RunConfig){
		func(*RunConfig) {},
		func(c *RunConfig) { c.PartRank = []int{1, 0} },
		func(c *RunConfig) { c.PartRank = []int{0, 0} }, // rank 1 without parts
		func(c *RunConfig) { c.Ranks = 0 },
		func(c *RunConfig) { c.Parts = 1 },
		func(c *RunConfig) { c.Mesh = "cube?" },
		func(c *RunConfig) { c.Physics = "plasma" },
		func(c *RunConfig) { c.Part = []int32{0, 1, 2} },
	} {
		cf := configFrame{Run: run, SnapDir: "/dev/shm/golts-snap-1"}
		cf.Run.Part = slices.Clone(part)
		c(&cf.Run)
		frame, err := gobBytes(&cf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var cf configFrame
		if err := decodeGob(payload, &cf); err != nil {
			return
		}
		c := &cf.Run
		if err := c.validate(); err != nil {
			return
		}
		if c.Ranks < 1 || c.Parts < c.Ranks {
			t.Fatalf("validated %d ranks over %d parts", c.Ranks, c.Parts)
		}
		if _, ok := mesh.Generators[c.Mesh]; !ok || c.Physics != "acoustic" && c.Physics != "elastic" {
			t.Fatalf("validated mesh %q, physics %q", c.Mesh, c.Physics)
		}
		for _, p := range c.Part {
			if p < 0 || int(p) >= c.Parts {
				t.Fatalf("validated part id %d of %d parts", p, c.Parts)
			}
		}
		if c.PartRank == nil {
			return
		}
		held := make([]int, c.Ranks)
		for _, r := range c.PartRank {
			held[r]++ // a rank outside [0, Ranks) panics here
		}
		if len(c.PartRank) != c.Parts || slices.Contains(held, 0) {
			t.Fatalf("validated part-rank map %v for %d ranks, %d parts", c.PartRank, c.Ranks, c.Parts)
		}
	})
}
