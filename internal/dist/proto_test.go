package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"testing"
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
		Mesh: "trench", Scale: 0.5, Physics: "elastic", Degree: 4,
		LevelCFL: 0.025, LTS: true, Ranks: 2, Parts: 4,
		Part:      []int32{0, 1, 2, 3},
		Sources:   []SourceSpec{{Dof: 7, F0: 10, T0: 0.05}},
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
	if got.Mesh != want.Mesh || got.Parts != want.Parts || len(got.Part) != 4 ||
		got.Sources[0].F0 != 10 || got.Receivers[2] != 3 {
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
// the expected places, and re-encode what it accepts to the same bytes.
func FuzzCycleDone(f *testing.F) {
	for _, tc := range []struct {
		owned     uint8
		telemetry bool
		ranks     uint8
	}{{0, false, 2}, {3, false, 2}, {0, true, 1}, {2, true, 4}} {
		n := 1 + int(tc.owned)
		if tc.telemetry {
			n += 1 + int(tc.ranks)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i) + 0.25
		}
		frame := putFloats(nil, vals)
		f.Add(frame, tc.owned, tc.telemetry, tc.ranks)
		f.Add(frame[:len(frame)-1], tc.owned, tc.telemetry, tc.ranks) // ragged tail
		f.Add(frame[:len(frame)-8], tc.owned, tc.telemetry, tc.ranks) // a value short
		f.Add(append(frame, frame[:8]...), tc.owned, tc.telemetry, tc.ranks)
		f.Add(frame, tc.owned+1, tc.telemetry, tc.ranks) // a sample the rank does not own
		f.Add(frame, tc.owned, !tc.telemetry, tc.ranks)  // tail unexpected, or missing
	}
	f.Add([]byte{}, uint8(0), false, uint8(1))
	f.Fuzz(func(t *testing.T, payload []byte, owned uint8, telemetry bool, ranks uint8) {
		want := 1 + int(owned)
		if telemetry {
			want += 1 + int(ranks)
		}
		cd, err := decodeCycleDone(payload, int(owned), telemetry, int(ranks))
		if ok := len(payload) == 8*want; ok != (err == nil) {
			t.Fatalf("%d-byte payload, %d values expected: err = %v", len(payload), want, err)
		}
		if err != nil {
			return
		}
		again := putFloats(putFloats(nil, []float64{cd.t}), cd.samples)
		if telemetry {
			again = putFloats(putFloats(again, []float64{cd.busy}), cd.wait)
		}
		if len(cd.samples) != int(owned) || (telemetry && len(cd.wait) != int(ranks)) || !bytes.Equal(again, payload) {
			t.Fatalf("decoded %d samples, %d waits (owned %d, telemetry %v, ranks %d); re-encoded %x vs %x",
				len(cd.samples), len(cd.wait), owned, telemetry, ranks, again, payload)
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
