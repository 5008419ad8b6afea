package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"golts/internal/ckpt"
)

// Wire format: every message is one length-prefixed, checksummed frame
//
//	[u32 payload length (little-endian)] [u8 type] [payload] [u32 crc]
//
// over a stream connection (TCP on 127.0.0.1). The trailing CRC32-IEEE
// covers the type byte and the payload; a mismatch on receive is a
// typed *CorruptFrameError, which the coordinator routes into checkpoint
// recovery rather than aborting the run. Control payloads
// (configuration, peer lists, statistics) are gob-encoded structs; hot
// payloads (halo contributions, receiver samples) are raw little-endian
// float64 arrays with a small fixed header, so the per-substep exchange
// never touches an encoder. Stepper state never crosses a connection:
// a snapshot is one state frame (see stateHeader) per rank, written to a
// file of the run's snapshot store (snapstore.go), and msgCkpt /
// msgCkptResp / msgRestore carry only which files to write or read and
// what they must hash to — no control frame is larger than a cycle-done
// report. The protocol is strictly sequenced — every participant knows
// which message type it expects next — so no message carries a
// correlation id beyond the halo frames' (sequence, plan) sanity pair.
const (
	// Rank → coordinator.
	msgHello       byte = 1 // [u32 rank][token bytes]
	msgPeerAddr    byte = 2 // rank's peer-listener address (string bytes)
	msgReady       byte = 3 // operators built, peers connected
	msgCycleDone   byte = 4 // [f64 time][owned receiver samples ...f64][telemetry tail], see cycleDone
	msgStatsResp   byte = 5 // gob RankStats
	msgErr         byte = 6 // error text (any time; fatal)
	msgCkptResp    byte = 7 // gob snapFile: length and CRC32 of the footprint file written
	msgRestoreDone byte = 8 // restore installed: empty; else why the snapshot is unusable (text)
	msgHeartbeat   byte = 9 // periodic liveness beacon, empty payload

	// Coordinator → rank.
	msgConfig   byte = 10 // gob configFrame: RunConfig + snapshot directory
	msgPeers    byte = 11 // gob []string peer addresses, rank order
	msgStep     byte = 12 // [u32 cycles]
	msgStats    byte = 13 // request RankStats
	msgShutdown byte = 14 // clean exit
	msgCkpt     byte = 15 // [u32 slot]: write your footprint file of that slot (reply msgCkptResp)
	msgRestore  byte = 16 // gob snapshot: overlay its files, install, reply msgRestoreDone

	// Rank → rank.
	msgPeerHello byte = 20 // [u32 rank][token bytes]
	msgHalo      byte = 21 // [u32 seq][u32 plan id][values ...f64]
)

// configFrame is the msgConfig payload: the caller's run description plus
// what the coordinator adds to it for this run.
type configFrame struct {
	Run     RunConfig
	SnapDir string // the run's snapshot store
}

// A state frame is a stepper snapshot as a file of the snapshot store:
//
//	[u32 header length] [gob stateHeader] [nodes ...i32] [U ...f64] [V ...f64]
//
// A full frame carries all NDof values of U and V, a footprint frame only
// those on the listed nodes, Comps per node: a rank advances, and so holds,
// only the nodes its owned elements touch
// (Operator.OwnedNodes), so a snapshot is one footprint frame per rank
// and the exact global state is their overlay — every node lies in some
// footprint, where footprints overlap the values agree bitwise, and the
// scalars are the same on every rank. The header's State travels without
// U and V; a decoded full frame is the same struct with them filled in.
type stateHeader struct {
	State ckpt.StepperState
	NDof  int // length of the full field arrays
	Comps int // field components per node (dof = node*Comps + c)
	Nodes int // footprint node count, -1 in a full frame
}

// StateFrameError reports a state frame that arrived intact (its CRC
// matched) but does not describe a consistent snapshot of this run.
type StateFrameError struct{ Reason string }

func (e *StateFrameError) Error() string { return "dist: malformed state frame: " + e.Reason }

// encodeState builds a state frame — full, or U and V on the footprint
// nodes only — in buf's storage, grown as needed (a periodic sender keeps
// the result as the next call's buf).
func encodeState(buf []byte, st *ckpt.StepperState, comps int, nodes []int32, full bool) ([]byte, error) {
	h := stateHeader{State: *st, NDof: len(st.U), Comps: comps, Nodes: len(nodes)}
	h.State.U, h.State.V = nil, nil
	size := len(nodes) * (4 + 16*comps)
	if full {
		h.Nodes, nodes, size = -1, nil, 16*len(st.U)
	}
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&h); err != nil {
		return nil, err
	}
	buf = slices.Grow(buf[:0], 4+hdr.Len()+size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hdr.Len()))
	buf = append(buf, hdr.Bytes()...)
	if full {
		return putFloats(putFloats(buf, st.U), st.V), nil
	}
	for _, n := range nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	for _, field := range [][]float64{st.U, st.V} {
		for _, n := range nodes {
			buf = putFloats(buf, field[int(n)*comps:int(n)*comps+comps])
		}
	}
	return buf, nil
}

// parseStateFrame splits a state frame into its validated header and the
// body the header has yet to be checked against.
func parseStateFrame(payload []byte) (h stateHeader, body []byte, err error) {
	bad := func(format string, a ...any) (stateHeader, []byte, error) {
		return stateHeader{}, nil, &StateFrameError{Reason: fmt.Sprintf(format, a...)}
	}
	if len(payload) < 4 {
		return bad("%d bytes, no header length", len(payload))
	}
	hlen := int(binary.LittleEndian.Uint32(payload))
	if hlen > len(payload)-4 {
		return bad("header of %d bytes in a %d-byte payload", hlen, len(payload))
	}
	if err := decodeGob(payload[4:4+hlen], &h); err != nil {
		return bad("header: %v", err)
	}
	if h.State.U != nil || h.State.V != nil || h.NDof < 0 || h.Comps < 0 || h.Comps > maxFrame {
		return bad("header carries arrays, %d dofs, %d components", h.NDof, h.Comps)
	}
	return h, payload[4+hlen:], nil
}

// decodeState parses and validates a state frame and overlays it on base:
// the frame's scalars, and U and V on its nodes (all of them for a full
// frame), which are marked in seen when that is non-nil (one entry per
// node of base). base must describe the same field; only a full frame
// may come without one and then yields a new base. On error base is left
// partly overlaid: discard it. Nothing is indexed before it has been
// checked against payload and field.
func decodeState(payload []byte, base *stateHeader, seen []bool) (*stateHeader, error) {
	bad := func(format string, a ...any) (*stateHeader, error) {
		return nil, &StateFrameError{Reason: fmt.Sprintf(format, a...)}
	}
	h, body, err := parseStateFrame(payload)
	if err != nil {
		return nil, err
	}
	if h.Nodes < 0 {
		if len(body)/16 != h.NDof || len(body)%16 != 0 {
			return bad("%d body bytes for 2 x %d values", len(body), h.NDof)
		}
		if base == nil {
			base = &stateHeader{NDof: h.NDof, Comps: h.Comps, Nodes: -1}
		} else if h.NDof != base.NDof {
			return bad("full frame of a %d-dof field onto a %d-dof one", h.NDof, base.NDof)
		}
		h.State.U, _ = getFloats(base.State.U, body[:len(body)/2])
		h.State.V, _ = getFloats(base.State.V, body[len(body)/2:])
		base.State = h.State
		for n := range seen {
			seen[n] = true
		}
		return base, nil
	}
	if base == nil || h.NDof != base.NDof || h.Comps != base.Comps || h.Comps == 0 || h.NDof%h.Comps != 0 {
		return bad("footprint of a %d-dof, %d-component field does not fit the base", h.NDof, h.Comps)
	}
	// A node costs its id plus Comps values of U and of V: size the count
	// by the body before multiplying.
	nc := h.Comps
	if per := 4 + 16*nc; len(body)/per != h.Nodes || len(body)%per != 0 {
		return bad("%d footprint nodes x %d components in a %d-byte body", h.Nodes, nc, len(body))
	}
	ids, vals := body[:4*h.Nodes], body[4*h.Nodes:]
	for f, field := range [][]float64{base.State.U, base.State.V} {
		src := vals[f*len(vals)/2:]
		for i := 0; i < h.Nodes; i++ {
			n := int(binary.LittleEndian.Uint32(ids[4*i:]))
			if n >= h.NDof/nc {
				return bad("footprint node %d outside [0,%d)", n, h.NDof/nc)
			}
			for c := 0; c < nc; c++ {
				field[n*nc+c] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*(i*nc+c):]))
			}
			if f == 0 && seen != nil {
				seen[n] = true
			}
		}
	}
	h.State.U, h.State.V = base.State.U, base.State.V
	base.State = h.State
	return base, nil
}

// maxFrame bounds a frame payload; anything larger indicates a corrupt
// or foreign stream.
const maxFrame = 1 << 30

// writeFrameTimeout is the per-frame write deadline applied to every
// send: a healthy receiver drains frames immediately (loopback TCP), so
// a write that cannot complete within this budget means the peer has
// stopped reading and the sender must not hang on it.
const writeFrameTimeout = 60 * time.Second

// CorruptFrameError reports a frame whose CRC32 tail did not match its
// contents (or whose header is structurally impossible): the stream
// delivered bytes, but not the bytes that were sent. The coordinator
// classifies it as FailureCorrupt and recovers the affected rank from
// the last checkpoint instead of trusting anything further on the
// stream.
type CorruptFrameError struct {
	Type byte   // frame type byte as received
	Len  int    // payload length as received
	Want uint32 // checksum carried by the frame
	Got  uint32 // checksum computed over the received bytes
}

func (e *CorruptFrameError) Error() string {
	if e.Want == e.Got {
		return fmt.Sprintf("dist: corrupt frame: type %d with impossible length %d", e.Type, e.Len)
	}
	return fmt.Sprintf("dist: corrupt frame: type %d len %d: crc %08x, frame claims %08x",
		e.Type, e.Len, e.Got, e.Want)
}

// conn wraps a stream connection with buffered framed I/O. Sends are
// serialized by a mutex (the heartbeat goroutine shares the rank →
// coordinator direction with the serve loop); the receive direction
// still admits exactly one goroutine.
//
// corruptNext and stallNanos are fault-injection hooks driven by the
// corrupt / stall-link GOLTS_FAULT verbs: the former flips bits in the
// next frame's CRC tail after it is computed (so the receiver sees a
// checksum mismatch on an otherwise well-formed frame), the latter is
// drained and slept inside send while the write mutex is held, so every
// sender sharing the conn — the heartbeat goroutine included — blocks
// behind the stalled link.
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	wmu sync.Mutex
	w   *bufio.Writer
	// Frame header and tail of the send (under wmu) and header of the
	// receive in progress: they pass through an io interface, so as locals
	// they would be heap-allocated per frame.
	whdr [5]byte
	wcrc [4]byte
	rhdr [5]byte

	corruptNext atomic.Bool
	stallNanos  atomic.Int64
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, r: bufio.NewReaderSize(c, 1<<16), w: bufio.NewWriterSize(c, 1<<16)}
}

// frameCRC is the checksum carried in a frame's tail: CRC32-IEEE over
// the type byte (the last of the 5-byte frame header) followed by the
// payload.
func frameCRC(hdr *[5]byte, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, payload)
}

// send writes one framed message and flushes it, under a per-frame
// write deadline.
func (c *conn) send(t byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if d := c.stallNanos.Swap(0); d > 0 {
		time.Sleep(time.Duration(d))
	}
	c.c.SetWriteDeadline(time.Now().Add(writeFrameTimeout))
	binary.LittleEndian.PutUint32(c.whdr[:4], uint32(len(payload)))
	c.whdr[4] = t
	if _, err := c.w.Write(c.whdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(c.wcrc[:], frameCRC(&c.whdr, payload))
	if c.corruptNext.CompareAndSwap(true, false) {
		c.wcrc[0] ^= 0xff
	}
	if _, err := c.w.Write(c.wcrc[:]); err != nil {
		return err
	}
	return c.w.Flush()
}

// recv reads one framed message, verifying the CRC tail. The returned
// payload is freshly allocated and owned by the caller.
func (c *conn) recv() (byte, []byte, error) { return c.recvInto(nil) }

// recvInto is recv with the payload read into buf's storage, grown as
// needed: for a reader that is done with one frame before it reads the
// next.
func (c *conn) recvInto(buf []byte) (byte, []byte, error) {
	hdr := &c.rhdr
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, &CorruptFrameError{Type: hdr[4], Len: int(n)}
	}
	payload := slices.Grow(buf[:0], int(n)+4)[:n+4]
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return 0, nil, err
	}
	want := binary.LittleEndian.Uint32(payload[n:])
	payload = payload[:n]
	if got := frameCRC(hdr, payload); got != want {
		return 0, nil, &CorruptFrameError{Type: hdr[4], Len: int(n), Want: want, Got: got}
	}
	return hdr[4], payload, nil
}

// expect reads one message and checks its type, converting msgErr frames
// into errors carrying the remote text.
func (c *conn) expect(t byte) ([]byte, error) {
	got, payload, err := c.recv()
	if err != nil {
		return nil, err
	}
	if got == msgErr {
		return nil, fmt.Errorf("dist: remote error: %s", payload)
	}
	if got != t {
		return nil, fmt.Errorf("dist: expected message type %d, got %d", t, got)
	}
	return payload, nil
}

// sendGob gob-encodes v as the payload of one message.
func (c *conn) sendGob(t byte, v any) error {
	payload, err := gobBytes(v)
	if err != nil {
		return err
	}
	return c.send(t, payload)
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// setDeadline applies an absolute deadline to the underlying connection;
// a zero time clears it.
func (c *conn) setDeadline(t time.Time) { c.c.SetDeadline(t) }

func (c *conn) close() { c.c.Close() }

// putFloats appends the little-endian encoding of vals to buf.
func putFloats(buf []byte, vals []float64) []byte {
	off := len(buf)
	buf = slices.Grow(buf, 8*len(vals))[:off+8*len(vals)]
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return buf
}

// haloFrame is one halo message: [u32 seq][u32 plan id][values ...f64].
// Whether it carries the count the plan expects is the operator's check.
type haloFrame struct {
	seq, planID uint32
	values      []float64
}

// encodeHalo appends fr's payload to buf.
func encodeHalo(buf []byte, fr haloFrame) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, fr.seq)
	buf = binary.LittleEndian.AppendUint32(buf, fr.planID)
	return putFloats(buf, fr.values)
}

// decodeHalo parses a halo payload: a header, then whole values, decoded
// into vals' storage where that is large enough.
func decodeHalo(payload []byte, vals []float64) (fr haloFrame, err error) {
	if len(payload) < 8 {
		return fr, fmt.Errorf("dist: halo frame of %d bytes", len(payload))
	}
	fr.seq = binary.LittleEndian.Uint32(payload[0:4])
	fr.planID = binary.LittleEndian.Uint32(payload[4:8])
	fr.values, err = getFloats(vals, payload[8:])
	return fr, err
}

// cycleDone is one rank's end-of-cycle report, the payload of
// msgCycleDone: the cycle time, the samples of the receivers the rank
// owns (ascending receiver index) and, with telemetry on, the cycle's
// owned-part compute nanos followed by its halo-wait nanos per peer rank.
type cycleDone struct {
	t       float64
	samples []float64
	busy    float64
	wait    []float64
}

// decodeCycleDone parses a cycle-done payload against what the receiver
// knows to expect: owned receiver samples, and a telemetry tail of
// 1 + ranks values or none. Anything else — a ragged payload, a value
// too many or too few — is an error, never an index.
func decodeCycleDone(payload []byte, owned int, telemetry bool, ranks int) (cd cycleDone, err error) {
	vals, err := getFloats(nil, payload)
	if err != nil {
		return cd, err
	}
	want := 1 + owned
	if telemetry {
		want += 1 + ranks
	}
	if len(vals) != want {
		return cd, fmt.Errorf("dist: cycle-done frame of %d values, want %d", len(vals), want)
	}
	cd.t, cd.samples = vals[0], vals[1:1+owned]
	if telemetry {
		cd.busy, cd.wait = vals[1+owned], vals[2+owned:]
	}
	return cd, nil
}

// getFloats decodes a little-endian float64 array from payload into
// dst's storage, or into a fresh slice when that is too small.
func getFloats(dst []float64, payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("dist: float payload of %d bytes", len(payload))
	}
	out := slices.Grow(dst[:0], len(payload)/8)[:len(payload)/8]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}
