package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"golts/internal/solver"
)

// Environment variables of the spawn handshake. A process started with
// these set is a rank of some coordinator's run and must hand control to
// RankMain before doing anything else.
const (
	envRank  = "GOLTS_DIST_RANK"
	envAddr  = "GOLTS_DIST_ADDR"
	envToken = "GOLTS_DIST_TOKEN"
)

// IsRank reports whether this process was spawned as a rank.
func IsRank() bool { return os.Getenv(envRank) != "" }

// RankMain is the cooperative re-exec hook of the distributed backend:
// binaries that start distributed runs (and test binaries whose tests
// do) must call it at the top of main / TestMain. In a normal process it
// returns immediately; in a spawned rank process it runs the rank
// runtime to completion and exits, never returning.
func RankMain() {
	if !IsRank() {
		return
	}
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: bad %s: %v\n", envRank, err)
		os.Exit(2)
	}
	gen, _ := strconv.Atoi(os.Getenv(envGen))
	faults, err := faultsFromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: rank %d: %v\n", rank, err)
		os.Exit(2)
	}
	if err := runRank(rankParams{
		rank:    rank,
		addr:    os.Getenv(envAddr),
		token:   os.Getenv(envToken),
		gen:     gen,
		faults:  faults,
		spawned: true,
	}); err != nil {
		if !errors.As(err, new(reportedError)) {
			fmt.Fprintf(os.Stderr, "dist: rank %d: %v\n", rank, err)
		}
		os.Exit(1)
	}
	os.Exit(0)
}

// reportedError is an error the rank delivered to the coordinator as
// msgErr. The coordinator reports it, as a RankFailure or a recovery, so
// the rank does not print it too.
type reportedError struct{ error }

// report delivers err to the coordinator and marks it reported, or
// returns it unmarked when the coordinator cannot be told.
func (r *rankRun) report(err error) error {
	if r.coord.send(msgErr, []byte(err.Error())) != nil {
		return err
	}
	return reportedError{err}
}

// rankParams identifies one rank's place in a run; in spawned mode they
// arrive through the environment, in in-process mode directly.
type rankParams struct {
	rank    int
	addr    string // coordinator address
	token   string
	gen     int          // coordinator spawn generation (0 = initial launch)
	faults  []*FaultPlan // injected faults, if any
	spawned bool         // true in a separate rank process
	// onRestore, when set, runs on the rank's field arrays right before
	// every restore overlays a snapshot on them (tests only).
	onRestore func(*rankRun)
}

// peerLink is one rank↔rank connection: sends run on the stepping
// goroutine (the far side's reader always drains, so writes cannot
// deadlock), receives are decoded by a dedicated reader goroutine into a
// buffered channel. Lockstep stepping bounds the frames in flight per
// pair to a handful, far below the channel capacity. The value buffers
// circulate: the stepping goroutine hands each one back on free once it
// has assembled the frame, and the reader decodes a later frame into it,
// so a steady-state exchange allocates nothing.
type peerLink struct {
	c      *conn
	frames chan haloFrame
	free   chan []float64 // as many as frames can hold: one per frame in flight
	errs   chan error
	timer  *time.Timer // reusable receive-timeout timer, owned by recvHalo
}

func newPeerLink(c *conn) *peerLink {
	l := &peerLink{c: c, frames: make(chan haloFrame, 16), free: make(chan []float64, 16), errs: make(chan error, 1)}
	go func() {
		var raw []byte // the last frame's bytes: decoded, so the next is read over them
		for {
			t, payload, err := c.recvInto(raw)
			if err == nil && t != msgHalo {
				err = fmt.Errorf("dist: unexpected peer frame type %d (%d bytes)", t, len(payload))
			}
			var fr haloFrame
			if err == nil {
				raw = payload
				var vals []float64
				select {
				case vals = <-l.free:
				default:
				}
				fr, err = decodeHalo(payload, vals)
			}
			if err != nil {
				l.errs <- err
				close(l.frames)
				return
			}
			l.frames <- fr
		}
	}()
	return l
}

// peerFabric implements exchanger over the rank's peer links: halo
// frames only, untimed (a rank's telemetry times whole level applies).
type peerFabric struct {
	links   []*peerLink // indexed by rank; nil for self
	buf     []byte      // reusable send frame
	timeout time.Duration
}

func (f *peerFabric) sendHalo(rank int, seq, planID uint32, values []float64) error {
	f.buf = encodeHalo(f.buf[:0], haloFrame{seq, planID, values})
	return f.links[rank].c.send(msgHalo, f.buf)
}

func (f *peerFabric) recvHalo(rank int) (uint32, uint32, []float64, error) {
	l := f.links[rank]
	if f.timeout <= 0 {
		fr, ok := <-l.frames
		if !ok {
			return 0, 0, nil, <-l.errs
		}
		return fr.seq, fr.planID, fr.values, nil
	}
	// Bounded wait, so a dead or stalled peer cannot hang the substep
	// forever; the timer is reused across the hot path.
	if l.timer == nil {
		l.timer = time.NewTimer(f.timeout)
	} else {
		l.timer.Reset(f.timeout)
	}
	select {
	case fr, ok := <-l.frames:
		if !l.timer.Stop() {
			<-l.timer.C
		}
		if !ok {
			return 0, 0, nil, <-l.errs
		}
		return fr.seq, fr.planID, fr.values, nil
	case <-l.timer.C:
		return 0, 0, nil, fmt.Errorf("dist: no halo frame from rank %d within %v", rank, f.timeout)
	}
}

func (f *peerFabric) releaseHalo(rank int, values []float64) {
	select {
	case f.links[rank].free <- values:
	default: // more buffers than frames in flight: drop this one
	}
}

func (f *peerFabric) close() {
	for _, l := range f.links {
		if l != nil {
			l.c.close()
		}
	}
}

// RankStats is one rank's contribution to the aggregated run statistics:
// the real communication counters of its distributed operator plus the
// rank-local scheme's work model (element applies are counted over the
// mesh's element lists, which every rank walks alike, so the model is
// identical on every rank and the coordinator reports rank 0's).
type RankStats struct {
	Applies, Messages, Volume int64
	ElemApplies               int64
	// Cycles counts coarse cycles on both schemes.
	Cycles           int64
	EffectiveSpeedup float64
	Efficiency       float64

	// LinkRetries counts connection attempts beyond the first that this
	// rank needed to reach the coordinator or a peer — nonzero means the
	// bounded reconnect-with-backoff path absorbed transient link errors.
	LinkRetries int64
	// PeakRSS is the rank process's peak resident set in bytes (VmHWM; 0
	// where unavailable). In-process ranks report their shared process's.
	PeakRSS int64

	// Telemetry (populated only when RunConfig.Telemetry is set):
	// LevelNanos is the cumulative per-LTS-level kernel wall time of this
	// rank.
	LevelNanos []int64
	// PointwiseNanos is the cumulative wall time of this rank's cycles
	// outside its stiffness applications (LevelNanos, which span compute,
	// halo exchange and assembly): the stepper's own pointwise work over
	// the rank's share of the nodes — ActiveNodes in the substepping
	// region plus FarNodes updated once per cycle, together the
	// FootprintNodes of Operator.OwnedNodes. LTS only.
	PointwiseNanos                        int64
	ActiveNodes, FarNodes, FootprintNodes int
}

// rankRun is the live state of one rank process.
type rankRun struct {
	params rankParams
	cfg    RunConfig
	coord  *conn
	fabric *peerFabric
	dop    *Operator
	st     *solver.Stepper
	// recDof lists the compact-numbered dofs of the receivers this rank
	// owns, in cfg.Receivers order, the order samples are reported in.
	recDof []int
	// stepNanos is the cumulative wall time of st.Step (telemetry only).
	stepNanos int64
	// linkRetries counts reconnect attempts beyond the first.
	linkRetries int64
	store       snapStore // the run's snapshot store, as broadcast
	vals        []float64 // last cycle-done report and its frame, reused
	frame       []byte

	// Fault-injection state (nil fault = none armed).
	fault   *FaultPlan
	fcycle  int64       // 1-based cycle in progress
	fsub    int         // stiffness applies seen in the current cycle
	stalled atomic.Bool // silences the heartbeat during an injected stall
}

// dialRetry dials with bounded retry and exponential backoff, absorbing
// transient link errors (a listener mid-restart, an exhausted accept
// backlog). Attempts beyond the first are counted into *retries.
func dialRetry(addr string, timeout time.Duration, retries *int64) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			*retries++
			time.Sleep(backoff)
			backoff *= 2
		}
		var c net.Conn
		if c, err = net.DialTimeout("tcp", addr, timeout); err == nil {
			return c, nil
		}
	}
	return nil, err
}

// runRank executes one rank to completion: handshake, deterministic
// rebuild, peer wiring, then the lockstep step/stats/shutdown service
// loop.
func runRank(params rankParams) (err error) {
	// An in-process kill fault panics out of the stepper; converting it
	// into an error here — after the deferred connection closes have run
	// — makes the rank vanish mid-cycle without a farewell frame, the
	// in-process analogue of SIGKILL. (Registered first so it runs last.)
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(*killPanic); ok {
				err = errors.New("rank killed by fault injection")
				return
			}
			panic(rec)
		}
	}()
	r := &rankRun{params: params}
	nc, err := dialRetry(params.addr, handshakeTimeout, &r.linkRetries)
	if err != nil {
		return fmt.Errorf("dialing coordinator: %w", err)
	}
	r.coord = newConn(nc)
	for _, f := range params.faults {
		if f != nil && f.Rank == params.rank && f.Gen == params.gen {
			r.fault = f
			break
		}
	}
	defer r.coord.close()
	if err := r.handshake(); err != nil {
		return err
	}
	defer r.fabric.close()
	if err := r.build(); err != nil {
		return r.report(err)
	}
	if err := r.coord.send(msgReady, nil); err != nil {
		return err
	}
	return r.serve()
}

// handshake runs the startup dance: hello, config broadcast, peer
// listener exchange, full-mesh peer wiring.
func (r *rankRun) handshake() error {
	deadline := time.Now().Add(handshakeTimeout)
	r.coord.setDeadline(deadline)
	defer r.coord.setDeadline(time.Time{})

	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(r.params.rank))
	if err := r.coord.send(msgHello, append(hello[:], r.params.token...)); err != nil {
		return err
	}
	payload, err := r.coord.expect(msgConfig)
	if err != nil {
		return err
	}
	var cf configFrame
	if err := decodeGob(payload, &cf); err != nil {
		return fmt.Errorf("decoding config: %w", err)
	}
	r.cfg, r.store.dir = cf.Run, cf.SnapDir
	if err := r.cfg.validate(); err != nil {
		return err
	}

	// Publish a peer listener, learn everyone's, then wire the mesh:
	// dial every lower rank, accept every higher rank. Peer hellos carry
	// the rank id and the run token, so stray connections are rejected.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	if err := r.coord.send(msgPeerAddr, []byte(ln.Addr().String())); err != nil {
		return err
	}
	payload, err = r.coord.expect(msgPeers)
	if err != nil {
		return err
	}
	var addrs []string
	if err := decodeGob(payload, &addrs); err != nil {
		return fmt.Errorf("decoding peer list: %w", err)
	}
	if len(addrs) != r.cfg.Ranks {
		return fmt.Errorf("peer list has %d entries for %d ranks", len(addrs), r.cfg.Ranks)
	}

	links := make([]*peerLink, r.cfg.Ranks)
	for q := 0; q < r.params.rank; q++ {
		c, err := dialRetry(addrs[q], handshakeTimeout, &r.linkRetries)
		if err != nil {
			return fmt.Errorf("dialing rank %d: %w", q, err)
		}
		pc := newConn(c)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(r.params.rank))
		if err := pc.send(msgPeerHello, append(hdr[:], r.params.token...)); err != nil {
			return err
		}
		links[q] = newPeerLink(pc)
	}
	// Accept until every higher rank has identified itself. Stray
	// connections (port probes, misdirected clients, bad tokens, or
	// malformed hellos) are discarded and accepting continues; only the
	// deadline aborts the run.
	for connected := r.params.rank + 1; connected < r.cfg.Ranks; {
		c, err := acceptWithDeadline(ln, deadline)
		if err != nil {
			return fmt.Errorf("accepting peer: %w", err)
		}
		pc := newConn(c)
		pc.setDeadline(deadline)
		payload, err := pc.expect(msgPeerHello)
		if err != nil || len(payload) < 4 || string(payload[4:]) != r.params.token {
			pc.close()
			continue // stray connection; keep accepting
		}
		from := int(binary.LittleEndian.Uint32(payload[:4]))
		if from <= r.params.rank || from >= r.cfg.Ranks || links[from] != nil {
			pc.close()
			continue
		}
		pc.setDeadline(time.Time{})
		links[from] = newPeerLink(pc)
		connected++
	}
	r.fabric = &peerFabric{links: links, timeout: r.cfg.peerTimeout()}
	return nil
}

func acceptWithDeadline(ln net.Listener, deadline time.Time) (net.Conn, error) {
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	return ln.Accept()
}

// build constructs the rank-local simulation from the broadcast
// configuration through package solver — mesh, levels and operator, then
// the scheme with its sources and sponge over the distributed wrapper —
// and finds the receivers this rank owns. Mesh and operator are replicated
// on every rank; the state is not: either scheme takes the distributed
// operator's footprint as its node domain and holds, advances and applies
// the sources of those nodes alone, in the footprint's compact numbering,
// into which the receivers are translated here. Every step is
// deterministic, so each rank agrees bitwise with the shared-memory
// baseline on its footprint (see Operator.OwnedNodes).
func (r *rankRun) build() error {
	m, lv, geom, err := r.cfg.Discretize()
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	dop, err := NewOperator(geom, &r.cfg, r.params.rank, r.fabric)
	if err != nil {
		return err
	}
	r.dop = dop
	if r.fault != nil {
		r.dop.OnApply = r.faultHook
	}
	if r.st, err = r.cfg.NewStepper(dop, geom, m, lv, r.cfg.Telemetry); err != nil {
		return err
	}

	owners, err := ReceiverOwners(geom, &r.cfg)
	if err != nil {
		return err
	}
	nc := dop.Comps()
	for i, owner := range owners {
		if owner == r.params.rank {
			dof := r.cfg.Receivers[i]
			n, _ := slices.BinarySearch(dop.OwnedNodes(), int32(dof/nc)) // the owner's elements touch it
			r.recDof = append(r.recDof, n*nc+dof%nc)
		}
	}
	return nil
}

// serve is the control loop: execute coordinator commands until
// shutdown. Halo traffic flows rank-to-rank inside st.Step; only
// control and samples touch the coordinator link. A heartbeat goroutine
// shares the coordinator link (conn sends are mutex-serialized) so the
// coordinator can tell a slow cycle from a dead or stalled rank.
func (r *rankRun) serve() error {
	if hb := r.cfg.heartbeatInterval(); hb > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if r.stalled.Load() {
						continue
					}
					if r.coord.send(msgHeartbeat, nil) != nil {
						return
					}
				}
			}
		}()
	}
	for {
		t, payload, err := r.coord.recv()
		if err != nil {
			// A vanished coordinator means the run is over (crash or kill);
			// exiting is the only useful response.
			return fmt.Errorf("coordinator link lost: %w", err)
		}
		switch t {
		case msgStep:
			if len(payload) != 4 {
				return fmt.Errorf("malformed step frame (%d bytes)", len(payload))
			}
			cycles := int(binary.LittleEndian.Uint32(payload))
			for i := 0; i < cycles; i++ {
				if err := r.stepOnce(); err != nil {
					return r.report(err)
				}
			}
		case msgStats:
			st := r.stats()
			if err := r.coord.sendGob(msgStatsResp, &st); err != nil {
				return err
			}
		case msgCkpt:
			// The arrays hold the footprint, in its order: this rank's
			// share of the snapshot, written as it is.
			if len(payload) != 4 {
				return fmt.Errorf("malformed snapshot frame (%d bytes)", len(payload))
			}
			slot := int(binary.LittleEndian.Uint32(payload))
			file, err := r.store.save(r.params.gen, slot, r.params.rank, r.st.View(), r.dop.NDof(), r.dop.Comps(), r.dop.OwnedNodes())
			if err != nil {
				return r.report(err)
			}
			if f := r.fault; f != nil && f.Substep < 0 && f.Cycle == r.fcycle {
				r.trigger() // written, never answered for: the slot stays uncommitted
			}
			if err := r.coord.sendGob(msgCkptResp, &file); err != nil {
				return err
			}
		case msgRestore:
			// This rank's footprint, picked out of every rank's frame — all
			// of them: a restored rank may own what none of the writers did.
			if r.params.onRestore != nil {
				r.params.onRestore(r)
			}
			st := r.st.View()
			err := r.store.restore(payload, st, r.dop.NDof(), r.dop.Comps(), r.dop.OwnedNodes())
			if err == nil {
				err = r.st.Restore(st)
			}
			var why []byte
			if err != nil {
				why = []byte(err.Error())
			}
			if err := r.coord.send(msgRestoreDone, why); err != nil {
				return err
			}
		case msgShutdown:
			return nil
		default:
			return fmt.Errorf("unexpected control frame type %d", t)
		}
	}
}

// stats collects the rank's RankStats: its operator's halo counters, the
// scheme's work model and, with telemetry, the timing and node split.
func (r *rankRun) stats() RankStats {
	ds := r.dop.Stats()
	w := r.st.Work()
	st := RankStats{
		Applies: ds.Applies, Messages: ds.Messages, Volume: ds.Volume,
		ElemApplies: w.ElemApplies, Cycles: w.Cycles,
		EffectiveSpeedup: w.EffectiveSpeedup, Efficiency: w.Efficiency,
		LinkRetries: r.linkRetries, PeakRSS: peakRSS(),
	}
	if !r.cfg.Telemetry {
		return st
	}
	st.FootprintNodes = len(r.dop.OwnedNodes())
	if sch := r.st.LTS; sch != nil {
		st.LevelNanos = append([]int64(nil), w.LevelNanos...)
		st.PointwiseNanos = r.stepNanos
		for _, n := range st.LevelNanos {
			st.PointwiseNanos -= n
		}
		active, far := sch.Domain()
		st.ActiveNodes, st.FarNodes = len(active), len(far)
	}
	return st
}

// peakRSS is this process's VmHWM in bytes, 0 where /proc is unavailable.
func peakRSS() int64 {
	raw, _ := os.ReadFile("/proc/self/status")
	_, f, _ := strings.Cut(string(raw), "VmHWM:")
	f, _, _ = strings.Cut(f, "kB")
	kb, _ := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
	return kb << 10
}

// stepOnce advances one coarse cycle and reports the cycle time plus the
// owned receivers' samples. Communication failures inside the halo
// exchange surface as commError panics; they are converted back into
// errors here, at the cycle boundary.
func (r *rankRun) stepOnce() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			ce, ok := rec.(*commError)
			if !ok {
				panic(rec)
			}
			err = ce.err
		}
	}()
	if r.fault != nil {
		r.fcycle++
		r.fsub = 0
		if r.fcycle == r.fault.Cycle && r.fault.Substep == 0 {
			r.trigger()
		}
	}
	var start time.Time
	if r.cfg.Telemetry {
		start = time.Now()
	}
	r.st.Step()
	u := r.st.State()
	vals := append(r.vals[:0], r.st.Time())
	for _, d := range r.recDof {
		vals = append(vals, u[d])
	}
	if r.cfg.Telemetry {
		r.stepNanos += time.Since(start).Nanoseconds()
	}
	r.vals, r.frame = vals, putFloats(r.frame[:0], vals)
	return r.coord.send(msgCycleDone, r.frame)
}

// faultHook counts stiffness applies and fires the armed fault at its
// (cycle, substep) address. It runs inside the stepper, immediately
// before the addressed apply begins.
func (r *rankRun) faultHook() {
	r.fsub++
	if r.fault != nil && r.fcycle == r.fault.Cycle && r.fsub == r.fault.Substep {
		r.trigger()
	}
}

// trigger executes the armed fault. Kill never returns.
func (r *rankRun) trigger() {
	p := r.fault
	r.fault = nil // one-shot
	switch p.Kind {
	case FaultDelay:
		time.Sleep(p.Delay)
	case FaultStall:
		// Freeze with every connection open: heartbeats stop (stalled is
		// checked by the beacon goroutine) and nothing is answered, so only
		// the coordinator's heartbeat timeout can notice. A spawned rank is
		// killed during recovery; either kind exits, the way a killed one
		// does, once the coordinator closes its link or shuts it down.
		r.stalled.Store(true)
		for {
			if t, _, err := r.coord.recv(); err != nil || t == msgShutdown {
				panic(&killPanic{})
			}
		}
	case FaultKill:
		if r.params.spawned {
			// Real SIGKILL: no deferred cleanup, no farewell frame —
			// exactly what a crashed node looks like.
			if proc, err := os.FindProcess(os.Getpid()); err == nil {
				proc.Kill()
			}
			os.Exit(137)
		}
		panic(&killPanic{})
	case FaultDropLink:
		// Sever the uplink only: the next coordinator-bound frame fails,
		// the serve loop exits, and the coordinator sees a silent drop.
		r.coord.close()
	case FaultStallLink:
		// Freeze the uplink at the conn layer for Delay: the next sender
		// to grab the write mutex sleeps it off, and heartbeats queue
		// behind it, so a stall beyond the heartbeat timeout reads as a
		// dead host.
		r.coord.stallNanos.Store(int64(p.Delay))
	case FaultCorrupt:
		// Flip bits in the next coordinator-bound frame's CRC tail; the
		// coordinator's checksum verification must reject it.
		r.coord.corruptNext.Store(true)
	case FaultPartition:
		// Total isolation: every connection — coordinator and peers —
		// goes down at once.
		r.coord.close()
		r.fabric.close()
	}
}
