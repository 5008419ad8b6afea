package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"golts/internal/ckpt"
	"golts/internal/lts"
	"golts/internal/newmark"
	"golts/internal/sem"
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
		fmt.Fprintf(os.Stderr, "dist: rank %d: %v\n", rank, err)
		os.Exit(1)
	}
	os.Exit(0)
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
	// onState, when set, runs each time the rank's field arrays have been
	// (re)installed: after build and after every restore (tests only).
	onState func(*rankRun)
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

// peerFabric implements exchanger over the rank's peer links.
type peerFabric struct {
	links   []*peerLink // indexed by rank; nil for self
	buf     []byte      // reusable send frame
	timeout time.Duration
	// telemetry enables waitNanos: cumulative time the stepping
	// goroutine spent blocked waiting for halo frames, per peer rank.
	// The coordinator charges each rank the time its peers spent
	// waiting on it, so the imbalance signal sees a slow or delayed
	// link — not only a slow CPU.
	telemetry bool
	waitNanos []int64 // per peer rank; accessed only by the stepping goroutine
}

func (f *peerFabric) sendHalo(rank int, seq, planID uint32, values []float64) error {
	f.buf = encodeHalo(f.buf[:0], haloFrame{seq, planID, values})
	return f.links[rank].c.send(msgHalo, f.buf)
}

func (f *peerFabric) recvHalo(rank int) (uint32, uint32, []float64, error) {
	l := f.links[rank]
	if f.telemetry {
		start := time.Now()
		defer func() { f.waitNanos[rank] += time.Since(start).Nanoseconds() }()
	}
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

// rankStepper is the rank-local unified stepper: one Step advances one
// coarse cycle, mirroring the facade's cycle semantics so receiver
// sampling lands on the same time axis. The scheme's state and work
// counters go through it too, so the rank never switches on the scheme.
type rankStepper interface {
	Step()
	Time() float64
	State() []float64
	// view aliases the live state for immediate encoding; restore
	// installs a state, time included.
	view() *ckpt.StepperState
	restore(st *ckpt.StepperState) error
	// stats fills the scheme's part of st: the work model (Cycles in
	// coarse cycles on both schemes) and, with telemetry, the per-level
	// kernel time and the share of stepNanos spent outside it.
	stats(st *RankStats, stepNanos int64)
}

type ltsRankStepper struct{ s *lts.Scheme }

func (a ltsRankStepper) Step()                               { a.s.Step() }
func (a ltsRankStepper) Time() float64                       { return a.s.Time() }
func (a ltsRankStepper) State() []float64                    { return a.s.U }
func (a ltsRankStepper) view() *ckpt.StepperState            { return a.s.View() }
func (a ltsRankStepper) restore(st *ckpt.StepperState) error { return a.s.Restore(st) }

func (a ltsRankStepper) stats(st *RankStats, stepNanos int64) {
	st.ElemApplies = a.s.Work.ElemApplies
	st.Cycles = a.s.CycleCount()
	st.EffectiveSpeedup = a.s.EffectiveSpeedup()
	st.Efficiency = a.s.Efficiency()
	if !a.s.Telemetry {
		return
	}
	st.LevelNanos = append([]int64(nil), a.s.Work.LevelNanos...)
	st.PointwiseNanos = stepNanos
	for _, n := range st.LevelNanos {
		st.PointwiseNanos -= n
	}
	active, far := a.s.Domain()
	st.ActiveNodes, st.FarNodes = len(active), len(far)
}

type newmarkRankStepper struct {
	s    *newmark.Stepper
	pmax int
}

func (a newmarkRankStepper) Step()                               { a.s.Run(a.pmax) }
func (a newmarkRankStepper) Time() float64                       { return a.s.Time() }
func (a newmarkRankStepper) State() []float64                    { return a.s.U }
func (a newmarkRankStepper) view() *ckpt.StepperState            { return a.s.View() }
func (a newmarkRankStepper) restore(st *ckpt.StepperState) error { return a.s.Restore(st) }

func (a newmarkRankStepper) stats(st *RankStats, _ int64) {
	st.ElemApplies = a.s.ElementSteps
	st.Cycles = a.s.StepCount() / int64(a.pmax)
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

	// Telemetry (populated only when RunConfig.Telemetry is set):
	// LevelNanos is the cumulative per-LTS-level kernel wall time of this
	// rank; OwnedParts its owned parts (ascending) and PartNanos the
	// cumulative compute wall time of each, indexed like OwnedParts —
	// the per-part costs the rebalancer feeds to the remapper.
	LevelNanos []int64
	OwnedParts []int
	PartNanos  []int64
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
	st     rankStepper
	// recIdx lists the indices into cfg.Receivers this rank owns,
	// ascending; samples are reported in this order.
	recIdx []int
	// lastBusy / lastWait are the owned-part compute nanos and per-peer
	// halo-wait nanos already reported, so each cycle-done frame carries
	// only the cycle's deltas (telemetry only).
	lastBusy int64
	lastWait []int64
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
		r.coord.send(msgErr, []byte(err.Error()))
		return err
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
	r.fabric = &peerFabric{links: links, timeout: r.cfg.peerTimeout(), telemetry: r.cfg.Telemetry}
	if r.cfg.Telemetry {
		r.fabric.waitNanos = make([]int64, r.cfg.Ranks)
		r.lastWait = make([]int64, r.cfg.Ranks)
	}
	return nil
}

func acceptWithDeadline(ln net.Listener, deadline time.Time) (net.Conn, error) {
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	return ln.Accept()
}

// build reconstructs the rank-local simulation from the broadcast
// configuration: mesh, operator, distributed wrapper, scheme, sources,
// sponge and owned receivers. Mesh, operator and the NDof-long field
// arrays are replicated on every rank; the stepping is not: the LTS scheme
// takes the distributed operator's footprint as its node domain and
// advances, and applies the sources of, those nodes alone (global Newmark
// still sweeps every node; what it computes outside the footprint is never
// read). Every step is deterministic, so each rank agrees bitwise with the
// shared-memory baseline on its footprint (see Operator.OwnedNodes).
func (r *rankRun) build() error {
	m, lv, geom, err := buildOperator(&r.cfg)
	if err != nil {
		return err
	}
	dop, err := NewOperator(geom, &r.cfg, r.params.rank, r.fabric)
	if err != nil {
		return err
	}
	r.dop = dop
	if r.fault != nil {
		r.dop.OnApply = r.faultHook
	}

	srcs := make([]sem.Source, len(r.cfg.Sources))
	for i, s := range r.cfg.Sources {
		srcs[i] = sem.Source{Dof: s.Dof, W: sem.Ricker{F0: s.F0, T0: s.T0, Scale: s.Gain}}
	}
	var sigma []float64
	if r.cfg.Sponge.Strength > 0 {
		x0, x1, y0, y1, z0, z1 := m.Extent()
		sigma = sem.SpongeProfile(geom.NumNodes(), geom.NodeCoords,
			x0, x1, y0, y1, z0, z1, r.cfg.Sponge.Faces, r.cfg.Sponge.Width, r.cfg.Sponge.Strength)
	}
	if r.cfg.LTS {
		sch, err := lts.FromMeshLevels(dop, lv, true)
		if err != nil {
			return err
		}
		sch.Telemetry = r.cfg.Telemetry
		sch.SetSources(srcs)
		sch.Sigma = sigma
		r.st = ltsRankStepper{sch}
	} else {
		g := newmark.New(dop, lv.CoarseDt/float64(lv.PMax()))
		g.Sources = srcs
		g.Sigma = sigma
		r.st = newmarkRankStepper{g, lv.PMax()}
	}

	owners, err := ReceiverOwners(geom, &r.cfg)
	if err != nil {
		return err
	}
	for i, owner := range owners {
		if owner == r.params.rank {
			r.recIdx = append(r.recIdx, i)
		}
	}
	if r.params.onState != nil {
		r.params.onState(r)
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
					r.coord.send(msgErr, []byte(err.Error()))
					return err
				}
			}
		case msgStats:
			st := RankStats{}
			ds := r.dop.Stats()
			st.Applies, st.Messages, st.Volume = ds.Applies, ds.Messages, ds.Volume
			r.st.stats(&st, r.stepNanos)
			st.LinkRetries = r.linkRetries
			if r.cfg.Telemetry {
				st.OwnedParts = append([]int(nil), r.dop.OwnedParts()...)
				st.PartNanos = append([]int64(nil), r.dop.PartNanos()...)
				st.FootprintNodes = len(r.dop.OwnedNodes())
			}
			if err := r.coord.sendGob(msgStatsResp, &st); err != nil {
				return err
			}
		case msgCkpt:
			// The arrays are advanced on the footprint and nowhere else:
			// that is what this rank adds to the snapshot.
			if len(payload) != 4 {
				return fmt.Errorf("malformed snapshot frame (%d bytes)", len(payload))
			}
			slot := int(binary.LittleEndian.Uint32(payload))
			file, err := r.store.save(r.params.gen, slot, r.params.rank, r.capture(), r.dop.Comps(), r.dop.OwnedNodes())
			if err != nil {
				r.coord.send(msgErr, []byte(err.Error()))
				return err
			}
			if f := r.fault; f != nil && f.Substep < 0 && f.Cycle == r.fcycle {
				r.trigger() // written, never answered for: the slot stays uncommitted
			}
			if err := r.coord.sendGob(msgCkptResp, &file); err != nil {
				return err
			}
		case msgRestore:
			var why []byte
			if err := r.restoreFrom(payload); err != nil {
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

// capture returns the rank-local stepper state for immediate encoding
// (it aliases the live arrays). The arrays are meaningful only on this
// rank's footprint (see Operator.OwnedNodes): a snapshot is every rank's
// footprint, and a restore overlays them all.
func (r *rankRun) capture() *ckpt.StepperState { return r.st.view() }

// restoreFrom installs the committed snapshot a msgRestore payload
// describes: every rank's footprint overlaid on this rank's own arrays —
// all of them, since a restored rank may own what none of the writers'
// ranks did — and the scalars that go with them.
func (r *rankRun) restoreFrom(payload []byte) error {
	var sn snapshot
	if err := decodeGob(payload, &sn); err != nil {
		return fmt.Errorf("decoding snapshot descriptor: %w", err)
	}
	live := r.capture()
	base, err := r.store.load(&sn, &stateHeader{State: *live, NDof: len(live.U), Comps: r.dop.Comps(), Nodes: -1})
	if err != nil {
		return err
	}
	err = r.st.restore(&base.State)
	if err == nil && r.params.onState != nil {
		r.params.onState(r)
	}
	return err
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
	for _, i := range r.recIdx {
		vals = append(vals, u[r.cfg.Receivers[i]])
	}
	if r.cfg.Telemetry {
		r.stepNanos += time.Since(start).Nanoseconds()
		// Trailing telemetry: this cycle's owned-part compute nanos,
		// then this rank's halo-wait nanos per peer. The coordinator
		// charges each rank the time its peers spent waiting on it, so
		// the busy trace sees a slow or delayed *link* — not only a
		// slow CPU.
		var busy int64
		for _, n := range r.dop.PartNanos() {
			busy += n
		}
		vals = append(vals, float64(busy-r.lastBusy))
		r.lastBusy = busy
		for q, w := range r.fabric.waitNanos {
			vals = append(vals, float64(w-r.lastWait[q]))
			r.lastWait[q] = w
		}
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
		// Freeze forever with every connection open: heartbeats stop
		// (stalled is checked by the beacon goroutine) but nothing closes,
		// so only the coordinator's heartbeat timeout can notice. In a
		// spawned rank the process is killed during recovery; in-process
		// this intentionally parks the rank goroutine for the test's
		// lifetime.
		r.stalled.Store(true)
		select {}
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
