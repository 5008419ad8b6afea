package dist

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"golts/internal/ckpt"
)

// Handshake and stepping deadlines. Handshake failures almost always
// mean a spawned child did not call RankMain, so the timeout error says
// so; the step timeout only guards CI against a deadlocked run.
const (
	handshakeTimeout = 30 * time.Second
	stepTimeout      = 5 * time.Minute
)

// Config configures Start.
type Config struct {
	// Run is the SPMD run description broadcast to every rank.
	Run RunConfig
	// InProcess runs the ranks as goroutines of this process instead of
	// spawned subprocesses. The full wire protocol still runs over
	// loopback sockets; only the process boundary is elided. Tests use
	// this for speed and so the race detector observes the rank runtime.
	InProcess bool
	// Stderr receives the spawned ranks' output (default os.Stderr).
	Stderr io.Writer

	// CheckpointEvery enables rank-failure recovery: at startup and every
	// n completed cycles every rank writes its share of the stepper state
	// to the run's snapshot store, and on a RankFailure the coordinator
	// relaunches every rank, has them restore the last committed snapshot,
	// and silently replays the cycles since it (the decomposition width
	// pins the arithmetic, so the replay is bitwise identical and its
	// samples are discarded). 0 disables both checkpointing and recovery.
	//
	// The store is a run-private directory — under TMPDIR when that is
	// set, else in /dev/shm where the host has one, else in the system's
	// temporary directory — removed by Close and Abort. Snapshots guard
	// against lost processes, not a lost host: they live in the page cache
	// and are never synced. Only a SIGKILLed coordinator leaves the
	// directory behind.
	CheckpointEvery int
	// MaxRecoveries bounds the number of recoveries per rank
	// configuration; 0 selects the default (3) when CheckpointEvery > 0.
	// In degraded mode the budget resets after each successful shrink.
	MaxRecoveries int
	// Faults arms fault-injection plans on in-process ranks (several
	// ranks, cycles or spawn generations at once). Spawned ranks read the
	// GOLTS_FAULT environment variable instead, which they inherit from
	// this process.
	Faults []*FaultPlan

	// MinRanks > 0 enables degraded mode, which keeps the run alive
	// through permanent rank loss: when a rank exhausts the recovery
	// budget, the coordinator — instead of failing — relaunches with one
	// rank fewer under the contiguous block placement (PartRank nil),
	// restores the checkpoint and replays, never shrinking below MinRanks
	// ranks. The decomposition width never changes, so the degraded
	// trajectory stays bitwise identical to the fault-free one. Requires
	// CheckpointEvery > 0.
	MinRanks int

	// onRestore is handed to in-process ranks (rankParams.onRestore): the
	// package's tests poison rank state through it.
	onRestore func(*rankRun)
}

// ctrlFrame is one control-plane message from a rank, read off the
// connection by the coordinator's per-rank reader goroutine.
type ctrlFrame struct {
	t       byte
	payload []byte
}

// rankHandle is the coordinator's view of one rank: its control
// connection, the reader goroutine's channels, and the subprocess (nil
// for in-process ranks).
type rankHandle struct {
	c      *conn
	proc   *exec.Cmd
	frames chan ctrlFrame
	errs   chan error

	// dead is closed once the rank has exited — by the watcher goroutine
	// that is the sole caller of proc.Wait for a spawned rank, by the
	// goroutine running an in-process one — and exitErr holds the Wait or
	// runRank result from before the close.
	dead    chan struct{}
	exitErr error

	// lastBeat is the unix-nano arrival time of the most recent frame
	// (heartbeats included), written by the reader goroutine.
	lastBeat atomic.Int64
}

// Coordinator owns a distributed run: it spawns the ranks, broadcasts
// the configuration, drives lockstep cycles, collects receiver samples
// and statistics, recovers from rank failures when checkpointing is on,
// and shuts the ranks down. The control connections are multiplexed on
// one reader goroutine per rank; halo traffic never touches the
// coordinator. A Coordinator is driven by one goroutine at a time.
type Coordinator struct {
	cfg      Config
	ranks    []*rankHandle
	recParts []int // receiver index → owning part (placement-invariant)
	recOwn   []int // receiver index → owning rank, under the current map
	t        float64

	gen   int   // spawn generation; respawned ranks run at gen ≥ 1
	cycle int64 // completed cycles since Start (or RestoreState)
	// store holds the state, snap says where: the last committed snapshot
	// (nil before the first), which every restore reads and the next
	// snapshot's slot alternates with.
	store snapStore
	snap  *snapshot

	snapshots     int
	snapshotWall  time.Duration
	snapshotBytes int64

	recoveries   int // cumulative, across degrades
	budgetUsed   int // recoveries charged against the current rank set
	recoveryWall time.Duration

	// Degraded-mode state: ranks permanently lost (each one shrink of
	// the rank set), wall time spent shrinking, and CRC failures seen.
	degradedRanks int
	degradeWall   time.Duration
	corruptFrames int64

	samples []float64 // StepCtx's result, reused (valid until the next StepCtx)

	closeOnce sync.Once
	closeErr  error
}

// Start launches a distributed run: it validates the configuration,
// spawns cfg.Run.Ranks rank processes (or goroutines), and completes the
// startup handshake. On return every rank has built its operators and
// stands ready for StepCtx. With CheckpointEvery > 0 a cycle-0 snapshot is
// committed too, so even a first-cycle failure is recoverable.
func Start(cfg Config) (*Coordinator, error) {
	if IsRank() {
		return nil, fmt.Errorf("dist: Start called inside a rank process — the parent binary " +
			"did not call RankMain before starting distributed work")
	}
	if err := cfg.Run.validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery > 0 && cfg.MaxRecoveries <= 0 {
		cfg.MaxRecoveries = 3
	}
	if cfg.MinRanks > 0 {
		if cfg.CheckpointEvery <= 0 {
			return nil, fmt.Errorf("dist: MinRanks > 0 (degraded mode) requires CheckpointEvery > 0 (shrinking restores from a checkpoint)")
		}
		if cfg.MinRanks > cfg.Run.Ranks {
			return nil, fmt.Errorf("dist: MinRanks %d exceeds rank count %d", cfg.MinRanks, cfg.Run.Ranks)
		}
	}
	co := &Coordinator{cfg: cfg, samples: make([]float64, len(cfg.Run.Receivers))}
	var err error
	if co.store.dir, err = newSnapDir(); err != nil {
		return nil, fmt.Errorf("dist: snapshot store: %w", err)
	}
	if err := co.launch(); err != nil {
		os.RemoveAll(co.store.dir)
		return nil, err
	}
	if cfg.CheckpointEvery > 0 {
		if err := co.snapshot(context.Background()); err != nil {
			co.Abort()
			return nil, fmt.Errorf("dist: initial checkpoint: %w", err)
		}
	}
	return co, nil
}

// launch spawns the current generation of ranks and completes the
// startup handshake. On failure every partially-started rank is killed.
// It is called by Start and again — with gen bumped — by reconfigure.
func (co *Coordinator) launch() error {
	cfg := co.cfg
	tokenRaw := make([]byte, 16)
	if _, err := rand.Read(tokenRaw); err != nil {
		return err
	}
	token := hex.EncodeToString(tokenRaw)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()

	co.ranks = make([]*rankHandle, cfg.Run.Ranks)
	fail := func(err error) error {
		co.teardown(false)
		return err
	}
	stderr := cfg.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}

	// Launch.
	for i := 0; i < cfg.Run.Ranks; i++ {
		if cfg.InProcess {
			h := &rankHandle{dead: make(chan struct{})}
			co.ranks[i] = h
			params := rankParams{
				rank: i, addr: ln.Addr().String(), token: token,
				gen: co.gen, faults: cfg.Faults, onRestore: cfg.onRestore,
			}
			go func() {
				h.exitErr = runRank(params)
				close(h.dead)
			}()
			continue
		}
		exe, err := os.Executable()
		if err != nil {
			return fail(err)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", envRank, i),
			fmt.Sprintf("%s=%s", envAddr, ln.Addr().String()),
			fmt.Sprintf("%s=%s", envToken, token),
			fmt.Sprintf("%s=%d", envGen, co.gen),
		)
		cmd.Stdout = stderr
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("dist: spawning rank %d: %w", i, err))
		}
		h := &rankHandle{proc: cmd, dead: make(chan struct{})}
		co.ranks[i] = h
		// The watcher owns the one and only Wait, so teardown, recovery
		// and failure detection can all observe the exit without racing
		// to reap it.
		go func() {
			h.exitErr = cmd.Wait()
			close(h.dead)
		}()
	}

	// Accept the control connections and match hellos to ranks. Stray
	// connections — bad tokens, malformed hellos, immediate disconnects
	// from port probes — are discarded and accepting continues; only the
	// deadline aborts the run. A *valid-token* hello with an impossible
	// rank id is one of our own children misbehaving, which is fatal.
	deadline := time.Now().Add(handshakeTimeout)
	for accepted := 0; accepted < cfg.Run.Ranks; {
		nc, err := acceptWithDeadline(ln, deadline)
		if err != nil {
			return fail(fmt.Errorf("dist: waiting for rank hellos: %w (a spawned binary that "+
				"does not call wave.RankMain at the top of main cannot join the run)", err))
		}
		c := newConn(nc)
		c.setDeadline(deadline)
		payload, err := c.expect(msgHello)
		if err != nil || len(payload) < 4 || string(payload[4:]) != token {
			c.close()
			continue // stray connection; keep waiting
		}
		id := int(binary.LittleEndian.Uint32(payload[:4]))
		if id < 0 || id >= cfg.Run.Ranks || co.ranks[id].c != nil {
			return fail(fmt.Errorf("dist: unexpected hello from rank %d", id))
		}
		co.ranks[id].c = c
		accepted++
	}

	// Broadcast config, gather peer listeners, broadcast the peer list,
	// await readiness.
	for _, h := range co.ranks {
		if err := h.c.sendGob(msgConfig, &configFrame{Run: cfg.Run, SnapDir: co.store.dir}); err != nil {
			return fail(err)
		}
	}
	addrs := make([]string, cfg.Run.Ranks)
	for i, h := range co.ranks {
		payload, err := h.c.expect(msgPeerAddr)
		if err != nil {
			return fail(fmt.Errorf("dist: rank %d: %w", i, err))
		}
		addrs[i] = string(payload)
	}
	for _, h := range co.ranks {
		if err := h.c.sendGob(msgPeers, addrs); err != nil {
			return fail(err)
		}
	}
	for i, h := range co.ranks {
		if _, err := h.c.expect(msgReady); err != nil {
			return fail(fmt.Errorf("dist: rank %d: %w", i, err))
		}
		h.c.setDeadline(time.Time{})
	}

	// Hand each control connection to a reader goroutine; from here on
	// all receives are multiplexed through channels. The reader also
	// timestamps every arrival (and swallows heartbeats), giving
	// recvFrame its liveness signal.
	now := time.Now().UnixNano()
	for _, h := range co.ranks {
		h.frames = make(chan ctrlFrame, 4)
		h.errs = make(chan error, 1)
		h.lastBeat.Store(now)
		go func(h *rankHandle) {
			for {
				t, payload, err := h.c.recv()
				if err != nil {
					h.errs <- err
					close(h.frames)
					return
				}
				h.lastBeat.Store(time.Now().UnixNano())
				if t == msgHeartbeat {
					continue
				}
				h.frames <- ctrlFrame{t, payload}
			}
		}(h)
	}
	return nil
}

// recvFrame pops the next control frame from rank i, converting remote
// msgErr frames, dead connections, dead processes and heartbeat
// silences into *RankFailure errors. Cancelling ctx aborts the wait
// immediately with ctx.Err() — a wedged rank cannot hold the caller
// hostage for the full timeout once its context is gone.
func (co *Coordinator) recvFrame(ctx context.Context, i int, timeout time.Duration) (ctrlFrame, error) {
	h := co.ranks[i]
	overall := time.NewTimer(timeout)
	defer overall.Stop()

	// Poll the heartbeat clock a few times per timeout window; the
	// beacons themselves arrive through the reader goroutine.
	var beatC <-chan time.Time
	hbTimeout := co.cfg.Run.heartbeatTimeout()
	if hbTimeout > 0 {
		period := hbTimeout / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		beatC = ticker.C
	}
	// Only a spawned rank is watched for exit here: an in-process rank's
	// exit closes its connection, and the frames it sent first must be
	// classified before the loss is.
	var dead <-chan struct{}
	if h.proc != nil {
		dead = h.dead
	}
	for {
		select {
		case fr, ok := <-h.frames:
			if !ok {
				// Classify the read error: a failed CRC means the link
				// delivered garbage (FailureCorrupt); anything else is a
				// silent disappearance.
				err := <-h.errs
				kind := FailureCrash
				var ce *CorruptFrameError
				if errors.As(err, &ce) {
					kind = FailureCorrupt
					co.corruptFrames++
				}
				return ctrlFrame{}, &RankFailure{Rank: i, Kind: kind, Err: fmt.Errorf("connection lost: %w", err)}
			}
			if fr.t == msgErr {
				// During stepping a remote error report almost always means
				// some *other* rank died mid-exchange and this one noticed
				// first; typing it as a RankFailure lets recovery handle
				// either order of detection.
				kind := FailureCrash
				if strings.Contains(string(fr.payload), "corrupt frame") {
					kind = FailureCorrupt
					co.corruptFrames++
				}
				return ctrlFrame{}, &RankFailure{Rank: i, Kind: kind, Err: fmt.Errorf("remote error: %s", fr.payload)}
			}
			return fr, nil
		case <-dead:
			// Drain any frame the process managed to send before exiting.
			select {
			case fr, ok := <-h.frames:
				if ok && fr.t != msgErr {
					return fr, nil
				}
			default:
			}
			return ctrlFrame{}, &RankFailure{Rank: i, Kind: FailureCrash, Err: fmt.Errorf("process exited: %v", h.exitErr)}
		case <-ctx.Done():
			return ctrlFrame{}, ctx.Err()
		case <-overall.C:
			return ctrlFrame{}, &RankFailure{Rank: i, Kind: FailureTimeout, Err: fmt.Errorf("no response within %v", timeout)}
		case <-beatC:
			if since := time.Duration(time.Now().UnixNano() - h.lastBeat.Load()); since > hbTimeout {
				return ctrlFrame{}, &RankFailure{Rank: i, Kind: FailureTimeout, Err: fmt.Errorf("no heartbeat for %v", since.Round(time.Millisecond))}
			}
		}
	}
}

// SetReceiverParts installs the receiver → owning-part mapping (see
// ReceiverOwnerParts). Operator construction is the caller's concern —
// the facade already holds the geometry operator — so the parts arrive
// precomputed; StepCtx refuses to run without them. The coordinator
// derives the sampling rank of each receiver from the current
// part → rank placement, and re-derives it after every relaunch (the
// owning part never moves; the executing rank may).
func (co *Coordinator) SetReceiverParts(parts []int) error {
	if len(parts) != len(co.cfg.Run.Receivers) {
		return fmt.Errorf("dist: %d owner parts for %d receivers", len(parts), len(co.cfg.Run.Receivers))
	}
	for _, p := range parts {
		if p < 0 || p >= co.cfg.Run.Parts {
			return fmt.Errorf("dist: receiver owner part %d outside [0,%d)", p, co.cfg.Run.Parts)
		}
	}
	co.recParts = make([]int, len(parts))
	copy(co.recParts, parts)
	co.applyRecOwn()
	return nil
}

// applyRecOwn recomputes the receiver → sampling-rank table from the
// stored owner parts and the current part → rank placement.
// reconfigure calls it after every relaunch, so samples scatter
// consistently under whatever map that generation runs (the first one,
// a shrink, or a recovery after either).
func (co *Coordinator) applyRecOwn() {
	if co.recParts == nil {
		return
	}
	ranks := co.cfg.Run.partRanks()
	co.recOwn = make([]int, len(co.recParts))
	for i, p := range co.recParts {
		co.recOwn[i] = ranks[p]
	}
}

// StepCtx advances every rank by one coarse cycle and returns the cycle
// time plus the receiver samples, in configured receiver order. The
// samples slice is valid until the next StepCtx. When ctx is cancelled
// mid-step the run is aborted immediately — spawned rank processes are
// killed and reaped, halo and control connections closed — and
// ctx.Err() (not a wire error from the dying ranks) is returned. With
// CheckpointEvery > 0, rank failures inside the cycle trigger
// transparent recovery (relaunch + restore + bitwise replay) before the
// cycle is retried; only an exhausted recovery budget or an
// unrecoverable error reaches the caller.
func (co *Coordinator) StepCtx(ctx context.Context) (t float64, samples []float64, err error) {
	if co.recOwn == nil {
		return 0, nil, fmt.Errorf("dist: StepCtx before SetReceiverParts")
	}
	if err := ctx.Err(); err != nil {
		co.Abort()
		return 0, nil, err
	}
	t, samples, err = co.stepCycle(ctx)
	for err != nil {
		if err = co.tryRecover(ctx, err); err != nil {
			return 0, nil, err
		}
		t, samples, err = co.stepCycle(ctx)
	}
	co.cycle++
	// From here on recovery replays up to co.cycle, so the samples
	// already collected for this cycle stay valid through a failed
	// snapshot (the replay rewrites them with the same bits); only an
	// unrecoverable error surfaces.
	if co.cfg.CheckpointEvery > 0 && co.cycle%int64(co.cfg.CheckpointEvery) == 0 {
		if err := co.snapshot(ctx); err != nil {
			// A recovered run has its snapshot of this cycle: reconfigure
			// ends with one.
			if err = co.tryRecover(ctx, err); err != nil {
				return 0, nil, err
			}
		}
	}
	return t, samples, nil
}

// request is the one coordinator → rank round trip: it sends a req
// frame carrying payload to every rank, then collects one reply frame
// per rank, in rank order, and hands its payload to each (nil when the
// reply carries nothing). Whatever goes wrong on a rank's account comes
// back as a typed *RankFailure the recovery loop can act on: a send
// error is FailureLink; a reply of the wrong type, or one that each
// rejects, is FailureCorrupt — a frame that passed its CRC but does not
// describe this run is as untrustworthy as one that failed it — and
// recvFrame types every way of not getting a reply at all.
func (co *Coordinator) request(ctx context.Context, req byte, payload []byte, reply byte,
	timeout time.Duration, each func(rank int, payload []byte) error) error {
	for i, h := range co.ranks {
		if err := h.c.send(req, payload); err != nil {
			return &RankFailure{Rank: i, Kind: FailureLink, Err: fmt.Errorf("sending frame type %d: %w", req, err)}
		}
	}
	for i := range co.ranks {
		fr, err := co.recvFrame(ctx, i, timeout)
		if err != nil {
			return err
		}
		if fr.t != reply {
			err = fmt.Errorf("frame type %d in reply to type %d, want %d", fr.t, req, reply)
		} else if each != nil {
			err = each(i, fr.payload)
		}
		if err != nil {
			return &RankFailure{Rank: i, Kind: FailureCorrupt, Err: err}
		}
	}
	return nil
}

// stepCycle drives one lockstep cycle across the ranks.
func (co *Coordinator) stepCycle(ctx context.Context) (float64, []float64, error) {
	var cmd [4]byte
	binary.LittleEndian.PutUint32(cmd[:], 1)
	samples := co.samples
	err := co.request(ctx, msgStep, cmd[:], msgCycleDone, stepTimeout, func(i int, payload []byte) error {
		owned := 0
		for _, o := range co.recOwn {
			if o == i {
				owned++
			}
		}
		cd, err := decodeCycleDone(payload, owned)
		if err != nil {
			return err
		}
		if i == 0 {
			co.t = cd.t
		}
		k := 0
		for ri, o := range co.recOwn {
			if o == i {
				samples[ri] = cd.samples[k]
				k++
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return co.t, samples, nil
}

// tryRecover is the one retry loop around reconfigure. While cause is
// recoverable — a *RankFailure with a usable snapshot committed — each pass picks
// the next shape to relaunch in: the same rank set and placement while
// the recovery budget lasts; then, in degraded mode, one rank fewer
// (the rank, or its link, is permanently gone) under the contiguous
// block placement Start uses, down to the MinRanks floor; and a failure
// of the relaunch itself is the next pass's cause. A successful shrink
// resets the budget: the new configuration earns a fresh chance before
// degrading further. A nil return means the run is healthy again at
// exactly co.cycle completed cycles; cancelling ctx aborts the run.
func (co *Coordinator) tryRecover(ctx context.Context, cause error) error {
	for {
		if ctx.Err() != nil {
			co.Abort()
			return ctx.Err()
		}
		var rf *RankFailure
		var se *SnapshotError
		if !errors.As(cause, &rf) || errors.As(cause, &se) || co.cfg.CheckpointEvery <= 0 || co.snap == nil {
			return cause
		}
		ranks, partRank := co.cfg.Run.Ranks, co.cfg.Run.PartRank
		shrink := co.budgetUsed >= co.cfg.MaxRecoveries
		switch {
		case !shrink:
			co.budgetUsed++
			co.recoveries++
		case co.cfg.MinRanks <= 0:
			return fmt.Errorf("dist: recovery budget (%d) exhausted: %w", co.cfg.MaxRecoveries, cause)
		case ranks <= co.cfg.MinRanks:
			return fmt.Errorf("dist: recovery budget (%d) exhausted at the MinRanks floor (%d): %w",
				co.cfg.MaxRecoveries, co.cfg.MinRanks, cause)
		default:
			ranks, partRank = ranks-1, nil
		}
		start := time.Now()
		err := co.reconfigure(ctx, ranks, partRank)
		if wall := time.Since(start); shrink {
			co.degradeWall += wall
		} else {
			co.recoveryWall += wall
		}
		if err == nil {
			if shrink {
				co.degradedRanks++
				co.budgetUsed = 0
			}
			return nil
		}
		cause = err
	}
}

// reconfigure is the one relaunch path, shared by recovery (the same
// shape) and degraded-mode shrinking (one rank fewer under the default
// placement): tear the current generation down, launch
// the next as ranks processes under partRank, have every rank restore
// the committed snapshot, replay the cycles from there up to co.cycle,
// and commit the new generation's first snapshot — from then on no file
// of an older generation is read, and none is left. Parts, and with them
// the ascending-part assembly order, never change, so the replay is
// bitwise identical to the cycles already delivered and its samples are
// discarded. On a *RankFailure the generation it launched is left for
// the next call to tear down, and the committed snapshot is untouched.
func (co *Coordinator) reconfigure(ctx context.Context, ranks int, partRank []int) error {
	next := co.cfg.Run
	next.Ranks, next.PartRank = ranks, partRank
	if err := next.validate(); err != nil {
		return err
	}
	co.teardown(false)
	co.cfg.Run = next
	co.gen++
	if err := co.launch(); err != nil {
		return err
	}
	co.applyRecOwn()
	if err := co.restoreAll(ctx); err != nil {
		return err
	}
	for c := co.snap.Cycle; c < co.cycle; c++ {
		if _, _, err := co.stepCycle(ctx); err != nil {
			return err
		}
	}
	return co.snapshot(ctx)
}

// Degraded reports how many ranks this run has permanently lost (each
// one a shrink of the rank set) and the wall-clock time spent inside
// the shrinks.
func (co *Coordinator) Degraded() (int, time.Duration) {
	return co.degradedRanks, co.degradeWall
}

// CorruptFrames reports how many CRC-failed frames the coordinator has
// rejected (each one routed into recovery).
func (co *Coordinator) CorruptFrames() int64 { return co.corruptFrames }

// snapshot has every rank write its footprint of the state after
// co.cycle cycles into the store's idle slot, and commits that slot once
// all have answered: until then — and so through any failure on the way
// — the previous snapshot stays the one restores read. The first
// snapshot a generation commits retires the files of its predecessors.
func (co *Coordinator) snapshot(ctx context.Context) error {
	start := time.Now()
	next := co.idleSlot(len(co.ranks))
	var slot [4]byte
	binary.LittleEndian.PutUint32(slot[:], uint32(next.Slot))
	err := co.request(ctx, msgCkpt, slot[:], msgCkptResp, stepTimeout, func(i int, payload []byte) error {
		return decodeGob(payload, &next.Files[i])
	})
	if err != nil {
		return err
	}
	if co.snap != nil && co.snap.Gen != co.gen {
		co.store.prune(co.gen)
	}
	co.snap = next
	co.snapshots++
	co.snapshotWall += time.Since(start)
	co.snapshotBytes += next.bytes()
	return nil
}

// idleSlot describes a snapshot of n files, yet to be written, in the
// live generation's slot that the committed one does not occupy.
func (co *Coordinator) idleSlot(n int) *snapshot {
	next := &snapshot{Gen: co.gen, Cycle: co.cycle, Files: make([]snapFile, n)}
	if co.snap != nil {
		next.Slot = 1 - co.snap.Slot
	}
	return next
}

// Snapshots reports how many recovery snapshots this run has committed,
// the wall-clock time all ranks stood still for them and the bytes the
// ranks wrote.
func (co *Coordinator) Snapshots() (n int, wall time.Duration, bytes int64) {
	return co.snapshots, co.snapshotWall, co.snapshotBytes
}

// restoreAll has every rank restore the committed snapshot. A rank that
// finds it unusable says why instead of dying, so the cause reaches the
// caller as the *SnapshotError it is rather than as one more rank to
// recover.
func (co *Coordinator) restoreAll(ctx context.Context) error {
	desc, err := gobBytes(co.snap)
	if err != nil {
		return err
	}
	return co.request(ctx, msgRestore, desc, msgRestoreDone, handshakeTimeout, func(_ int, why []byte) error {
		if len(why) > 0 {
			return co.snap.unusable(string(why))
		}
		return nil
	})
}

// SaveState takes a snapshot now and returns its files — one footprint
// frame per rank — back to back, each checked against its committed
// length and CRC32: the "state" section of a checkpoint (package ckpt).
// No global field is assembled.
func (co *Coordinator) SaveState() ([]byte, error) {
	if err := co.snapshot(context.Background()); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, co.snap.bytes())
	for i := range co.snap.Files {
		frame, err := co.store.read(co.snap, i)
		if err != nil {
			return nil, co.snap.unusable(err.Error())
		}
		buf = append(buf, frame...)
	}
	return buf, nil
}

// RestoreState installs the state that frames (a checkpoint's, see
// SaveState) make up on every rank and adopts it as the recovery
// baseline, resetting the cycle counter — the coordinator now sits at
// "cycle 0 of the resumed run". The frames reach the ranks the way a
// snapshot does: unchanged, as the files of the store's idle slot.
func (co *Coordinator) RestoreState(frames [][]byte) error {
	if len(frames) == 0 {
		return errors.New("dist: no state frames to restore")
	}
	prev, next := co.snap, co.idleSlot(len(frames))
	next.Cycle = 0
	for i, frame := range frames {
		if err := co.store.put(next, i, frame); err != nil {
			return fmt.Errorf("dist: writing the state to restore: %w", err)
		}
	}
	co.snap = next
	if err := co.restoreAll(context.Background()); err != nil {
		co.snap = prev
		return err
	}
	h, _, _ := ckpt.ParseFrame(frames[0]) // every rank has read it
	co.cycle, co.t = 0, h.State.T
	return nil
}

// Recoveries reports how many rank-failure recoveries this run has
// performed and the wall-clock time spent inside them.
func (co *Coordinator) Recoveries() (int, time.Duration) {
	return co.recoveries, co.recoveryWall
}

// Time returns the cycle time reported by rank 0 after the last StepCtx.
func (co *Coordinator) Time() float64 { return co.t }

// Stats gathers every rank's statistics. The first element is rank 0's
// (whose scheme-level work model the facade reports); the distributed
// operator counters differ per rank and are summed by callers as needed.
func (co *Coordinator) Stats() ([]RankStats, error) {
	out := make([]RankStats, len(co.ranks))
	err := co.request(context.Background(), msgStats, nil, msgStatsResp, handshakeTimeout,
		func(i int, payload []byte) error { return decodeGob(payload, &out[i]) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close shuts the ranks down cleanly, escalating to kill after a grace
// period. It is idempotent and safe after a failed or aborted StepCtx.
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() {
		co.closeErr = co.teardown(true)
		os.RemoveAll(co.store.dir)
	})
	return co.closeErr
}

// Abort tears the run down immediately: spawned rank processes are
// killed and reaped, in-process ranks are unblocked by closing their
// connections, and every control connection is closed. It is the
// non-graceful twin of Close for cancelled contexts — no shutdown
// message, no grace period — and leaves no orphan processes behind. A
// later Close returns without further work.
func (co *Coordinator) Abort() {
	co.closeOnce.Do(func() {
		co.teardown(false)
		os.RemoveAll(co.store.dir)
	})
}

// teardown is the shared shutdown path. graceful sends msgShutdown and
// gives every rank a grace period to exit on its own before killing;
// non-graceful kills spawned ranks outright and severs the in-process
// ranks' connections. Both paths reap every spawned process (via its
// watcher goroutine) so no zombies survive, and both close every
// control connection. reconfigure reuses the non-graceful path to clear
// out a failed generation, launch to clear out a partially started one
// (whose later handles are still nil); it may run twice over the same
// handles. The snapshot store is not its to remove: the next generation
// restores from it, and only Close and Abort end the run.
func (co *Coordinator) teardown(graceful bool) error {
	var firstErr error
	grace := 10 * time.Second
	if graceful {
		for _, h := range co.ranks {
			if h != nil && h.c != nil {
				h.c.send(msgShutdown, nil)
			}
		}
	} else {
		grace = 5 * time.Second
		for _, h := range co.ranks {
			if h == nil {
				continue
			}
			if h.proc != nil {
				h.proc.Process.Kill()
			}
			// Severing the control connection unblocks an in-process rank's
			// serve loop (and any peer reads follow when the fabric dies).
			if h.c != nil {
				h.c.close()
			}
		}
	}
	// One absolute deadline shared by all ranks: each wait gets its own
	// timer on the remaining time, so several wedged ranks are all killed
	// instead of only the first.
	deadline := time.Now().Add(grace)
	for i, h := range co.ranks {
		if h == nil {
			continue
		}
		select {
		case <-h.dead:
			if graceful && h.exitErr != nil && firstErr == nil {
				firstErr = fmt.Errorf("dist: rank %d: %w", i, h.exitErr)
			}
		case <-time.After(time.Until(deadline)):
			// A spawned rank is killed and reaped; an in-process one (a
			// stalled rank parks forever by design) can only be left behind.
			if h.proc != nil {
				h.proc.Process.Kill()
				<-h.dead
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: rank %d did not exit within %v of shutdown", i, grace)
			}
		}
		if h.c != nil {
			h.c.close()
		}
	}
	return firstErr
}
