package wave

import (
	"context"
	"fmt"

	"golts/internal/ckpt"
	"golts/internal/dist"
	"golts/internal/solver"
)

// Backend selects the execution engine behind the facade. Two backends
// exist: Local (this process, optionally with shared-memory workers via
// WithWorkers) and Distributed (N spawned rank processes exchanging halo
// contributions over loopback sockets).
type Backend interface {
	// backendName keeps the set of backends closed; the two
	// implementations live in this package.
	backendName() string
}

type localBackend struct{}

func (localBackend) backendName() string { return "local" }

// Local is the default backend: everything runs in this process.
var Local Backend = localBackend{}

// Distributed executes the run on Ranks spawned rank processes of the
// same binary — main (or TestMain) must call RankMain first. Each rank
// owns a contiguous block of the decomposition's parts (or the parts
// PartRank places on it), applies the
// stiffness of its owned elements with the batched SoA kernels, and
// exchanges halo node contributions with neighbouring ranks at every
// substep.
//
// Parts sets the owner-computes decomposition width and defaults to
// Ranks. The decomposition — not the process count — pins the
// floating-point assembly order, so runs with the same Parts are bitwise
// identical for any Ranks (including 1), and match the Local backend
// with WithWorkers(Parts) exactly.
type Distributed struct {
	// Ranks is the number of rank processes (>= 1).
	Ranks int
	// Parts is the decomposition width; 0 means Ranks. Must be >= Ranks
	// otherwise.
	Parts int
	// CheckpointEvery enables transparent rank-failure recovery: every n
	// cycles each rank writes its share of the stepper state to a
	// run-private directory under TMPDIR (removed when the simulation is
	// closed) and, when a rank dies or stalls, the coordinator relaunches
	// the ranks, has them restore the last complete snapshot and replays
	// to the failure point — bitwise, since Parts pins the assembly order.
	// The snapshots guard against lost processes, not a lost host: they
	// are never synced. 0 selects the default interval (4); negative
	// disables recovery.
	CheckpointEvery int
	// MaxRecoveries bounds recoveries per rank configuration; 0 selects
	// the default (3). In degraded mode the budget resets after each
	// successful shrink.
	MaxRecoveries int
	// MinRanks > 0 enables degraded mode, which keeps the run alive
	// through permanent rank loss: a rank that exhausts the recovery
	// budget is retired, the parts are redistributed onto the surviving
	// ranks in contiguous blocks (PartRank no longer applies), and the
	// run continues with fewer ranks, never below MinRanks. Parts never
	// change, so the degraded
	// trajectory is bitwise identical to the fault-free one; the shrink
	// count is reported as Stats.DegradedRanks. Requires recovery
	// checkpoints (CheckpointEvery >= 0).
	MinRanks int
	// Telemetry enables the per-rank timing counters, surfaced through
	// Stats.LevelTimes and Stats.RankStepping. Cheap — two monotonic
	// clock reads per level apply and per cycle — but off by default.
	Telemetry bool
	// PartRank optionally places each part on a rank explicitly
	// (len Parts, every rank owning at least one part); nil selects
	// contiguous blocks. Any placement produces bitwise-identical
	// seismograms — only wall time changes. Placement is fixed for the
	// run, except that a degraded-mode shrink falls back to blocks.
	PartRank []int
}

func (Distributed) backendName() string { return "distributed" }

// parts resolves the effective decomposition width.
func (d Distributed) parts() int {
	if d.Parts == 0 {
		return d.Ranks
	}
	return d.Parts
}

// ckptEvery resolves the recovery checkpoint interval (0 → 4 cycles,
// negative → recovery off).
func (d Distributed) ckptEvery() int {
	switch {
	case d.CheckpointEvery < 0:
		return 0
	case d.CheckpointEvery == 0:
		return 4
	default:
		return d.CheckpointEvery
	}
}

// WithBackend selects the execution backend (default Local). The
// distributed backend is incompatible with WithWorkers > 1 (or the
// auto-sizing 0): within-rank shared-memory parallelism is not layered
// yet, and the conflict is reported at build time.
func WithBackend(b Backend) Option {
	return func(s *settings) error {
		switch be := b.(type) {
		case nil:
			return optErr("WithBackend", ErrBackendSpec, "nil backend")
		case localBackend:
			s.backend = be
		case Distributed:
			if be.Ranks < 1 {
				return optErr("WithBackend", ErrRanksRange, "got %d", be.Ranks)
			}
			if be.Parts != 0 && be.Parts < be.Ranks {
				return optErr("WithBackend", ErrPartsRange,
					"parts %d below ranks %d", be.Parts, be.Ranks)
			}
			if be.PartRank != nil && len(be.PartRank) != be.parts() {
				return optErr("WithBackend", ErrPartsRange,
					"part-rank map has %d entries for %d parts",
					len(be.PartRank), be.parts())
			}
			if be.MinRanks < 0 || be.MinRanks > be.Ranks {
				return optErr("WithBackend", ErrRanksRange,
					"min ranks %d outside [0, %d]", be.MinRanks, be.Ranks)
			}
			if be.MinRanks > 0 && be.CheckpointEvery < 0 {
				return optErr("WithBackend", ErrCheckpointSpec,
					"MinRanks > 0 (degraded mode) requires recovery checkpoints (CheckpointEvery >= 0)")
			}
			s.backend = be
		default:
			return optErr("WithBackend", ErrBackendSpec, "unknown backend %T", b)
		}
		return nil
	}
}

// RankMain is the cooperative re-exec hook of the distributed backend.
// Binaries (and test binaries) that build Simulations with
// WithBackend(Distributed{...}) must call it at the top of main or
// TestMain: in a normal process it returns immediately; in a process
// spawned as a rank it runs the rank runtime and exits. Without it the
// spawned children re-run the caller's main and the coordinator's
// handshake times out.
func RankMain() { dist.RankMain() }

// buildDistributed starts the rank processes for a distributed
// configuration and wires the coordinator in as the simulation's
// stepper.
func buildDistributed(s *Simulation, set *settings, be Distributed, spec solver.Spec, ac *[2]int64) error {
	cfg := dist.RunConfig{Spec: spec, Ranks: be.Ranks, Parts: be.parts(), Telemetry: be.Telemetry}
	part, err := getPartition(set, s.m, s.lv, cfg.Parts, ac)
	if err != nil {
		return fmt.Errorf("wave: partitioning: %w", err)
	}
	cfg.Part = part
	recDofs := make([]int, len(s.recs))
	for i, r := range s.recs {
		recDofs[i] = r.Dof
	}
	cfg.Receivers = recDofs
	if be.PartRank != nil {
		cfg.PartRank = append([]int(nil), be.PartRank...)
	}

	co, err := dist.Start(dist.Config{
		Run:             cfg,
		CheckpointEvery: be.ckptEvery(),
		MaxRecoveries:   be.MaxRecoveries,
		MinRanks:        be.MinRanks,
	})
	if err != nil {
		return fmt.Errorf("wave: distributed backend: %w", err)
	}
	parts, err := dist.ReceiverOwnerParts(s.geom, &cfg)
	if err != nil {
		co.Close()
		return fmt.Errorf("wave: distributed backend: %w", err)
	}
	if err := co.SetReceiverParts(parts); err != nil {
		co.Close()
		return fmt.Errorf("wave: distributed backend: %w", err)
	}
	s.dist = co
	s.stepper = &distStepper{co: co, u: make([]float64, s.geom.NDof()), recDofs: recDofs,
		cfg: &cfg, partitioner: s.set.partitioner}
	return nil
}

// distStepper adapts the coordinator to the unified Stepper: one facade
// cycle advances every rank by one coarse cycle in lockstep. State is
// sparse — the full field lives sharded across the rank processes, and
// only the receiver dofs carry live values in this process (which is all
// Run reads); probes needing full fields should use the local backend.
type distStepper struct {
	co          *dist.Coordinator
	u           []float64
	recDofs     []int
	t           float64
	cfg         *dist.RunConfig
	partitioner Partitioner
}

func (d *distStepper) Step() error { return d.StepCtx(context.Background()) }

// StepCtx is the context-aware step Run prefers: cancelling ctx mid-step
// aborts the coordinator — spawned rank processes are killed and reaped
// immediately instead of waiting out the wire step timeout.
func (d *distStepper) StepCtx(ctx context.Context) error {
	t, samples, err := d.co.StepCtx(ctx)
	if err != nil {
		return err
	}
	d.t = t
	for i, dof := range d.recDofs {
		d.u[dof] = samples[i]
	}
	return nil
}

func (d *distStepper) Time() float64    { return d.t }
func (d *distStepper) State() []float64 { return d.u }

// save overlays every rank's footprint (a rank advances, and so holds,
// only the nodes its own elements touch).
func (d *distStepper) save() (*ckpt.StepperState, error) { return d.co.FetchState() }

// restore installs st on every rank and seeds the coordinator-side time,
// which otherwise refreshes only on Step, so Time() is right immediately
// after Resume.
func (d *distStepper) restore(st *ckpt.StepperState) error {
	if err := d.co.RestoreState(st); err != nil {
		return err
	}
	d.t = st.T
	return nil
}

// stats reports the coordinator's fault and snapshot counters and the
// ranks' work model. Rank 0's scheme carries the work model (counted
// over the mesh's element lists, so identical on every rank); the halo
// counters are summed over ranks. A lost rank leaves the counters zero —
// the failure surfaces through Run/Close, not here.
func (d *distStepper) stats(st *Stats) {
	n, dur := d.co.Recoveries()
	st.Recoveries, st.RecoveryMillis = n, dur.Milliseconds()
	n, dur = d.co.Degraded()
	st.DegradedRanks, st.DegradedMillis = n, dur.Milliseconds()
	n, dur, st.SnapshotBytes = d.co.Snapshots()
	st.Snapshots, st.SnapshotMillis = n, dur.Milliseconds()
	st.CorruptFrames = d.co.CorruptFrames()
	st.Ranks, st.Parts, st.Partitioner = d.cfg.Ranks, d.cfg.Parts, d.partitioner
	rs, err := d.co.Stats()
	if err != nil || len(rs) == 0 {
		return
	}
	st.ElemApplies = rs[0].ElemApplies
	st.Cycles = rs[0].Cycles
	st.EffectiveSpeedup = rs[0].EffectiveSpeedup
	st.Efficiency = rs[0].Efficiency
	eng := &EngineStats{Applies: rs[0].Applies}
	for _, r := range rs {
		eng.Messages += r.Messages
		eng.Volume += r.Volume
		st.LinkRetries += r.LinkRetries
		st.RankPeakRSS = append(st.RankPeakRSS, r.PeakRSS)
	}
	st.Engine = eng
	if !d.cfg.Telemetry || len(rs[0].LevelNanos) == 0 {
		return
	}
	for li := range rs[0].LevelNanos {
		row := LevelStats{Level: li, RankNanos: make([]int64, len(rs))}
		for r, rst := range rs {
			if li < len(rst.LevelNanos) {
				row.RankNanos[r] = rst.LevelNanos[li]
			}
		}
		st.LevelTimes = append(st.LevelTimes, row)
	}
	for _, rst := range rs {
		st.RankStepping = append(st.RankStepping, RankStepping{
			PointwiseNanos: rst.PointwiseNanos, ActiveNodes: rst.ActiveNodes,
			FarNodes: rst.FarNodes, FootprintNodes: rst.FootprintNodes,
		})
	}
}

var (
	_ schemeStepper = (*distStepper)(nil)
	_ ctxStepper    = (*distStepper)(nil)
)
