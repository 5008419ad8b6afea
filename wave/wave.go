// Package wave is the public facade of golts: one importable Simulation
// API over the spectral-element operators, the multi-level LTS-Newmark
// and global Newmark time steppers, and the shared-memory and
// distributed execution backends. The solver itself — mesh, levels,
// operator and stepper — comes from one build (internal/solver), which
// the local backend runs here and every distributed rank runs on its
// own share.
//
// A Simulation is configured with functional options and validates
// eagerly, returning typed errors (*OptionError wrapping sentinel errors)
// instead of silently clamping values:
//
//	sim, err := wave.New(
//		wave.WithMesh("trench", 0.02),
//		wave.WithPhysics(wave.Elastic),
//		wave.WithWorkers(4),
//		wave.WithSink(wave.FileSink("seis.csv")),
//	)
//	if err != nil { ... }
//	defer sim.Close()
//	err = sim.Run(context.Background(), 40)
//
// One Run cycle always spans one coarse step Δt: the LTS scheme substeps
// its fine levels internally, and the global Newmark scheme performs
// p_max fine steps, so receivers sample both schemes on the same time
// axis. Results are bitwise reproducible for a fixed (workers,
// partitioner, seed) configuration.
package wave

import (
	"context"
	"errors"
	"fmt"

	"golts/internal/dist"
	"golts/internal/mesh"
	"golts/internal/parallel"
	"golts/internal/partition"
	"golts/internal/sem"
	"golts/internal/solver"
	"golts/internal/tune"
)

// Simulation is a configured wave-propagation run: mesh, discretization,
// time stepper, sources, receivers and output sinks. Build one with New,
// advance it with Run (or the Stepper directly), and release the parallel
// engine with Close.
//
// A Simulation is not safe for concurrent use; the parallelism of the
// worker engine is internal.
type Simulation struct {
	set  *settings
	m    *mesh.Mesh
	lv   *mesh.Levels
	geom solver.Operator
	pop  *parallel.PartitionedOperator

	dist    *dist.Coordinator
	stepper schemeStepper

	sources   []Source
	receivers []Receiver
	recs      []*sem.Receiver
	samples   []float64

	workers   int
	cycles    int // completed cycles across Runs
	sinksOpen bool
	closed    bool

	// ckptKey is the canonical configuration string checkpoints are
	// stamped with (see checkpoint.go); resumed marks a Simulation built
	// by Resume, making Run(ctx, 0) step only the remaining cycles.
	ckptKey    string
	resumed    bool
	ckptWrites int64

	// artLookups and artHits record the build's artifact-cache traffic
	// (zero without WithArtifactCache).
	artLookups, artHits int64

	// tunePlan is the calibration outcome applied by WithAutoTune (nil
	// without it).
	tunePlan *tune.Plan
}

// New builds a Simulation from the given options. The zero configuration
// is a 20-cycle acoustic LTS run on the trench benchmark at scale 0.02,
// degree 4, CFL 0.4, sequential execution, with a default source and one
// default surface receiver.
func New(opts ...Option) (*Simulation, error) {
	set := defaultSettings()
	for _, o := range opts {
		if err := o(set); err != nil {
			return nil, err
		}
	}
	return build(set)
}

func build(set *settings) (*Simulation, error) {
	if _, ok := mesh.Generators[set.mesh]; !ok {
		return nil, optErr("WithMesh", ErrUnknownMesh, "%q", set.mesh)
	}
	var tunePlan *tune.Plan
	if set.autoTune > 0 {
		var err error
		if tunePlan, err = applyAutoTune(set); err != nil {
			return nil, err
		}
	}
	// ac accumulates this build's artifact-cache traffic: [lookups, hits].
	var ac [2]int64
	m, lv, err := getMesh(set, &ac)
	if err != nil {
		return nil, fmt.Errorf("wave: %w", err)
	}
	geom, err := getOperator(set, m, &ac)
	if err != nil {
		return nil, fmt.Errorf("wave: %w", err)
	}
	nc := geom.Comps()

	// Cross-field validation: components against the physics. This is the
	// eager replacement for the old driver's silent min(comp, nc-1) clamp.
	for i, src := range set.sources {
		if src.Comp > nc-1 {
			return nil, optErr("WithSource", ErrComponentRange,
				"source %d component %d for %s physics (max %d)", i, src.Comp, set.physics, nc-1)
		}
	}
	if len(set.sources) == 0 && set.srcComp > nc-1 {
		return nil, optErr("WithSourceComponent", ErrComponentRange,
			"component %d for %s physics (max %d)", set.srcComp, set.physics, nc-1)
	}
	for _, r := range set.receivers {
		if r.Comp > nc-1 {
			return nil, optErr("WithReceiver", ErrComponentRange,
				"receiver %q component %d for %s physics (max %d)", r.Name, r.Comp, set.physics, nc-1)
		}
	}

	s := &Simulation{set: set, m: m, lv: lv, geom: geom, tunePlan: tunePlan}

	// Cross-backend validation: the distributed backend owns all the
	// parallelism, so shared-memory workers cannot be layered on top.
	distBE, distributed := set.backend.(Distributed)
	if distributed && set.workers != 1 {
		return nil, optErr("WithBackend", ErrBackendConflict,
			"distributed backend requires WithWorkers(1), got %d", set.workers)
	}

	// Decomposition width against the mesh: a request for more parts than
	// elements cannot be satisfied (the recursive bisection has nothing
	// left to split and effectively hangs on large widths), so it is
	// rejected here — at build time — rather than deep inside the
	// partitioner. Only explicit requests fail; the auto-sized worker
	// count (WithWorkers(0)) clamps to the element count below, so tiny
	// meshes on big machines still build.
	nelem := m.NumElements()
	if distributed && distBE.parts() > nelem {
		return nil, optErr("WithBackend", ErrPartsRange,
			"parts %d exceeds the mesh's %d elements", distBE.parts(), nelem)
	}
	if !distributed && set.workers > nelem {
		return nil, optErr("WithWorkers", ErrWorkersRange,
			"workers %d exceeds the mesh's %d elements", set.workers, nelem)
	}

	// The operator the time stepper sees: the geometry operator itself, or
	// the parallel engine wrapped around it. The distributed backend never
	// steps in this process, so it skips both.
	var step sem.BatchKernel = geom
	s.workers = set.workers
	if s.workers == 0 {
		s.workers = parallel.DefaultWorkers()
		if s.workers > nelem {
			s.workers = nelem
		}
	}
	if !distributed && s.workers > 1 {
		part, err := getPartition(set, m, lv, s.workers, &ac)
		if err != nil {
			return nil, fmt.Errorf("wave: partitioning: %w", err)
		}
		pop, err := parallel.NewOperator(geom, part, s.workers)
		if err != nil {
			return nil, fmt.Errorf("wave: parallel engine: %w", err)
		}
		pop.SetTelemetry(set.telemetry)
		s.pop = pop
		step = pop
	}

	// Defaults: source near the refinement, one receiver nearby.
	x0, x1, y0, y1, z0, z1 := m.Extent()
	if len(set.sources) > 0 {
		s.sources = append([]Source(nil), set.sources...)
	} else {
		dur := float64(set.cycles) * lv.CoarseDt
		s.sources = []Source{{
			X: (x0 + x1) / 2, Y: (y0 + y1) / 2, Z: z0 + (z1-z0)/4,
			Comp: set.srcComp, F0: 8 / dur, T0: dur / 5,
		}}
	}
	s.receivers = append([]Receiver(nil), set.receivers...)
	if len(s.receivers) == 0 {
		s.receivers = []Receiver{{
			Name: "st0", X: (x0+x1)/2 + (x1-x0)/12, Y: (y0 + y1) / 2, Z: z0,
			Comp: s.sources[0].Comp,
		}}
	}
	for i := range s.receivers {
		if s.receivers[i].Name == "" {
			s.receivers[i].Name = fmt.Sprintf("st%d", i)
		}
	}

	spec := solver.Spec{
		Mesh: set.mesh, Scale: set.scale, Physics: string(set.physics), Degree: set.degree,
		LevelCFL: set.levelCFL(), LTS: set.lts, Sponge: solver.Sponge(set.sponge),
		Sources: make([]solver.Source, len(s.sources)),
	}
	for i, src := range s.sources {
		srcNode := geom.NearestNode(src.X, src.Y, src.Z)
		spec.Sources[i] = solver.Source{Dof: int(srcNode)*nc + src.Comp, F0: src.F0, T0: src.T0}
	}
	for _, r := range s.receivers {
		n := geom.NearestNode(r.X, r.Y, r.Z)
		s.recs = append(s.recs, &sem.Receiver{Dof: int(n)*nc + r.Comp})
	}
	s.samples = make([]float64, len(s.recs))

	width := s.workers
	if distributed {
		width = distBE.parts()
	}
	s.ckptKey = checkpointKey(set, width, spec.Sources, s.recs)

	if distributed {
		if err := buildDistributed(s, set, distBE, spec, &ac); err != nil {
			return nil, err
		}
		s.artLookups, s.artHits = ac[0], ac[1]
		return s, nil
	}

	st, err := spec.NewStepper(step, geom, m, lv, set.telemetry)
	if err != nil {
		return nil, fmt.Errorf("wave: %w", err)
	}
	s.stepper = localStepper{st}
	s.artLookups, s.artHits = ac[0], ac[1]
	return s, nil
}

// partitionAssign maps the mesh onto k parts with the configured
// partitioner and seed; both backends decompose through it.
func partitionAssign(m *mesh.Mesh, lv *mesh.Levels, k int, set *settings) ([]int32, error) {
	return partition.Assign(m, lv, k, partitionerMethods[set.partitioner], set.seed)
}

// Frame is the per-cycle observation passed to probes.
type Frame struct {
	// Cycle counts completed cycles across all Runs (1-based).
	Cycle int
	// Time is the simulation time t after the cycle.
	Time float64
	// State is the live displacement field (node-major, Comps per node).
	// Probes must treat it as read-only; copy what must outlive the call.
	State []float64
	// Samples holds the latest value of each receiver, in receiver order.
	// Valid only during the call.
	Samples []float64
}

// Probe observes the simulation after each cycle; returning an error
// aborts the Run.
type Probe func(Frame) error

// SnapshotEvery wraps a probe so it fires only every n-th cycle — the
// snapshot-hook helper for periodic field dumps or progress lines.
func SnapshotEvery(n int, fn Probe) Probe {
	if n < 1 {
		n = 1
	}
	return func(f Frame) error {
		if f.Cycle%n != 0 {
			return nil
		}
		return fn(f)
	}
}

// Run advances the simulation by the given number of coarse cycles,
// recording receivers, feeding sinks and invoking probes after every
// cycle. cycles == 0 runs the configured default (WithCycles). The
// context is checked between cycles; cancellation returns ctx.Err() with
// the state left at the last completed cycle. Run may be called again to
// continue the same simulation.
func (s *Simulation) Run(ctx context.Context, cycles int, probes ...Probe) error {
	if s.closed {
		return fmt.Errorf("wave: Run: %w", ErrClosed)
	}
	if cycles < 0 {
		return optErr("Run", ErrCyclesRange, "got %d", cycles)
	}
	if cycles == 0 {
		cycles = s.set.cycles
		if s.resumed {
			// The configured count is the run's total; a resumed simulation
			// only owes the remainder.
			cycles -= s.cycles
			if cycles < 0 {
				cycles = 0
			}
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.sinksOpen {
		for _, sk := range s.set.sinks {
			if err := sk.Open(s.receivers); err != nil {
				return fmt.Errorf("wave: opening sink: %w", err)
			}
		}
		s.sinksOpen = true
	}
	cs, _ := s.stepper.(ctxStepper)
	for i := 0; i < cycles; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		var err error
		if cs != nil {
			err = cs.StepCtx(ctx)
		} else {
			err = s.stepper.Step()
		}
		if err != nil {
			// Cancellation is reported bare, not wrapped as a cycle failure:
			// callers select on context.Canceled / DeadlineExceeded.
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return err
			}
			return fmt.Errorf("wave: cycle %d: %w", s.cycles+1, err)
		}
		s.cycles++
		t := s.stepper.Time()
		u := s.stepper.State()
		for j, r := range s.recs {
			r.Record(t, u)
			s.samples[j] = u[r.Dof]
		}
		for _, sk := range s.set.sinks {
			if err := sk.Sample(t, s.samples); err != nil {
				return fmt.Errorf("wave: sink: %w", err)
			}
		}
		if len(s.set.probes)+len(probes) > 0 {
			f := Frame{Cycle: s.cycles, Time: t, State: u, Samples: s.samples}
			for _, p := range s.set.probes {
				if err := p(f); err != nil {
					return fmt.Errorf("wave: probe: %w", err)
				}
			}
			for _, p := range probes {
				if err := p(f); err != nil {
					return fmt.Errorf("wave: probe: %w", err)
				}
			}
		}
		// Checkpoint after sinks and probes: on resume the external record
		// is at least as advanced as the restored state, never behind it.
		if s.set.ckptEvery > 0 && s.cycles%s.set.ckptEvery == 0 {
			if err := s.Checkpoint(s.set.ckptPath); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes the attached sinks and shuts down the parallel engine.
// The Simulation must not be used afterwards; Close is idempotent.
func (s *Simulation) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.sinksOpen {
		for _, sk := range s.set.sinks {
			if err := sk.Flush(); err != nil && first == nil {
				first = fmt.Errorf("wave: flushing sink: %w", err)
			}
		}
	}
	if s.pop != nil {
		s.pop.Close()
	}
	if s.dist != nil {
		if err := s.dist.Close(); err != nil && first == nil {
			first = fmt.Errorf("wave: distributed backend: %w", err)
		}
	}
	return first
}

// Stepper returns the unified time stepper, for callers that drive the
// simulation cycle by cycle instead of through Run. Receivers, sinks and
// probes are serviced only by Run.
func (s *Simulation) Stepper() Stepper { return s.stepper }

// Time returns the simulation time after the last completed cycle.
func (s *Simulation) Time() float64 { return s.stepper.Time() }

// State returns the live displacement field (read-only). With the
// distributed backend the full field lives sharded across the rank
// processes, so only the receiver dofs carry live values here.
func (s *Simulation) State() []float64 { return s.stepper.State() }

// Cycles returns the configured default cycle count (WithCycles).
func (s *Simulation) Cycles() int { return s.set.cycles }

// Source returns the first resolved point source (after default
// placement) — the only one unless WithSource was used repeatedly.
func (s *Simulation) Source() Source { return s.sources[0] }

// Sources returns all resolved point sources, after default placement.
func (s *Simulation) Sources() []Source {
	return append([]Source(nil), s.sources...)
}

// Receivers returns the resolved recording stations, after default
// placement and name assignment.
func (s *Simulation) Receivers() []Receiver {
	return append([]Receiver(nil), s.receivers...)
}

// Seismograms returns a copy of everything the receivers have recorded so
// far.
func (s *Simulation) Seismograms() *Seismograms {
	out := &Seismograms{}
	if len(s.recs) > 0 {
		out.Times = append([]float64(nil), s.recs[0].Times...)
	}
	for i, r := range s.recs {
		sp := s.receivers[i]
		out.Traces = append(out.Traces, Trace{
			Name: sp.Name, X: sp.X, Y: sp.Y, Z: sp.Z,
			Values: append([]float64(nil), r.Values...),
		})
	}
	return out
}

// EngineStats holds the parallel engine's communication counters: the
// shared-memory analogues of MPI message and volume counts.
type EngineStats struct {
	// Applies counts stiffness applications dispatched to the engine.
	Applies int64
	// Messages counts per-apply spilling workers or halo sends.
	Messages int64
	// Volume counts the node values they carry.
	Volume int64
}

// Stats describes a simulation's configuration and accumulated work. The
// speedup fields follow the paper: TheoreticalSpeedup is the Eq. 9 model
// for the level assignment, EffectiveSpeedup the work-based saving the
// LTS scheme actually achieves, and Efficiency their ratio (halo
// overhead). EffectiveSpeedup and Efficiency are zero for the global
// scheme.
type Stats struct {
	// Mesh is the benchmark mesh name.
	Mesh string
	// Elements, Nodes and DOF size the discretization; Comps is components
	// per node; Degree the SEM polynomial degree.
	Elements, Nodes, DOF, Comps, Degree int
	// LTS reports which scheme is stepping.
	LTS bool
	// Levels is the number of LTS p-levels; PMax the finest substep
	// multiplier; CoarseDt the coarse step Δt.
	Levels   int
	PMax     int
	CoarseDt float64
	// TheoreticalSpeedup is the paper's Eq. 9 model.
	TheoreticalSpeedup float64
	// EffectiveSpeedup and Efficiency report the measured work saving
	// (LTS only).
	EffectiveSpeedup float64
	Efficiency       float64
	// Cycles counts completed coarse cycles; ElemApplies the element
	// stiffness applications performed.
	Cycles      int64
	ElemApplies int64
	// Workers is the resolved rank-worker count; Partitioner the strategy
	// used when the engine is active (empty otherwise).
	Workers     int
	Partitioner Partitioner
	// SIMD is the microkernel tier the batched deg=4 kernels dispatch to
	// in this process: "avx512", "avx2" or "go" (see
	// sem.ActiveSIMDTier). All tiers are bitwise-identical; the field
	// records speed, not results.
	SIMD string
	// Backend reports the execution backend ("local" or "distributed").
	Backend string
	// Ranks is the number of rank processes and Parts the owner-computes
	// decomposition width of the distributed backend; both zero for the
	// local backend.
	Ranks, Parts int
	// Engine holds the execution engine's communication counters: the
	// shared-memory merge accounting of the local backend, or the real
	// per-rank halo messages (summed over ranks) of the distributed one.
	// Nil when running sequentially.
	Engine *EngineStats
	// ArtifactLookups and ArtifactHits count this simulation's
	// consultations of the attached artifact cache during build (mesh,
	// operator, partition); both are zero without WithArtifactCache.
	// Batch-plan sharing is accounted in the cache's own Counters.
	ArtifactLookups, ArtifactHits int64
	// Checkpoints counts checkpoint files written by this simulation
	// (WithCheckpointEvery plus explicit Checkpoint calls).
	Checkpoints int64
	// Recoveries counts the distributed backend's transparent
	// rank-failure recoveries; RecoveryMillis is the wall time they
	// consumed. Both are zero for the local backend.
	Recoveries     int
	RecoveryMillis int64
	// Snapshots counts the recovery snapshots the distributed backend
	// committed (Distributed.CheckpointEvery, plus one per reconfiguration
	// and per Checkpoint); SnapshotMillis is the wall time every rank
	// stood still for them and SnapshotBytes what the ranks wrote to the
	// run's snapshot store. All zero for the local backend.
	Snapshots      int
	SnapshotMillis int64
	SnapshotBytes  int64
	// LevelTimes is the telemetry timing table (WithTelemetry locally,
	// Distributed.Telemetry remotely; nil otherwise): one row per LTS
	// level, with the cumulative stiffness-kernel nanoseconds each rank
	// spent on that level. The local backend reports a single column.
	LevelTimes []LevelStats
	// RankStepping is the distributed backend's per-rank share of the
	// stepper's pointwise work (Distributed.Telemetry with LTS; nil
	// otherwise), indexed by rank.
	RankStepping []RankStepping
	// WorkerBusyNanos is the local engine's cumulative per-worker kernel
	// time (telemetry only; nil for the distributed backend or without
	// workers).
	WorkerBusyNanos []int64
	// DegradedRanks counts ranks the distributed backend permanently
	// retired in degraded mode (Distributed.MinRanks) — each one a shrink of the rank set
	// with the parts redistributed onto the survivors;
	// DegradedMillis is the wall time the shrinks consumed. Both are zero
	// for a run that never lost a rank for good.
	DegradedRanks  int
	DegradedMillis int64
	// LinkRetries counts rank connection attempts beyond the first
	// (bounded reconnect-with-backoff absorbing transient link errors);
	// CorruptFrames counts CRC-failed frames the coordinator rejected and
	// routed into recovery. Both are zero for the local backend.
	LinkRetries   int64
	CorruptFrames int64
	// RankPeakRSS is each rank process's peak resident set in bytes (its
	// VmHWM; 0 where the host does not report it), indexed by rank; nil
	// for the local backend.
	RankPeakRSS []int64
	// TunedWorkers and TunedRanks report the shape selected by
	// WithAutoTune (zero values without it).
	TunedWorkers, TunedRanks int
}

// LevelStats is one LTS level's telemetry row.
type LevelStats struct {
	// Level is the 0-based p-level (0 = coarsest).
	Level int
	// RankNanos[r] is rank r's cumulative stiffness-kernel nanoseconds
	// in this level (a single entry for the local backend).
	RankNanos []int64
}

// RankStepping is one rank's share of the LTS stepper's own work: the
// distributed backend is owner-computes for the whole cycle, so a rank
// advances the nodes of its footprint only.
type RankStepping struct {
	// PointwiseNanos is the cumulative wall time of the rank's cycles
	// outside its stiffness applications (the LevelTimes column of the
	// rank, which spans compute, halo exchange and assembly).
	PointwiseNanos int64
	// ActiveNodes substep inside a cycle, FarNodes are updated once per
	// cycle; together they are the FootprintNodes the rank's elements
	// touch. Interface nodes count on every rank that shares them.
	ActiveNodes, FarNodes, FootprintNodes int
}

// Stats returns the simulation's metadata and work counters. It may be
// called before, during (from probes) and after Run.
func (s *Simulation) Stats() Stats {
	st := Stats{
		Mesh:               s.m.Name,
		Elements:           s.m.NumElements(),
		Nodes:              s.geom.NumNodes(),
		DOF:                s.geom.NDof(),
		Comps:              s.geom.Comps(),
		Degree:             s.set.degree,
		LTS:                s.set.lts,
		Levels:             s.lv.NumLevels,
		PMax:               s.lv.PMax(),
		CoarseDt:           s.lv.CoarseDt,
		TheoreticalSpeedup: s.lv.TheoreticalSpeedup(),
		Workers:            s.workers,
		SIMD:               sem.ActiveSIMDTier(),
		ArtifactLookups:    s.artLookups,
		ArtifactHits:       s.artHits,
	}
	st.Backend = s.set.backend.backendName()
	st.Checkpoints = s.ckptWrites
	if s.tunePlan != nil {
		st.TunedWorkers = s.tunePlan.Best.Workers
		st.TunedRanks = s.tunePlan.Best.Ranks
	}
	s.stepper.stats(&st)
	if s.pop != nil {
		st.Partitioner = s.set.partitioner
		es := s.pop.Stats()
		st.Engine = &EngineStats{Applies: es.Applies, Messages: es.Messages, Volume: es.Volume}
		if s.set.telemetry {
			st.WorkerBusyNanos = s.pop.WorkerBusyNanos()
		}
	}
	return st
}

// Plan is the cheap, operator-free description of a configuration that
// Describe resolves: mesh size, LTS level structure and bounding box —
// what a caller needs to place sources and receivers or to pick a wavelet
// frequency before building the full Simulation.
type Plan struct {
	// Mesh is the benchmark mesh name; Elements its element count.
	Mesh     string
	Elements int
	// Levels, PMax, CoarseDt and LevelCounts describe the LTS level
	// assignment for the configured degree and CFL.
	Levels      int
	PMax        int
	CoarseDt    float64
	LevelCounts []int
	// TheoreticalSpeedup is the paper's Eq. 9 model.
	TheoreticalSpeedup float64
	// X0..Z1 is the mesh bounding box.
	X0, X1, Y0, Y1, Z0, Z1 float64
}

// Describe resolves the mesh and LTS level assignment of a configuration
// without building operators or steppers. Only the mesh, degree and CFL
// options matter; the rest are validated and ignored.
func Describe(opts ...Option) (*Plan, error) {
	set := defaultSettings()
	for _, o := range opts {
		if err := o(set); err != nil {
			return nil, err
		}
	}
	m, lv, err := solver.MeshLevels(set.mesh, set.scale, set.levelCFL())
	if err != nil {
		return nil, optErr("WithMesh", ErrUnknownMesh, "%q", set.mesh)
	}
	p := &Plan{
		Mesh:               set.mesh,
		Elements:           m.NumElements(),
		Levels:             lv.NumLevels,
		PMax:               lv.PMax(),
		CoarseDt:           lv.CoarseDt,
		LevelCounts:        append([]int(nil), lv.Count...),
		TheoreticalSpeedup: lv.TheoreticalSpeedup(),
	}
	p.X0, p.X1, p.Y0, p.Y1, p.Z0, p.Z1 = m.Extent()
	return p, nil
}
